"""Hardware profiles and the printer model."""

import pytest

from figures.hardware import HARDWARE_PROFILES, hardware_profile, print_lines


class TestHardwareProfiles:
    def test_all_four_platforms_exist(self):
        assert set(HARDWARE_PROFILES) == {"L1", "L2", "H1", "H2"}

    def test_lookup_by_key(self):
        assert hardware_profile("L1").name == "Point-of-Sale Kiosk"
        with pytest.raises(KeyError):
            hardware_profile("X9")

    def test_constrained_devices_flagged(self):
        assert hardware_profile("L1").resource_constrained
        assert hardware_profile("L2").resource_constrained
        assert not hardware_profile("H1").resource_constrained

    def test_constrained_devices_have_higher_cpu_multiplier(self):
        assert hardware_profile("L1").cpu_multiplier > hardware_profile("H1").cpu_multiplier

    def test_print_render_slower_on_kiosk(self):
        """§7.2: print rendering is ≈380 % slower on the constrained devices."""
        ratio = hardware_profile("L1").print_cpu_seconds(10) / hardware_profile("H1").print_cpu_seconds(10)
        assert ratio > 3.5

    def test_scan_latency_close_to_a_second_for_typical_qr(self):
        """§7.2: scanning a QR takes ≈948 ms on average."""
        seconds = hardware_profile("H1").scan_seconds(400)
        assert 0.6 < seconds < 1.3


class TestPrinterModel:
    def test_a_qr_code_takes_more_lines_as_its_version_grows(self):
        small = print_lines(qr_codes=1, qr_version_sum=2, barcodes=0, text_lines=2)
        large = print_lines(qr_codes=2, qr_version_sum=26, barcodes=0, text_lines=2)
        assert large > small

    def test_a_check_in_ticket_is_a_barcode_and_a_line_of_text(self):
        assert print_lines(qr_codes=0, qr_version_sum=0, barcodes=1, text_lines=1) == 3

    def test_bigger_jobs_take_longer(self):
        profile = hardware_profile("H1")
        assert profile.print_seconds(20) > profile.print_seconds(5) > 0
