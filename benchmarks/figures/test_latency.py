"""Fig. 4's table, read off registration traces."""

import pytest

from figures.hardware import SCAN_CPU_SHARE, hardware_profile, print_lines
from figures.latency import (
    COMPONENTS,
    CRYPTO,
    PHASES,
    QR_PRINT,
    QR_READ_WRITE,
    QR_SCAN,
    component_totals,
    median_by_phase_component,
    phase_components,
    trace_registrations,
)
from repro import telemetry
from repro.crypto.modp_group import testing_group
from repro.registration.materials import EnvelopeSymbol
from repro.registration.setup import ElectionSetup
from repro.registration.voter import Voter


def _span(span_id, name, duration, parent_id=None, **attrs):
    return {"type": "span", "span_id": span_id, "parent_id": parent_id, "name": name,
            "duration": duration, "attrs": attrs}


#: One CheckIn printing a ticket, one RealToken scanning an envelope and printing a QR.
EVENTS = [
    _span("p1", "registration.phase", 0.5, phase="CheckIn"),
    _span("c1", "registration.print", 0.1, "p1", qr_codes=0, qr_version_sum=0, barcodes=1, text_lines=1),
    _span("p2", "registration.phase", 1.0, phase="RealToken"),
    _span("c2", "registration.scan", 0.25, "p2", wire_bytes=200),
    _span("c3", "registration.print", 0.0, "p2", qr_codes=1, qr_version_sum=7, barcodes=0, text_lines=2),
]


@pytest.fixture(scope="module")
def traces():
    """Two registrations' events.  Every envelope and every commit code shows a
    star, so the booth always holds the symbol the kiosk prints: with random
    symbols a booth that lacked it had one envelope printed for that voter
    alone, and its trace two more spans (``ledger.append``, ``ledger.flush``)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EnvelopeSymbol, "random", classmethod(lambda cls: EnvelopeSymbol.STAR))
        setup = ElectionSetup.run(testing_group(), ["alice", "bob", "carol"], num_authority_members=2)
        voters = [Voter(voter_id, num_fake_credentials=1) for voter_id in ("alice", "bob")]
        return trace_registrations(setup, voters)


class TestPhaseComponents:
    def test_crypto_is_the_phase_spans_self_time_scaled_by_the_cpu(self):
        table = phase_components(EVENTS, hardware_profile("L1"))
        assert table["CheckIn"][CRYPTO] == pytest.approx(0.4 * 3.6)
        assert table["RealToken"][CRYPTO] == pytest.approx(0.75 * 3.6)

    def test_a_scan_is_its_decode_plus_the_modelled_transfer(self):
        profile = hardware_profile("H1")
        wall = phase_components(EVENTS, profile)["RealToken"]
        cpu = phase_components(EVENTS, profile, cpu=True)["RealToken"]
        assert wall[QR_READ_WRITE] == cpu[QR_READ_WRITE] == pytest.approx(0.25)
        assert wall[QR_SCAN] == pytest.approx(profile.scan_seconds(200))
        assert cpu[QR_SCAN] == pytest.approx(profile.scan_seconds(200) * SCAN_CPU_SHARE)

    def test_a_print_is_the_printer_model_applied_to_the_printed_sizes(self):
        profile = hardware_profile("L2")
        lines = print_lines(qr_codes=1, qr_version_sum=7, barcodes=0, text_lines=2)
        wall = phase_components(EVENTS, profile)["RealToken"][QR_PRINT]
        cpu = phase_components(EVENTS, profile, cpu=True)["RealToken"][QR_PRINT]
        assert wall == pytest.approx(profile.print_seconds(lines) + profile.print_cpu_seconds(lines))
        assert cpu == pytest.approx(profile.print_cpu_seconds(lines))

    def test_spans_outside_a_phase_count_nowhere(self):
        stray = _span("s", "registration.scan", 5.0, wire_bytes=10)
        assert phase_components(EVENTS + [stray], hardware_profile("H1")) == phase_components(
            EVENTS, hardware_profile("H1"))

    def test_totals_sum_the_phases(self):
        table = phase_components(EVENTS, hardware_profile("H2"))
        totals = component_totals(table)
        for component in COMPONENTS:
            assert totals[component] == pytest.approx(sum(row[component] for row in table.values()))


class TestTracedRegistrations:
    def test_every_phase_is_traced_and_measured(self, traces):
        table = phase_components(traces[0], hardware_profile("H1"))
        assert list(table) == list(PHASES)
        assert all(row[CRYPTO] > 0 for row in table.values())

    def test_print_and_scan_land_where_the_paper_puts_them(self, traces):
        table = phase_components(traces[0], hardware_profile("H1"))
        printed = {phase for phase, row in table.items() if row[QR_PRINT] > 0}
        scanned = {phase for phase, row in table.items() if row[QR_SCAN] > 0}
        assert printed == {"CheckIn", "RealToken", "FakeToken"}
        assert scanned == {"Authorization", "RealToken", "FakeToken", "CheckOut", "Activation"}

    def test_qr_dominates_wall_clock(self, traces):
        """§7.2: QR printing and scanning account for ≥69.5 % of wall-clock time."""
        totals = component_totals(phase_components(traces[0], hardware_profile("H1")))
        assert (totals[QR_PRINT] + totals[QR_SCAN]) / sum(totals.values()) >= 0.695

    def test_constrained_profile_slower_than_high_end(self, traces):
        def total(key):
            return sum(component_totals(phase_components(traces[0], hardware_profile(key))).values())

        assert total("L1") > total("H1")

    def test_each_registration_is_traced_on_its_own(self, traces):
        assert len(traces) == 2
        assert len(traces[0]) == len(traces[1])
        medians = median_by_phase_component(traces, hardware_profile("H1"))
        assert list(medians) == list(PHASES)

    def test_telemetry_is_off_after_the_trace(self, traces):
        assert not telemetry.enabled()
