"""QR/barcode payload model, and the scan and print calls the devices make."""

import dataclasses

import pytest

from repro.errors import ProtocolError
from repro.registration.qr import Barcode, QRCode, print_codes, qr_version_for, scan


class TestQRCode:
    def test_roundtrip(self):
        code = QRCode(payload=b"hello trip", label="test")
        decoded = QRCode.decode(code.encoded)
        assert decoded.payload == b"hello trip"

    def test_version_grows_with_payload(self):
        assert qr_version_for(10) < qr_version_for(200)

    def test_paper_payload_sizes_fit(self):
        """The paper's QR payloads are 13-356 bytes; all must be encodable."""
        for size in (13, 100, 256, 356):
            assert 1 <= qr_version_for(size) <= 16

    def test_oversized_payload_rejected(self):
        with pytest.raises(ProtocolError):
            qr_version_for(5000)

    def test_corrupted_wire_bytes_detected(self):
        code = QRCode(payload=b"hello")
        corrupted = bytearray(code.encoded)
        corrupted[5] ^= 0xFF
        with pytest.raises(Exception):
            QRCode.decode(bytes(corrupted))

    def test_wire_length_larger_than_payload(self):
        code = QRCode(payload=b"x" * 50)
        assert code.wire_length > 50


class TestBarcode:
    def test_roundtrip(self):
        code = Barcode(payload=b"alice|tag")
        assert Barcode.decode(code.encoded).payload == b"alice|tag"

    def test_capacity_limit(self):
        with pytest.raises(ProtocolError):
            Barcode(payload=b"x" * 100)

    def test_checksum_detects_tampering(self):
        code = Barcode(payload=b"alice")
        corrupted = bytearray(code.encoded)
        corrupted[-1] ^= 0x01
        with pytest.raises(Exception):
            Barcode.decode(bytes(corrupted))


class TestFraming:
    @pytest.mark.parametrize("kind", [QRCode, Barcode])
    def test_wire_bytes_that_are_not_base64_are_a_protocol_error(self, kind):
        with pytest.raises(ProtocolError, match="not base64"):
            kind.decode(b"!!")


class TestScanAndPrint:
    def test_scan_round_trips_a_qr_code_and_a_barcode(self):
        assert scan(QRCode(payload=b"payload")).payload == b"payload"
        assert scan(Barcode(payload=b"ticket")).payload == b"ticket"

    def test_a_payload_that_does_not_survive_the_wire_is_refused(self, monkeypatch):
        monkeypatch.setattr(QRCode, "decode", classmethod(
            lambda cls, encoded, label="": dataclasses.replace(QRCode(payload=b"other"), label=label)))
        with pytest.raises(ProtocolError, match="does not match"):
            scan(QRCode(payload=b"payload"))

    def test_a_scan_is_a_span_carrying_the_wire_bytes(self, traced_spans):
        code = QRCode(payload=b"x" * 50)
        scan(code)
        (span,) = traced_spans()
        assert span["name"] == "registration.scan"
        assert span["attrs"] == {"wire_bytes": code.wire_length}

    def test_a_print_job_is_a_span_carrying_the_printed_sizes(self, traced_spans):
        print_codes(QRCode(payload=b"x" * 20), QRCode(payload=b"y" * 300), Barcode(payload=b"t"), text_lines=2)
        (span,) = traced_spans()
        assert span["name"] == "registration.print"
        assert span["attrs"] == {
            "qr_codes": 2, "qr_version_sum": qr_version_for(20) + qr_version_for(300), "barcodes": 1, "text_lines": 2,
        }
