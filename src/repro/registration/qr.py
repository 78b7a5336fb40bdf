"""QR codes and barcodes: the wire codec between the booth's paper and its devices.

TRIP materializes protocol messages as machine-readable codes: the check-in
ticket is a barcode (limited capacity, hence a MAC rather than a signature),
and the receipt and envelope carry QR codes of 13–356 bytes (§7.2).  We do
not rasterize actual QR images — the protocol only cares about the payload
bytes and the code's size class — but we do model QR versioning (capacity
per version) and perform a real encode/decode round-trip (base64 framing
with a checksum) so that corrupted payloads are detected, mirroring what
gozxing does for the Go prototype.

The devices touch codes through two calls, and each leaves a span in the
trace: :func:`scan` (``registration.scan``, whose duration is the real
decode and whose ``wire_bytes`` is what a scanner transfers) and
:func:`print_codes` (``registration.print``, carrying the printed sizes).
The spans hold raw sizes only; what a printer or a scanner takes per line
or byte is a figure's model, not the protocol's.
"""

from __future__ import annotations

import base64
import binascii
from dataclasses import dataclass
from typing import Type, TypeVar

from repro import telemetry
from repro.crypto.hashing import sha256
from repro.errors import ProtocolError

# Approximate binary capacity (bytes) of QR versions 1-16 at error-correction
# level M.  Enough for TRIP's 13-356 byte payloads.
_QR_CAPACITY_BYTES = [
    14, 26, 42, 62, 84, 106, 122, 152, 180, 213, 251, 287, 331, 362, 412, 450,
]

_MAX_BARCODE_BYTES = 48  # Code-128 practical payload limit for a check-in ticket.


def qr_version_for(payload_length: int) -> int:
    """The smallest QR version (1-based) that can hold ``payload_length`` bytes."""
    for version, capacity in enumerate(_QR_CAPACITY_BYTES, start=1):
        if payload_length <= capacity:
            return version
    raise ProtocolError(f"payload of {payload_length} bytes exceeds supported QR capacity")


C = TypeVar("C", bound="Code")


@dataclass(frozen=True)
class Code:
    """A printed code: an opaque binary payload, framed on the wire as base64
    of a 4-byte checksum and the payload."""

    payload: bytes
    label: str = ""

    @property
    def encoded(self) -> bytes:
        """The framed wire bytes actually transferred by a scanner."""
        return base64.b64encode(sha256(self.payload)[:4] + self.payload)

    @property
    def wire_length(self) -> int:
        return len(self.encoded)

    @classmethod
    def decode(cls: Type[C], encoded: bytes, label: str = "") -> C:
        """Reconstruct a code from scanned wire bytes (checksum-verified)."""
        try:
            raw = base64.b64decode(encoded, validate=True)
        except binascii.Error:
            raise ProtocolError("code framing is not base64 (scan error or tampering)") from None
        checksum, payload = raw[:4], raw[4:]
        if sha256(payload)[:4] != checksum:
            raise ProtocolError("QR payload checksum mismatch (scan error or tampering)")
        return cls(payload=payload, label=label)


class QRCode(Code):
    """A QR code; its version is the smallest that holds the payload."""

    @property
    def version(self) -> int:
        return qr_version_for(len(self.payload))


@dataclass(frozen=True)
class Barcode(Code):
    """A 1-D barcode (check-in tickets); much smaller capacity than a QR code."""

    def __post_init__(self) -> None:
        if len(self.payload) > _MAX_BARCODE_BYTES:
            raise ProtocolError(
                f"barcode payload of {len(self.payload)} bytes exceeds the "
                f"{_MAX_BARCODE_BYTES}-byte capacity; use a QR code instead"
            )


def scan(code: Code) -> Code:
    """Read a printed code back through its wire bytes, as a scanner does.

    The decode is checksum-verified, and a payload that does not survive the
    round trip is a :class:`ProtocolError`.
    """
    wire = code.encoded
    with telemetry.span("registration.scan", wire_bytes=len(wire)):
        decoded = type(code).decode(wire, label=code.label)
    if decoded.payload != code.payload:
        raise ProtocolError("scanned payload does not match the printed payload")
    return decoded


def print_codes(*codes: Code, text_lines: int) -> None:
    """Send one print job: ``codes`` and ``text_lines`` lines of text.

    Nothing is rendered; the ``registration.print`` span records what the
    job holds (QR codes with their summed versions, barcodes, text lines).
    """
    versions = [code.version for code in codes if isinstance(code, QRCode)]
    with telemetry.span(
        "registration.print",
        qr_codes=len(versions),
        qr_version_sum=sum(versions),
        barcodes=len(codes) - len(versions),
        text_lines=text_lines,
    ):
        pass
