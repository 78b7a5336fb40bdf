"""Compact binary serialization for QR payloads.

TRIP's protocol messages travel as QR codes with tight capacity budgets
(13–356 bytes in the paper's prototype), so the codec uses length-prefixed
fields with no schema overhead.  Group elements serialize via their canonical
encodings; scalars use the minimal number of bytes for the group order.

A field that a verification equation determines — a signature's ``R``, a
Chaum–Pedersen commit — is read with :meth:`Decoder.get_encoding` and stays
bytes until its check recomputes the element; bases and ledger-bound values
are decoded (:meth:`Decoder.get_element`).
"""

from __future__ import annotations

from typing import List

from repro.crypto.group import ElementEncoding, Group, GroupElement
from repro.crypto.schnorr import SchnorrSignature
from repro.errors import ProtocolError


def scalar_bytes(group: Group) -> int:
    """The number of bytes needed to encode a scalar for ``group``."""
    return (group.order.bit_length() + 7) // 8


class Encoder:
    """Builds a length-prefixed byte string field by field."""

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def put_bytes(self, data: bytes) -> "Encoder":
        if len(data) > 0xFFFF:
            raise ProtocolError("field too large for QR payload encoding")
        self._parts.append(len(data).to_bytes(2, "big") + data)
        return self

    def put_str(self, text: str) -> "Encoder":
        return self.put_bytes(text.encode("utf-8"))

    def put_int(self, value: int, group: Group) -> "Encoder":
        return self.put_bytes(int(value).to_bytes(scalar_bytes(group), "big"))

    def put_element(self, element: GroupElement) -> "Encoder":
        return self.put_bytes(element.to_bytes())

    def put_signature(self, signature: SchnorrSignature, group: Group) -> "Encoder":
        self.put_element(signature.commitment)
        return self.put_int(signature.response, group)

    def bytes(self) -> bytes:
        return b"".join(self._parts)


class Decoder:
    """Reads fields written by :class:`Encoder`."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def _next(self) -> bytes:
        if self._offset + 2 > len(self._data):
            raise ProtocolError("truncated QR payload")
        length = int.from_bytes(self._data[self._offset : self._offset + 2], "big")
        self._offset += 2
        if self._offset + length > len(self._data):
            raise ProtocolError("truncated QR payload field")
        field = self._data[self._offset : self._offset + length]
        self._offset += length
        return field

    def get_bytes(self) -> bytes:
        return self._next()

    def get_str(self) -> str:
        return self._next().decode("utf-8")

    def get_int(self) -> int:
        return int.from_bytes(self._next(), "big")

    def get_element(self, group: Group) -> GroupElement:
        return group.element_from_bytes(self._next())

    def get_encoding(self, group: Group) -> ElementEncoding:
        return ElementEncoding(group, bytes(self._next()))

    def get_signature(self, group: Group) -> SchnorrSignature:
        """A signature whose ``R`` stays an encoding: verifying recomputes it."""
        commitment = self.get_encoding(group)
        response = self.get_int()
        return SchnorrSignature(commitment=commitment, response=response)

    @property
    def exhausted(self) -> bool:
        return self._offset == len(self._data)
