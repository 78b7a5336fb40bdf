"""MAC authorization tags and hashing helpers."""

import pytest

from repro.crypto.hashing import hash_hex, sha256, sha512
from repro.crypto.mac import mac_keygen, mac_sign, mac_verify


class TestMac:
    def test_signed_tag_verifies(self):
        key = mac_keygen()
        tag = mac_sign(key, b"voter-001")
        assert mac_verify(key, b"voter-001", tag)

    def test_wrong_message_rejected(self):
        key = mac_keygen()
        tag = mac_sign(key, b"voter-001")
        assert not mac_verify(key, b"voter-002", tag)

    def test_wrong_key_rejected(self):
        tag = mac_sign(mac_keygen(), b"voter-001")
        assert not mac_verify(mac_keygen(), b"voter-001", tag)

    def test_truncated_tag_roundtrip(self):
        """Check-in tickets use 16-byte tags to fit a barcode."""
        key = mac_keygen()
        tag = mac_sign(key, b"alice", length=16)
        assert len(tag) == 16
        assert mac_verify(key, b"alice", tag)

    def test_too_short_tag_rejected(self):
        key = mac_keygen()
        with pytest.raises(ValueError):
            mac_sign(key, b"alice", length=4)
        assert not mac_verify(key, b"alice", b"\x00" * 4)

    def test_default_tag_length(self):
        assert len(mac_sign(mac_keygen(), b"x")) == 32

    def test_keygen_produces_distinct_keys(self):
        assert mac_keygen() != mac_keygen()


class TestHashing:
    def test_sha256_deterministic(self):
        assert sha256(b"a", b"b") == sha256(b"a", b"b")

    def test_sha256_length_prefixing_prevents_ambiguity(self):
        assert sha256(b"ab", b"c") != sha256(b"a", b"bc")

    def test_sha256_output_length(self):
        assert len(sha256(b"x")) == 32

    def test_sha512_output_length(self):
        assert len(sha512(b"x")) == 64

    def test_hash_hex_matches_sha256(self):
        assert hash_hex(b"x") == sha256(b"x").hex()

    def test_empty_input(self):
        assert len(sha256()) == 32
        assert sha256() != sha256(b"")
