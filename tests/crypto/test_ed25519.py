"""Tests specific to the Edwards25519 backend."""

import hashlib
import pickle

import pytest

from repro.crypto import ed25519
from repro.crypto.ed25519 import (
    _BASE_EXT,
    _BASE_X,
    _BASE_Y,
    _IDENTITY_EXT,
    _P,
    _Q,
    _decode,
    _encode,
    _ext_add,
    _ext_double,
    _ext_equal,
    _ext_scalar_mul,
    ed25519_group,
)
from repro.runtime.precompute import FixedBaseTable

ORDER_TWO = bytes.fromhex("ec" + "ff" * 30 + "7f")  # (0, -1)
ORDER_FOUR = bytes(32)  # (sqrt(-1), 0)


def _in_subgroup(point):
    """The check itself: the *unreduced* order annihilates the point."""
    return _ext_equal(_ext_scalar_mul(_Q, point), _IDENTITY_EXT)


def _torsion_points():
    """The seven non-identity points of order dividing 8, from a generator of the 8-torsion."""
    counter = 0
    while True:
        digest = hashlib.sha512(b"torsion" + bytes([counter])).digest()
        counter += 1
        try:
            candidate = _ext_scalar_mul(_Q, _decode(digest[:31] + bytes([digest[31] & 0x7F])))
        except ValueError:
            continue
        if not _ext_equal(_ext_scalar_mul(4, candidate), _IDENTITY_EXT):  # order exactly 8
            break
    points, current = [], candidate
    for _ in range(7):
        points.append(current)
        current = _ext_add(current, candidate)
    assert _ext_equal(current, _IDENTITY_EXT)
    return points


TORSION = _torsion_points()


class TestCurveConstants:
    def test_base_point_on_curve(self):
        d = (-121665 * pow(121666, -1, _P)) % _P
        x, y = _BASE_X, _BASE_Y
        lhs = (-x * x + y * y) % _P
        rhs = (1 + d * x * x * y * y) % _P
        assert lhs == rhs

    def test_order_is_prime_sized(self):
        assert _Q.bit_length() == 253

    def test_base_point_has_prime_order(self):
        # ``g ** _Q`` would reduce the scalar to zero and pass for any point.
        group = ed25519_group()
        assert _in_subgroup(_BASE_EXT)
        assert group.generator ** (_Q - 1) == group.generator.inverse()
        assert group.generator ** 1 != group.identity


class TestEncoding:
    def test_encoding_is_32_bytes(self):
        group = ed25519_group()
        assert len(group.generator.to_bytes()) == 32

    def test_known_base_point_encoding(self):
        # RFC 8032: the standard base point encodes to 0x58666666...66 (y = 4/5).
        group = ed25519_group()
        encoded = group.generator.to_bytes()
        assert encoded.hex() == "5866666666666666666666666666666666666666666666666666666666666666"

    def test_decode_rejects_wrong_length(self):
        group = ed25519_group()
        with pytest.raises(ValueError):
            group.element_from_bytes(b"\x01" * 31)

    def test_decode_rejects_out_of_range_coordinate(self):
        group = ed25519_group()
        # y = 2^255 - 19 equals the field prime and is therefore invalid.
        bad = (2**255 - 19).to_bytes(32, "little")
        with pytest.raises(ValueError):
            group.element_from_bytes(bad)

    def test_negation_flips_sign_bit_only(self):
        group = ed25519_group()
        point = group.power(12345)
        negated = point.inverse()
        assert point.to_bytes()[:31] == negated.to_bytes()[:31]
        assert point.to_bytes() != negated.to_bytes()


class TestSubgroup:
    def test_hash_to_element_lands_in_prime_subgroup(self):
        group = ed25519_group()
        element = group.hash_to_element(b"independent generator")
        assert _in_subgroup(element._point)
        assert element ** (_Q - 1) == element.inverse()
        assert element != group.identity

    def test_identity_encoding_roundtrip(self):
        group = ed25519_group()
        assert group.element_from_bytes(group.identity.to_bytes()) == group.identity

    def test_scalar_multiplication_matches_addition(self):
        group = ed25519_group()
        g = group.generator
        assert g ** 5 == g * g * g * g * g


class TestKnownAnswers:
    def test_doubled_base_point(self):
        group = ed25519_group()
        expected = "c9a3f86aae465f0e56513864510f3997561fa2c9e85ea21dc2292309f3cd6022"
        assert (group.generator ** 2).to_bytes().hex() == expected
        assert (group.generator * group.generator).to_bytes().hex() == expected

    def test_rfc8032_test_1_public_key(self):
        # RFC 8032 §7.1, TEST 1: SHA-512 the seed, clamp, read little-endian.
        seed = bytes.fromhex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
        digest = bytearray(hashlib.sha512(seed).digest()[:32])
        digest[0] &= 248
        digest[31] = (digest[31] & 127) | 64
        secret = int.from_bytes(digest, "little")
        public = ed25519_group().generator ** secret
        assert public.to_bytes().hex() == "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"


class TestSubgroupCheck:
    """``element_from_bytes`` multiplies by the unreduced order (it used to multiply by ``_Q % _Q``)."""

    def test_the_torsion_fixture_is_the_whole_torsion(self):
        encodings = {_encode(point) for point in TORSION}
        assert len(encodings) == 7 and ORDER_TWO in encodings and ORDER_FOUR in encodings
        assert not any(_in_subgroup(point) for point in TORSION)

    @pytest.mark.parametrize("index", range(7))
    def test_torsion_points_are_rejected(self, index):
        with pytest.raises(ValueError, match="subgroup"):
            ed25519_group().element_from_bytes(_encode(TORSION[index]))

    @pytest.mark.parametrize("index", range(7))
    def test_mixed_order_points_are_rejected(self, index):
        mixed = _ext_add(_BASE_EXT, TORSION[index])
        with pytest.raises(ValueError, match="subgroup"):
            ed25519_group().element_from_bytes(_encode(mixed))

    def test_subgroup_points_are_accepted(self):
        group = ed25519_group()
        for element in (group.identity, group.generator, group.hash_to_element(b"a"), group.hash_to_element(b"b")):
            assert group.element_from_bytes(element.to_bytes()) == element

    def test_a_repeated_decode_is_remembered_and_a_rejection_is_not(self, monkeypatch):
        group = ed25519_group()
        encoding = group.power(777).to_bytes()
        first = group.element_from_bytes(encoding)
        monkeypatch.setattr(ed25519, "_ext_scalar_mul", None)  # a second check would raise TypeError
        again = group.element_from_bytes(bytearray(encoding))
        assert again == first and again.to_bytes() == encoding
        monkeypatch.undo()
        for _ in range(2):
            with pytest.raises(ValueError):
                group.element_from_bytes(ORDER_TWO)
        assert ORDER_TWO not in group._decoded

    def test_the_memo_is_bounded(self, monkeypatch):
        group = ed25519_group()
        monkeypatch.setattr(ed25519, "_MAX_DECODED", 3)
        group._decoded.clear()
        for exponent in range(1, 9):
            element = group.power(exponent)
            assert group.element_from_bytes(element.to_bytes()) == element
            assert len(group._decoded) <= 3


class TestKernels:
    def test_doubling_is_adding_a_point_to_itself(self):
        group = ed25519_group()
        order_two = _decode(ORDER_TWO)
        for point in (_IDENTITY_EXT, _BASE_EXT, order_two, TORSION[0], group.hash_to_element(b"p")._point):
            doubled = _ext_double(point)
            assert _ext_equal(doubled, _ext_add(point, point))
            x, y, z, t = doubled
            assert (x * y - z * t) % _P == 0  # T = XY/Z survives a doubling
        assert _ext_equal(_ext_double(order_two), _IDENTITY_EXT)

    def test_every_kernel_leaves_reduced_coordinates(self):
        # Elements pickle as their coordinate tuples: process and cluster
        # frames must keep carrying residues in [0, p).
        group = ed25519_group()
        base = group.hash_to_element(b"reduced")
        results = [
            base ** (_Q - 2),
            base * base,
            base.inverse(),
            group.multi_exponentiate([base, group.generator, base.inverse()], [5, _Q - 1, 2**200]),
            *group.shared_base_powers(base, [3, _Q - 3, 2**251]),
            FixedBaseTable(base).power(_Q - 5),
            group.hash_to_element(b"cleared"),
        ]
        for element in results:
            assert all(type(c) is int and 0 <= c < _P for c in element._point)
            assert pickle.loads(pickle.dumps(element)) == element
