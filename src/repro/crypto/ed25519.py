"""Pure-Python Edwards25519 group backend.

The paper's prototype uses Schnorr signatures and ElGamal over edwards25519
(via dedis/kyber).  This module implements the twisted Edwards curve

    -x^2 + y^2 = 1 + d x^2 y^2  over GF(2^255 - 19)

with the standard base point of order
``q = 2^252 + 27742317777372353535851937790883648493``.

The group exposed here is the prime-order subgroup generated by the base
point.  Arbitrary decoded points are checked for subgroup membership
(cofactor-8 check) so small-subgroup elements are rejected, which is what the
kyber suite does for protocol-facing points.

Scalar multiplication uses extended homogeneous coordinates with a simple
double-and-add ladder — a few milliseconds per multiplication in CPython,
which is plenty for the protocol tests and the latency benchmarks (the bench
harness also supports the mod-p backends when raw throughput matters).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import List, Sequence, Tuple

from repro.crypto.group import Group, GroupElement
from repro.crypto.multiexp import (
    GroupOps,
    execute_plan,
    plan_multi_exponentiation,
    plan_shared_base_powers,
    shared_base_powers,
)

# Field and curve constants ---------------------------------------------------

_P = 2**255 - 19
_Q = 2**252 + 27742317777372353535851937790883648493
_D = (-121665 * pow(121666, -1, _P)) % _P

_BASE_Y = (4 * pow(5, -1, _P)) % _P


_SQRT_M1 = pow(2, (_P - 1) // 4, _P)


def _recover_x(y: int, sign: int) -> int:
    """Recover the x coordinate from y and the sign bit (RFC 8032 §5.1.3)."""
    if y >= _P:
        raise ValueError("y coordinate out of range")
    y2 = (y * y) % _P
    x2 = (y2 - 1) * pow(_D * y2 + 1, _P - 2, _P) % _P
    if x2 == 0:
        if sign:
            raise ValueError("point decoding failed: x is zero with sign bit set")
        return 0
    x = pow(x2, (_P + 3) // 8, _P)
    if (x * x - x2) % _P != 0:
        x = x * _SQRT_M1 % _P
    if (x * x - x2) % _P != 0:
        raise ValueError("point decoding failed: no square root")
    if (x & 1) != sign:
        x = _P - x
    return x


_BASE_X = _recover_x(_BASE_Y, 0)

# Extended coordinates: (X, Y, Z, T) with x = X/Z, y = Y/Z, T = XY/Z.
_IDENTITY_EXT = (0, 1, 1, 0)
_BASE_EXT = (_BASE_X, _BASE_Y, 1, (_BASE_X * _BASE_Y) % _P)

Extended = Tuple[int, int, int, int]


def _ext_add(p: Extended, q: Extended) -> Extended:
    """Unified point addition on the twisted Edwards curve (a = -1)."""
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = ((y1 - x1) * (y2 - x2)) % _P
    b = ((y1 + x1) * (y2 + x2)) % _P
    c = (2 * t1 * t2 * _D) % _P
    d = (2 * z1 * z2) % _P
    e = (b - a) % _P
    f = (d - c) % _P
    g = (d + c) % _P
    h = (b + a) % _P
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def _ext_double(p: Extended) -> Extended:
    return _ext_add(p, p)


def _ext_scalar_mul(scalar: int, point: Extended) -> Extended:
    scalar %= _Q
    result = _IDENTITY_EXT
    addend = point
    while scalar:
        if scalar & 1:
            result = _ext_add(result, addend)
        addend = _ext_double(addend)
        scalar >>= 1
    return result


def _ext_negate(p: Extended) -> Extended:
    x, y, z, t = p
    return ((-x) % _P, y, z, (-t) % _P)


def _ext_to_affine(p: Extended) -> Tuple[int, int]:
    x, y, z, _ = p
    zinv = pow(z, _P - 2, _P)
    return (x * zinv % _P, y * zinv % _P)


def _ext_equal(p: Extended, q: Extended) -> bool:
    x1, y1, z1, _ = p
    x2, y2, z2, _ = q
    return (x1 * z2 - x2 * z1) % _P == 0 and (y1 * z2 - y2 * z1) % _P == 0


def _encode(p: Extended) -> bytes:
    x, y = _ext_to_affine(p)
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _decode(data: bytes) -> Extended:
    if len(data) != 32:
        raise ValueError("an edwards25519 point encoding is 32 bytes")
    raw = int.from_bytes(data, "little")
    sign = raw >> 255
    y = raw & ((1 << 255) - 1)
    if y >= _P:
        raise ValueError("y coordinate out of range")
    x = _recover_x(y, sign)
    return (x, y, 1, (x * y) % _P)


def _ext_advance(point: Extended, k: int) -> Extended:
    for _ in range(k):
        point = _ext_double(point)
    return point


#: The multi-exponentiation kernels' view of the curve: raw ``(X, Y, Z, T)``
#: tuples, no :class:`Ed25519Element` wrappers.  Negation is one field
#: negation, which is what the planners are told an inversion costs.
_EXTENDED_OPS = GroupOps(
    identity=_IDENTITY_EXT,
    multiply=_ext_add,
    advance=_ext_advance,
    invert=_ext_negate,
)
_NEGATE_COST = 0.1


class Ed25519Element(GroupElement):
    """A point in the prime-order subgroup of edwards25519."""

    __slots__ = ("_point", "_group", "_encoding")

    def __init__(self, point: Extended, group: "Ed25519Group"):
        self._point = point
        self._group = group
        self._encoding: bytes | None = None

    @property
    def group(self) -> "Ed25519Group":
        return self._group

    def operate(self, other: GroupElement) -> "Ed25519Element":
        if not isinstance(other, Ed25519Element):
            raise TypeError("cannot combine elements from different groups")
        return Ed25519Element(_ext_add(self._point, other._point), self._group)

    def exponentiate(self, scalar: int) -> "Ed25519Element":
        return Ed25519Element(_ext_scalar_mul(scalar, self._point), self._group)

    def inverse(self) -> "Ed25519Element":
        return Ed25519Element(_ext_negate(self._point), self._group)

    def to_bytes(self) -> bytes:
        if self._encoding is None:
            self._encoding = _encode(self._point)
        return self._encoding

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ed25519Element) and _ext_equal(self._point, other._point)

    def __hash__(self) -> int:
        return hash(self.to_bytes())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ed25519Element({self.to_bytes().hex()[:16]}…)"


class Ed25519Group(Group):
    """The prime-order subgroup of edwards25519 as a :class:`Group`."""

    name = "edwards25519"

    def __init__(self) -> None:
        self._generator = Ed25519Element(_BASE_EXT, self)
        self._identity = Ed25519Element(_IDENTITY_EXT, self)

    @property
    def order(self) -> int:
        return _Q

    @property
    def generator(self) -> Ed25519Element:
        return self._generator

    @property
    def identity(self) -> Ed25519Element:
        return self._identity

    def element_from_bytes(self, data: bytes) -> Ed25519Element:
        point = _decode(data)
        element = Ed25519Element(point, self)
        # Reject points outside the prime-order subgroup (cofactor check).
        if not _ext_equal(_ext_scalar_mul(_Q, point), _IDENTITY_EXT):
            raise ValueError("point is not in the prime-order subgroup")
        return element

    def hash_to_element(self, data: bytes) -> Ed25519Element:
        """Derive an independent generator by hash-and-multiply.

        Hashing to a scalar and multiplying the base point would make the
        discrete log known, so instead we hash to candidate y-coordinates and
        clear the cofactor — the standard "try-and-increment + multiply by 8"
        map whose output has unknown discrete log.
        """
        counter = 0
        while True:
            digest = hashlib.sha512(data + counter.to_bytes(4, "big")).digest()[:32]
            try:
                point = _decode(digest[:31] + bytes([digest[31] & 0x7F]))
            except ValueError:
                counter += 1
                continue
            cleared = _ext_scalar_mul(8, point)
            if _ext_equal(cleared, _IDENTITY_EXT):
                counter += 1
                continue
            return Ed25519Element(cleared, self)

    def _multi_exponentiate_terms(
        self, terms: Sequence[Tuple[GroupElement, int]]
    ) -> Ed25519Element:
        """Straus/Pippenger directly on extended coordinates.

        Working on raw ``(X, Y, Z, T)`` tuples skips the per-step
        :class:`Ed25519Element` wrapper churn.  Point negation is a single
        field negation, so inversion is effectively free and the planner is
        told so — signed-digit Pippenger (half the buckets) becomes
        attractive at much smaller batch sizes than for mod-p groups.  The
        naive alternative is the double-and-add ladder above (≈1.5·|q|
        additions per term), so multi-exp wins from two terms up.
        """
        values: List[Extended] = [base._point for base, _ in terms]  # type: ignore[attr-defined]
        scalars = [scalar for _, scalar in terms]
        max_bits = max(scalar.bit_length() for scalar in scalars)
        plan = plan_multi_exponentiation(
            len(terms),
            max_bits,
            exponentiate_cost=1.5 * max_bits,
            invert_cost=_NEGATE_COST,
        )
        result = execute_plan(
            _EXTENDED_OPS,
            values,
            scalars,
            plan,
            lambda point, scalar: _ext_scalar_mul(scalar, point),
        )
        return Ed25519Element(result, self)

    def _shared_base_powers(self, base: GroupElement, scalars: Sequence[int]) -> List[GroupElement]:
        """One ladder of extended-coordinate rungs, signed digits (negation is free).

        Against the ≈1.5·|q| additions of a double-and-add power the ladder
        wins from two scalars up; a lone scalar stays on
        :meth:`Ed25519Element.exponentiate`.
        """
        max_bits = max((scalar.bit_length() for scalar in scalars), default=0)
        plan = plan_shared_base_powers(
            len(scalars), max_bits, exponentiate_cost=1.5 * max_bits, invert_cost=_NEGATE_COST
        )
        if plan.algorithm == "naive":
            return [base.exponentiate(scalar) for scalar in scalars]
        points = shared_base_powers(_EXTENDED_OPS, base._point, scalars, plan.window)  # type: ignore[attr-defined]
        return [Ed25519Element(point, self) for point in points]

    def __reduce__(self):
        # Resolve to the per-process singleton on unpickling so elements that
        # cross a ProcessExecutor boundary keep a consistent group instance.
        return (ed25519_group, ())


@lru_cache(maxsize=None)
def ed25519_group() -> Ed25519Group:
    """The shared edwards25519 group instance."""
    return Ed25519Group()
