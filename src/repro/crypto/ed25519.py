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

Arithmetic is on extended homogeneous coordinates ``(X, Y, Z, T)``: a unified
addition (nine field products), a dedicated doubling that reads no ``T``
(dbl-2008-hwcd, seven products inside a run of doublings), and Euclid's
``pow(z, -1, p)`` for the one inversion an encode or a decode needs.  The
plain power is :func:`repro.crypto.multiexp.signed_window_power` over those
operations — 253 doublings and about fifty additions, ≈1.1 ms in CPython —
and the same four operations (:data:`_EXTENDED_OPS`) are what Straus,
Pippenger, the shared-base ladder and the fixed-base tables run on.

The two kernels that do the work, :func:`_ext_add` and :func:`_ext_advance`,
never divide by ``p``: since ``2^255 ≡ 19 (mod p)`` they *fold* each product
(:data:`_MASK`), and what they return is weakly reduced — congruent mod ``p``
to the textbook result and below ``2^256`` in absolute value, sign either
way.  An :class:`Ed25519Element` normalises its coordinates to ``[0, p)``
once, when it is made, so pickled elements carry residues only.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.crypto.group import Group, GroupElement
from repro.crypto.multiexp import GroupOps, KernelCosts, signed_window_power

# Field and curve constants ---------------------------------------------------

_P = 2**255 - 19
_Q = 2**252 + 27742317777372353535851937790883648493
_D = (-121665 * pow(121666, -1, _P)) % _P
_D2 = 2 * _D % _P

_BASE_Y = (4 * pow(5, -1, _P)) % _P


_SQRT_M1 = pow(2, (_P - 1) // 4, _P)

#: The low 255 bits.  Since ``2^255 ≡ 19 (mod p)``, a product ``t`` folds to
#: ``(t & _MASK) + 19 * (t >> 255)``: congruent, 255 bits shorter, and a mask,
#: a shift and a small product where ``t % _P`` is a long division.  ``>>``
#: floors, so a negative ``t`` folds too.  With inputs below ``2^256`` in
#: absolute value a kernel's products stay below ``2^529``; one fold brings
#: them below ``2^278`` and a second into ``(−2^28, 2^255 + 2^28)``.
_MASK = (1 << 255) - 1


def _recover_x(y: int, sign: int) -> int:
    """Recover the x coordinate from y and the sign bit (RFC 8032 §5.1.3)."""
    if y >= _P:
        raise ValueError("y coordinate out of range")
    y2 = (y * y) % _P
    x2 = (y2 - 1) * pow(_D * y2 + 1, -1, _P) % _P
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
    """Unified point addition on the twisted Edwards curve (a = -1).

    Every product is reduced by folding (:data:`_MASK`): once for the four
    that feed sums, twice for the four coordinates returned.
    """
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2)
    a = (a & _MASK) + 19 * (a >> 255)
    b = (y1 + x1) * (y2 + x2)
    b = (b & _MASK) + 19 * (b >> 255)
    c = t1 * t2
    c = ((c & _MASK) + 19 * (c >> 255)) * _D2
    c = (c & _MASK) + 19 * (c >> 255)
    d = 2 * z1 * z2
    d = (d & _MASK) + 19 * (d >> 255)
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    x3 = e * f
    x3 = (x3 & _MASK) + 19 * (x3 >> 255)
    y3 = g * h
    y3 = (y3 & _MASK) + 19 * (y3 >> 255)
    z3 = f * g
    z3 = (z3 & _MASK) + 19 * (z3 >> 255)
    t3 = e * h
    t3 = (t3 & _MASK) + 19 * (t3 >> 255)
    return (
        (x3 & _MASK) + 19 * (x3 >> 255),
        (y3 & _MASK) + 19 * (y3 >> 255),
        (z3 & _MASK) + 19 * (z3 >> 255),
        (t3 & _MASK) + 19 * (t3 >> 255),
    )


def _ext_advance(point: Extended, k: int) -> Extended:
    """``point`` doubled ``k`` times (dbl-2008-hwcd with a = -1).

    A doubling reads no ``T``, so a run of them forms it once, at the end:
    seven products a doubling and one a run, against nine for an addition.
    Folded as :func:`_ext_add` is: once for ``x²``, ``y²``, ``2xy`` and
    ``2z²``, twice for the coordinates every doubling hands on.
    """
    if k < 1:
        return point
    x, y, z, _ = point
    for _ in range(k):
        a = x * x
        a = (a & _MASK) + 19 * (a >> 255)
        b = y * y
        b = (b & _MASK) + 19 * (b >> 255)
        e = 2 * x * y
        e = (e & _MASK) + 19 * (e >> 255)
        f = 2 * z * z
        g = b - a
        f = g - (f & _MASK) - 19 * (f >> 255)
        h = -a - b
        x = e * f
        x = (x & _MASK) + 19 * (x >> 255)
        x = (x & _MASK) + 19 * (x >> 255)
        y = g * h
        y = (y & _MASK) + 19 * (y >> 255)
        y = (y & _MASK) + 19 * (y >> 255)
        z = f * g
        z = (z & _MASK) + 19 * (z >> 255)
        z = (z & _MASK) + 19 * (z >> 255)
    t = e * h
    t = (t & _MASK) + 19 * (t >> 255)
    return (x, y, z, (t & _MASK) + 19 * (t >> 255))


def _ext_double(p: Extended) -> Extended:
    return _ext_advance(p, 1)


def _ext_negate(p: Extended) -> Extended:
    x, y, z, t = p
    return ((-x) % _P, y, z, (-t) % _P)


def _ext_to_affine(p: Extended) -> Tuple[int, int]:
    x, y, z, _ = p
    zinv = pow(z, -1, _P)
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
    y = raw & _MASK
    if y >= _P:
        raise ValueError("y coordinate out of range")
    x = _recover_x(y, sign)
    return (x, y, 1, (x * y) % _P)


#: The kernels' view of the curve: raw ``(X, Y, Z, T)`` tuples, no
#: :class:`Ed25519Element` wrappers.  No ``power``: the plain power *is* the
#: signed-window kernel over these four.
_EXTENDED_OPS = GroupOps(
    identity=_IDENTITY_EXT,
    multiply=_ext_add,
    advance=_ext_advance,
    invert=_ext_negate,
)


def _ext_scalar_mul(scalar: int, point: Extended) -> Extended:
    """``scalar · point`` for a non-negative scalar, taken as given (the subgroup check passes ``_Q`` itself)."""
    return signed_window_power(_EXTENDED_OPS, point, scalar)


#: What the planners are told, in units of one :func:`_ext_add`.  Measured
#: once (CPython 3.11, 2 vCPUs, best of 4 processes) and checked in — nothing
#: is timed at import:
#:
#:     _ext_add                          3.96 µs   1
#:     doubling, alone / in a run        3.9 / 3.2 µs   0.8 (0.99 / 0.81)
#:     _ext_negate                       0.28 µs   0.07 (told 0.1)
#:     plain power, 253-bit scalar       1.09 ms   275 (the kernel's own count: 253)
#:     a fixed-base comb lookup's loop   0.05 µs   0.013 (told 0.01)
#:
#: A doubling in a run is within 10 % of the squaring price told.  No
#: ``exponentiate``: the plain power is the signed-window kernel, which the
#: planners price from its operation count.  Negation is nearly free, so
#: Pippenger and the shared-base ladder both sign their digits; against
#: K = 2 / 4 / 8 plain powers a ladder runs at 0.68× / 0.46× / 0.36×.  The
#: comb geometry (8 teeth, 4 blocks, step 8) holds for any lookup price from
#: 0 to 0.03.
_COSTS = KernelCosts(square=0.8, invert=0.1, lookup=0.01)

#: Encodings remembered by :meth:`Ed25519Group.element_from_bytes` before it
#: starts over (the keys of a few thousand QR codes; nothing tunes it).
_MAX_DECODED = 4096


class Ed25519Element(GroupElement):
    """A point in the prime-order subgroup of edwards25519."""

    __slots__ = ("_point", "_group", "_encoding")

    def __init__(self, point: Extended, group: "Ed25519Group"):
        x, y, z, t = point
        self._point = (x % _P, y % _P, z % _P, t % _P)
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
        return Ed25519Element(_ext_scalar_mul(scalar % _Q, self._point), self._group)

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
    kernel_ops = _EXTENDED_OPS

    def __init__(self) -> None:
        self._generator = Ed25519Element(_BASE_EXT, self)
        self._identity = Ed25519Element(_IDENTITY_EXT, self)
        self._decoded: Dict[bytes, Ed25519Element] = {}

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
        """Decode a point and check it lies in the prime-order subgroup.

        The check is a scalar multiplication by the (unreduced) group order,
        several times the cost of the decoding itself, and the same few keys
        recur in every QR code — so accepted encodings are remembered, up to
        :data:`_MAX_DECODED` of them.  An accepted encoding is canonical, so
        the element starts out knowing its bytes.
        """
        data = bytes(data)
        element = self._decoded.get(data)
        if element is None:
            point = _decode(data)
            if not _ext_equal(_ext_scalar_mul(_Q, point), _IDENTITY_EXT):
                raise ValueError("point is not in the prime-order subgroup")
            element = Ed25519Element(point, self)
            element._encoding = data
            if len(self._decoded) >= _MAX_DECODED:
                self._decoded.clear()
            self._decoded[data] = element
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
            cleared = _ext_advance(point, 3)
            if _ext_equal(cleared, _IDENTITY_EXT):
                counter += 1
                continue
            return Ed25519Element(cleared, self)

    def kernel_costs(self, scalar_bits: int) -> Optional[KernelCosts]:
        return _COSTS

    def wrap(self, value: Extended) -> Ed25519Element:
        return Ed25519Element(value, self)

    def unwrap(self, element: GroupElement) -> Extended:
        return element._point  # type: ignore[attr-defined]

    def __reduce__(self):
        # Resolve to the per-process singleton on unpickling so elements that
        # cross a cluster frame keep a consistent group instance.
        return (ed25519_group, ())


@lru_cache(maxsize=None)
def ed25519_group() -> Ed25519Group:
    """The shared edwards25519 group instance."""
    return Ed25519Group()
