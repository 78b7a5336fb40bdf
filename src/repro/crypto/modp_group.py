"""Multiplicative (Schnorr) subgroups of Z_p* as a :class:`~repro.crypto.group.Group`.

Two roles in the reproduction:

* ``modp_group_2048`` / ``modp_group_3072`` model the "large-modulus
  primitives" the Civitas implementation uses (§7.3 of the paper attributes a
  large part of Civitas' slowness to this choice versus elliptic curves).
* ``testing_group`` is a small, fast, **insecure** group used to keep the unit
  tests quick.  Its parameters are clearly labelled and must never be used
  outside tests.

A Schnorr group is the order-``q`` subgroup of Z_p* where ``p = 2q·r + 1``.
We use safe primes (``p = 2q + 1``) so every quadratic residue generates the
subgroup, which makes hashing to the group trivial (square the hash).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Any, Optional

from repro.crypto import bigint
from repro.crypto.group import Group, GroupElement
from repro.crypto.multiexp import GroupOps, KernelCosts

#: Below this subgroup-order size, CPython's native ``pow`` beats any
#: Python-level multi-exponentiation (interpreter overhead dominates small
#: bigint arithmetic), so `multi_exponentiate` stays on the naive per-term
#: loop.  Mirrors ``repro.runtime.precompute.MIN_ORDER_BITS``.
MULTIEXP_MIN_ORDER_BITS = 192


class ModPElement(GroupElement):
    """An element of a Schnorr subgroup, stored as an integer mod p.

    The integer type is the group's big-integer backend value
    (:mod:`repro.crypto.bigint`): plain ``int`` by default, ``gmpy2.mpz``
    when the gmpy2 backend is active.  Both hash and compare identically and
    encode to the same canonical bytes.
    """

    __slots__ = ("_value", "_group")

    def __init__(self, value: int, group: "ModPGroup"):
        # ``modulus`` is a backend value, so the reduction also converts
        # plain-int inputs into the backend's representation.
        self._value = value % group.modulus
        self._group = group

    @property
    def value(self) -> int:
        return self._value

    @property
    def group(self) -> "ModPGroup":
        return self._group

    def operate(self, other: GroupElement) -> "ModPElement":
        if not isinstance(other, ModPElement) or other._group is not self._group:
            raise TypeError("cannot combine elements from different groups")
        return ModPElement((self._value * other._value) % self._group.modulus, self._group)

    def exponentiate(self, scalar: int) -> "ModPElement":
        group = self._group
        return ModPElement(
            group._backend.powmod(self._value, scalar % group.order, group.modulus), group
        )

    def inverse(self) -> "ModPElement":
        return ModPElement(self._group._backend.invert(self._value, self._group.modulus), self._group)

    def to_bytes(self) -> bytes:
        return int(self._value).to_bytes(self._group.element_bytes, "big")

    def __reduce__(self):
        # Normalise to a plain int for transport: a pickled element must
        # unpickle in processes whose bigint backend differs (a cluster may
        # mix gmpy2 and pure-python workers).
        return (ModPElement, (int(self._value), self._group))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ModPElement)
            and other._group is self._group
            and other._value == self._value
        )

    def __hash__(self) -> int:
        return hash((id(self._group), self._value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModPElement({self._value:#x})"


class ModPGroup(Group):
    """The order-q subgroup of Z_p* for a safe prime p = 2q + 1.

    Arithmetic runs on the process-wide big-integer backend
    (:func:`repro.crypto.bigint.active_backend`): the modulus and all element
    values are backend values, and exponentiation/inversion route through the
    backend's ``powmod``/``invert``.  The backend is captured at construction
    time, which is why switching backends requires rebuilding the group
    singletons (see :func:`repro.crypto.bigint.set_active_backend`).
    """

    def __init__(self, name: str, modulus: int, order: int, generator: int):
        self.name = name
        self._backend = bigint.active_backend()
        self.modulus = self._backend.convert(modulus)
        self._order = order
        self.element_bytes = (int(modulus).bit_length() + 7) // 8
        self._generator = ModPElement(generator, self)
        self._identity = ModPElement(1, self)
        # The kernels' view of the group: bare backend integers mod ``p`` (no
        # per-step :class:`ModPElement` churn), the shared squaring chain
        # advanced by one native ``powmod(acc, 2**k, p)`` instead of ``k``
        # interpreted squarings.
        backend, modulus = self._backend, self.modulus
        self._kernel_ops = GroupOps(
            identity=backend.convert(1),
            multiply=lambda a, b: (a * b) % modulus,
            advance=lambda a, k: backend.powmod(a, 1 << k, modulus),
            invert=lambda a: backend.invert(a, modulus),
            power=lambda a, scalar: backend.powmod(a, scalar, modulus),
        )
        if self._backend.powmod(self._generator.value, order, self.modulus) != 1:
            raise ValueError("generator does not have the declared order")

    @property
    def order(self) -> int:
        return self._order

    @property
    def generator(self) -> ModPElement:
        return self._generator

    @property
    def identity(self) -> ModPElement:
        return self._identity

    def element(self, value: int) -> ModPElement:
        """Wrap a raw integer (assumed to be a subgroup member)."""
        return ModPElement(value, self)

    def element_from_bytes(self, data: bytes) -> ModPElement:
        """Decode the canonical encoding: exactly :attr:`element_bytes` bytes,
        a value in ``[1, p)``.  ``x^q = 1`` is not checked (ROADMAP item 2)."""
        if len(data) != self.element_bytes:
            raise ValueError(f"a {self.name} element encoding is {self.element_bytes} bytes")
        value = int.from_bytes(data, "big")
        if not 1 <= value < self.modulus:
            raise ValueError("encoded value outside the field")
        return ModPElement(value, self)

    def hash_to_element(self, data: bytes) -> ModPElement:
        """Hash into the subgroup by squaring a field element derived from data."""
        digest = hashlib.sha512(data).digest()
        candidate = int.from_bytes(digest, "big") % self.modulus
        if candidate == 0:
            candidate = 1
        return ModPElement(self._backend.powmod(candidate, 2, self.modulus), self)

    def is_member(self, element: ModPElement) -> bool:
        """Subgroup membership test: x^q == 1 mod p."""
        return self._backend.powmod(element.value, self._order, self.modulus) == 1

    @property
    def kernel_ops(self) -> GroupOps:
        return self._kernel_ops

    def kernel_costs(self, scalar_bits: int) -> Optional[KernelCosts]:
        """Planner constants calibrated for bigints: a squaring (and a native
        ``pow`` advancing the shared chain) ≈0.8 of an interpreted mulmod,
        and no price for an inversion, so Pippenger and the shared-base
        ladder both keep unsigned digits and never call ``pow(a, -1, p)``.

        An inverse is dearer than the buckets it would save.  Measured
        (CPython 3.11, 2 vCPUs, ``REPRO_BIGINT=python``; medians of 21
        paired best-of-3 readings, the ratio the median of the pairs'):

        ========  =========  =============  =======
        modulus   a·b % p    pow(a, -1, p)  ratio
        ========  =========  =============  =======
        256 bit   0.55 µs    21.8 µs        43×
        2048 bit  15.1 µs    431 µs         28×
        3072 bit  29.8 µs    916 µs         31×
        ========  =========  =============  =======

        Signed digits save half a window's bucket fold (``2^w``
        multiplications) and pay one inversion and a Python digit recoding
        a base: on the audit's 2 625-term fold of 128-bit weights (16
        windows of 8 bits) that is ≈ 4 100 multiplications saved against
        ≈ 113 000 spent.  gmpy2 is not installed where the table was taken;
        its inverse is unmeasured and declines the same way.

        Below :data:`MULTIEXP_MIN_ORDER_BITS` the native-pow loop is
        unbeatable from Python, so small (toy/test) groups keep it.
        """
        if self._order.bit_length() < MULTIEXP_MIN_ORDER_BITS:
            return None
        return KernelCosts(
            exponentiate=self._native_pow_cost(scalar_bits), square=0.8, lookup=self._lookup_cost()
        )

    def wrap(self, value: Any) -> ModPElement:
        return ModPElement(value, self)

    def unwrap(self, element: GroupElement) -> Any:
        return element.value  # type: ignore[attr-defined]

    def _native_pow_cost(self, scalar_bits: int) -> float:
        """One native ``pow`` in units of ``kernel_ops.multiply``, for the planners.

        Measured once (CPython 3.11, 2 vCPUs, ``REPRO_BIGINT=python``, best of
        7) and checked in — nothing is timed at import:

        ========  =========  ============  =================
        modulus   a·b % p    pow(a, s, p)  pow / mulmod / |s|
        ========  =========  ============  =================
        256 bit   0.48 µs    125 µs        1.02
        2048 bit  12.4 µs    26.0 ms       1.03
        3072 bit  24.4 µs    79.5 ms       1.06
        ========  =========  ============  =================

        One multiplication a scalar bit at every size: CPython's ``pow`` is a
        sliding window over the same ``long`` multiplication the kernels call,
        so a shared ladder already pays at 255 bits (0.82× / 0.59× / 0.44× of
        K = 2 / 4 / 8 native powers).  gmpy2 is not installed where the table
        was taken; its constants stand as first calibrated (0.87·bits at 2048
        bits, falling to 0.3·bits for small moduli).
        """
        if self._backend.name == "gmpy2":
            return scalar_bits * (0.3 + 0.57 * min(1.0, self.modulus.bit_length() / 2048))
        return float(scalar_bits)

    def _lookup_cost(self) -> float:
        """One fixed-base comb lookup's loop in units of ``kernel_ops.multiply``, for the comb planner.

        The loop costs ≈ 0.05 µs at any modulus (measured with a do-nothing
        multiply, :func:`repro.crypto.multiexp.plan_fixed_base_comb`); the
        multiplication it sits beside grows with the modulus (the ``a·b % p``
        column of :meth:`_native_pow_cost`'s table):

        ========  =========  ======
        modulus   a·b % p    lookup
        ========  =========  ======
        256 bit   0.48 µs    0.10
        2048 bit  12.4 µs    0.004
        3072 bit  24.4 µs    0.002
        ========  =========  ======

        ``0.1 · (256 / bits)^1.6`` follows the multiplication between those
        rows.  gmpy2 is not installed where this was measured, so its
        lookups are priced the same (unmeasured).
        """
        return 0.1 * (256 / self.modulus.bit_length()) ** 1.6

    def __reduce__(self):
        # Groups are compared by identity (``is``) in element operations, so
        # pickling — e.g. shipping work to a worker in a cluster frame —
        # must resolve back to the per-process canonical instance for these
        # parameters rather than construct a fresh object.  Parameters are
        # normalised to plain ints so the payload is backend-independent.
        return (
            _group_from_params,
            (self.name, int(self.modulus), self._order, int(self._generator.value)),
        )


# ---------------------------------------------------------------------------
# Parameter presets
# ---------------------------------------------------------------------------

# RFC 3526 MODP group 14 (2048-bit) prime.  It is not a safe prime of the form
# 2q+1 with prime q for the full group, but (p-1)/2 is prime for this modulus,
# so the quadratic-residue subgroup has prime order (p-1)/2.
_RFC3526_2048_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

# RFC 3526 MODP group 15 (3072-bit) prime.
_RFC3526_3072_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AAAC42DAD33170D04507A33"
    "A85521ABDF1CBA64ECFB850458DBEF0A8AEA71575D060C7DB3970F85A6E1E4C7"
    "ABF5AE8CDB0933D71E8C94E04A25619DCEE3D2261AD2EE6BF12FFA06D98A0864"
    "D87602733EC86A64521F2B18177B200CBBE117577A615D6C770988C0BAD946E2"
    "08E24FA074E5AB3143DB5BFCE0FD108E4B82D120A93AD2CAFFFFFFFFFFFFFFFF",
    16,
)

# A 256-bit Schnorr group with a safe prime, generated offline.  Used as the
# "elliptic-curve-equivalent small group" when Ed25519 is too slow for a given
# workload; its exponent size (≈255 bits) matches the paper's curve order.
_SAFE_256_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF72EF
_SAFE_256_Q = (_SAFE_256_P - 1) // 2

# Small toy parameters for tests: p = 2q+1 with q prime (63-bit p).  NOT SECURE.
_TOY_P = 9223372036854771239
_TOY_Q = (_TOY_P - 1) // 2


def _quadratic_residue_generator(p: int) -> int:
    """Return a generator of the quadratic-residue subgroup of Z_p*."""
    return pow(2, 2, p) if pow(2, (p - 1) // 2, p) != 1 else 2


@lru_cache(maxsize=None)
def _group_from_params(name: str, modulus: int, order: int, generator: int) -> ModPGroup:
    """The canonical (per-process) group instance for a parameter set.

    Both the preset factories below and :meth:`ModPGroup.__reduce__` resolve
    through this cache, so elements that round-trip through pickle (process
    executors) land back on the same group object as locally created ones.
    """
    return ModPGroup(name, modulus, order, generator)


@lru_cache(maxsize=None)
def modp_group_2048() -> ModPGroup:
    """The 2048-bit "Civitas-style" large-modulus group."""
    p = _RFC3526_2048_P
    q = (p - 1) // 2
    return _group_from_params("modp-2048", p, q, _quadratic_residue_generator(p))


@lru_cache(maxsize=None)
def modp_group_3072() -> ModPGroup:
    """A 3072-bit large-modulus group (higher-security Civitas setting)."""
    p = _RFC3526_3072_P
    q = (p - 1) // 2
    return _group_from_params("modp-3072", p, q, _quadratic_residue_generator(p))


@lru_cache(maxsize=None)
def modp_group_256() -> ModPGroup:
    """A 256-bit safe-prime group whose exponent size matches edwards25519."""
    if not _is_probable_prime(_SAFE_256_Q) or not _is_probable_prime(_SAFE_256_P):
        raise RuntimeError("256-bit preset parameters are not prime")  # pragma: no cover
    return _group_from_params("modp-256", _SAFE_256_P, _SAFE_256_Q, _quadratic_residue_generator(_SAFE_256_P))


@lru_cache(maxsize=None)
def testing_group() -> ModPGroup:
    """A tiny, fast, **insecure** group for unit tests only."""
    if not _is_probable_prime(_TOY_Q) or not _is_probable_prime(_TOY_P):
        raise RuntimeError("testing group parameters are not prime")  # pragma: no cover
    return _group_from_params("modp-toy-INSECURE", _TOY_P, _TOY_Q, _quadratic_residue_generator(_TOY_P))


testing_group.__test__ = False  # type: ignore[attr-defined]  # test modules import it; pytest must not collect it


def _reset_group_caches() -> None:
    """Drop the canonical group instances (bigint backend switched).

    Registered with :func:`repro.crypto.bigint.register_reset_hook`; groups
    constructed after a backend switch must capture the new backend, and the
    cached singletons hold the old one.
    """
    _group_from_params.cache_clear()
    modp_group_2048.cache_clear()
    modp_group_3072.cache_clear()
    modp_group_256.cache_clear()
    testing_group.cache_clear()


bigint.register_reset_hook(_reset_group_caches)


def _is_probable_prime(n: int, rounds: int = 20) -> bool:
    """Miller–Rabin primality test (deterministic witnesses + random rounds)."""
    if n < 2:
        return False
    small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for p in small_primes:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    import random

    # Witnesses are drawn from an RNG seeded by the candidate itself: the
    # same n always gets the same witness set, so a primality verdict is
    # replayable across processes and schedules (REP002).  Soundness is
    # unchanged — Miller-Rabin only needs witnesses the adversary cannot
    # choose *after* seeing n, and group moduli here are fixed constants.
    rng = random.Random(n)
    witnesses = small_primes + [rng.randrange(2, n - 1) for _ in range(rounds)]
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True
