"""Multiplicative (Schnorr) subgroups of Z_p* as a :class:`~repro.crypto.group.Group`.

Two roles in the reproduction:

* ``modp_group_2048`` / ``modp_group_3072`` are the large-modulus settings
  (§7.3 of the paper attributes a large part of Civitas' slowness to
  large-modulus primitives versus elliptic curves).  Fig. 5's Civitas cost
  kernel does not use them: it keeps Civitas's own safe-prime parameters
  (``benchmarks/figures/baselines/civitas.py``).
* ``testing_group`` is a small, fast, **insecure** group used to keep the unit
  tests quick.  Its parameters are clearly labelled and must never be used
  outside tests.

Every group here is the order-``q`` subgroup of Z_p* for a prime ``q`` dividing
``p − 1``; the presets come in two shapes, and each decodes by its own rule:

* **Safe primes** (``p = 2q + 1``): ``modp_group_256`` and ``testing_group``.
  The subgroup is the quadratic residues and the cofactor is 2, so the only
  non-members in ``[1, p)`` are the non-residues.  Decode checks the length
  and the range ``1 ≤ x < p`` and computes no power (ROADMAP item 2 decides
  one rule for every mod-p group); hashing squares a field element.
* **Schnorr groups with a 256-bit** ``q`` (``p = k·q + 1``): ``modp_group_2048``
  and ``modp_group_3072``.  A 2048-bit field gives about 112-bit security
  whatever ``q`` is, and NIST SP 800-57 Part 1 (Table 2) pairs L = 2048 with a
  224- or 256-bit N, so every exponent is 256 bits instead of 2047.  The
  cofactor ``(p − 1)/q`` is 1 792 or 2 816 bits, so Z_p* has elements of small
  order that a voter could submit to confine a key power to a small subgroup
  (Lim and Lee): decode also checks ``x^q = 1`` — one 256-bit power — and
  hashing raises to the cofactor.

The Schnorr presets are derived from :data:`SCHNORR_SEED` in the style of
FIPS 186-4 §A.1.1.2: ``q`` is the first prime among ``SHA-256(seed ‖ "q" ‖
counter)`` with its top and bottom bits set, ``p = X − (X mod 2q − 1)`` over a
hash-expanded ``X`` of the field's size, and ``g = h^((p − 1)/q) ≠ 1``.
``python tools/derive_modp_groups.py --check`` re-runs the search and fails
unless it lands on the constants checked in below; the tests only re-check
the constants (primes, sizes, ``q | p − 1``, ``g ≠ 1``, ``g^q = 1``).
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
    """The order-q subgroup of Z_p* for primes q and p with q | p − 1.

    ``p = 2q + 1`` (a safe prime) or ``p = k·q + 1`` with a cofactor ``k > 2``
    (a Schnorr group); the cofactor decides what decode checks (the module
    docstring), and is read once, here.

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
        # Beyond the safe primes' cofactor 2, Z_p* holds small-order elements
        # a range check lets through: decode must prove membership.
        self._decode_checks_membership = (int(modulus) - 1) // order > 2
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
        a value in ``[1, p)`` and, in a Schnorr group (cofactor above 2), a
        subgroup member: ``x^q = 1``.  A safe-prime group computes no power
        here, so a non-residue still decodes (ROADMAP item 2)."""
        if len(data) != self.element_bytes:
            raise ValueError(f"a {self.name} element encoding is {self.element_bytes} bytes")
        value = int.from_bytes(data, "big")
        if not 1 <= value < self.modulus:
            raise ValueError("encoded value outside the field")
        element = ModPElement(value, self)
        if self._decode_checks_membership and not self.is_member(element):
            raise ValueError(f"encoded value outside the {self.name} subgroup")
        return element

    def hash_to_element(self, data: bytes) -> ModPElement:
        """Hash into the subgroup by raising a field element derived from data to the cofactor ``(p − 1)/q``."""
        digest = hashlib.sha512(data).digest()
        candidate = int.from_bytes(digest, "big") % self.modulus
        if candidate == 0:
            candidate = 1
        cofactor = (int(self.modulus) - 1) // self._order
        return ModPElement(self._backend.powmod(candidate, cofactor, self.modulus), self)

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

        ========  =====  =========  ============  =================
        modulus   |s|    a·b % p    pow(a, s, p)  pow / mulmod / |s|
        ========  =====  =========  ============  =================
        256 bit   255    0.48 µs    125 µs        1.02
        2048 bit  2047   12.4 µs    26.0 ms       1.03
        3072 bit  3071   24.4 µs    79.5 ms       1.06
        2048 bit  256    16.0 µs    4.10 ms       1.00
        3072 bit  256    29.7 µs    8.34 ms       1.10
        ========  =====  =========  ============  =================

        The last two rows are the Schnorr presets' own 256-bit exponents
        (best of 7, one process, a host about 25 % slower than the first
        three rows').  One
        multiplication a scalar bit at every size: CPython's ``pow`` is a
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

#: The published seed the modp-2048 and modp-3072 parameters are derived from:
#: ``python tools/derive_modp_groups.py --check`` re-derives both and compares
#: them with the constants below (the module docstring gives the recipe).
SCHNORR_SEED = b"repro: Votegral/TRIP modp Schnorr groups, 256-bit q"

# One 256-bit prime ``q`` shared by both Schnorr presets and, for each field
# size, the prime ``p = k·q + 1`` and generator ``g = h^((p - 1)/q)`` the seed
# derives.
_SCHNORR_Q = int(
    "A0ADC27E7E7E4EBC1FE878D0B53A626807E727BE31D7EDF6B92F883A239B0961",
    16,
)

_SCHNORR_2048_P = int(
    "84861997178A3336BA9C52727AED3B47462920432AA773BD5E791AEDAABF95D1"
    "0DEC844AE40DCC5F9A672D8A92766D0DAF54512279F14018A480690A0A924C06"
    "47B710CAE4C994A19705443D33544866464325B369F83C5706D99BC159685532"
    "A3639AB48CB399F77862201D0A414B1E87B54983E808631590300DB778C0E2E6"
    "01C4987C3F6856EFC1E1B853C638621885DAC095BF84D0B23132B746FC94136B"
    "74F011C48FD47D1E2B822E496BE36ABC959C81F85ACA37E1E0EBF3CDE308A240"
    "7BB7F3A04E3209BC8B8321F2BFBFCD7FF08D5D11D57E1E70C2BE3A03AFC23432"
    "A3B68AAA8FCFFFC303B02D244A6EB420E20E66E302EBAA7E16CA192AE300C879",
    16,
)
_SCHNORR_2048_G = int(
    "13F7AE628A12813172A3F1F6E0DE62A005F52BC05C59D07DB797BE89484191BD"
    "6FF4FAFB205FD85F2CF721A49757776B040043A4945E3D3CC1A66D4D1AEEE953"
    "D5BD30E1EFBF1AD4344CC4909C86DCEA0CF30AFE314CFEEE1C5F45F64E37860E"
    "83ED582FCEB3A38F4FB3140B428F331DE6C284B3112981820A31D2805895FD09"
    "498EF430A18F23BFCF34465C35D60DAF7F089C92D8DD2B92910062ECD0B3CDBD"
    "E779839614FCDF652C3B35DCA039668F9EF8C7EE7897050C9B5580879D184D17"
    "E188040EB8CF5DD7CC7E2BEF437B054373387F2D5C4913AE38C19C9E01C9DBA6"
    "52CB5473B60CEE84954F6C1324131C7869DC408D91AD22C5FE34B79A85058DE4",
    16,
)

_SCHNORR_3072_P = int(
    "CE1E7E9882935E999945D47BBB5BDEE3F5810C812CBB7267B8C3C7A7EC87273B"
    "71B658328F93A3D992D1EB6183F943BBE91574A80BC8E065B4E6DA6B7B877C40"
    "7E165E518397DFAEB4893795E6968BAF538D2F92AB9283D6F51DB6A3FFDDA711"
    "80C9EDC85B28596A71820B8EC2014930C39EE481FA9C7CFCDA681D8F5D628433"
    "AEA2DC28BB5221C149FCCF0582E8645A23F5654BF2A52A995B63D542A2FCECEF"
    "3293149996E46DFAA7638245C690B1248741EF299D9D8FAEA188386BCC9F4DD9"
    "8D4EFBA13DAAE4B3AE052B50CED0D1A68116CEB4B538D5AC8084E3B45A95E9D4"
    "9AA78E6E9895A408F4460DCB456585211CE3E8D5C19796F9BA6C329D18F27B65"
    "56610A40458927550797C8F96962BDF458BA9491279F3B8F34967DD60213E26F"
    "7833815C8BFACD5916F450D380A5E45F19F29EC43ED491F4F218CA6255390106"
    "13AE613D1E6DF152CE44FF1832297DF32C4B95A5EFA9299509CEF1C3A27CCA30"
    "F9434FB91EC8390AD9124F3ACE624B56396E0A0186DC0A2B48D2F16BF1CF6AD5",
    16,
)
_SCHNORR_3072_G = int(
    "4C09B97CC4897D335BDA9AED2D051AB341B360CB9FFED2B7F721F8AC7D411CA3"
    "6ED040A7B0AA5A2EF1210C7FFFD8E528DA6304FEECFA6402A4E659BA89433C24"
    "F6EBAC03B1D457F0F5AECF628D2C8AE004ABDF8FAB52B6482A30E47DBB6DE2FC"
    "68E80E3C2A1D5A0783FD582DD0F925A0F6BC33419DD9D59CB2C8F00CD7814CC1"
    "62816C10D62A18F69D931C118879F50C8D3CA63ABA997F19F95FD460F2F7A5FA"
    "0698F97822A81D4CC105BB2E686647C482C4ADEE8E0B7BE683526A1D1283D468"
    "C2396A835AC52782D417740670E82FEAD6BE66E8CD260FDC4EA4A01FC49C5A22"
    "AB2FC32BE3DF2CF50B8C3EF88D266AD8CB4530CAD42D649833BD8F51C0CAB900"
    "CD6052117A19BDDC64950AC986BE281D8C63D895751D674C69AE34BE40254AA9"
    "A8B450EE66AD2C4C1A31D66B3039CEBFF3CECC362C7696C964776DDF269F2660"
    "457450F1935B88A3E1CED1EF8B80D9BDEC389312DADD4136786B214728FCCBD8"
    "68CB001A0C55813C60C04AB0B2B6ECD86E066702DB384952325B3292574D126E",
    16,
)

#: ``(p, q, g)`` of each Schnorr preset, by field size.
SCHNORR_PRESETS = {
    2048: (_SCHNORR_2048_P, _SCHNORR_Q, _SCHNORR_2048_G),
    3072: (_SCHNORR_3072_P, _SCHNORR_Q, _SCHNORR_3072_G),
}

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
    """The 2048-bit large-modulus group: a Schnorr group with a 256-bit order."""
    return _group_from_params("modp-2048", *SCHNORR_PRESETS[2048])


@lru_cache(maxsize=None)
def modp_group_3072() -> ModPGroup:
    """A 3072-bit large-modulus group (higher-security Civitas setting), also of 256-bit order."""
    return _group_from_params("modp-3072", *SCHNORR_PRESETS[3072])


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
