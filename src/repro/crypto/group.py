"""Abstract cyclic-group interface used throughout the library.

TRIP, Votegral and all baselines are written against this interface so that
the same protocol code runs over Edwards25519 (the paper's curve), a 2048-bit
mod-p Schnorr group (the "large modulus" setting Civitas uses), or a small
insecure group used to keep unit tests fast.

A :class:`Group` exposes the usual prime-order-group API:

* the order ``q`` and a fixed generator ``g``;
* scalar arithmetic mod ``q`` (plain Python integers);
* element operations: multiply (group operation), exponentiation, inverse;
* hashing to scalars and encoding elements to bytes.

Elements are immutable value objects (:class:`GroupElement`) that carry a
reference to their group, support ``*`` (group operation), ``**`` (scalar
exponentiation), ``==`` and hashing, and serialize via :meth:`GroupElement.to_bytes`.
"""

from __future__ import annotations

import abc
import hashlib
import secrets
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.crypto.multiexp import (
    GroupOps,
    KernelCosts,
    collapse_terms,
    execute_plan,
    plan_multi_exponentiation,
    plan_shared_base_powers,
    shared_base_powers,
)

# An optional accelerator for generator exponentiations, installed by
# :mod:`repro.runtime.precompute` (fixed-base tables).  The hook returns
# ``None`` when it declines (disabled, small group), in which case the plain
# square-and-multiply reference path runs.  Kept as a late-bound module
# global so the crypto layer has no import-time dependency on the runtime.
_power_accelerator: Optional[Callable[["Group", int], Optional["GroupElement"]]] = None


def set_power_accelerator(
    hook: Optional[Callable[["Group", int], Optional["GroupElement"]]],
) -> None:
    """Install (or clear, with ``None``) the fixed-base generator accelerator."""
    global _power_accelerator
    _power_accelerator = hook


class GroupElement(abc.ABC):
    """A single element of a cyclic group.

    Concrete backends subclass this with their internal representation
    (an integer mod p, or a curve point).  All elements are immutable.
    """

    __slots__ = ()

    @property
    @abc.abstractmethod
    def group(self) -> "Group":
        """The group this element belongs to."""

    @abc.abstractmethod
    def operate(self, other: "GroupElement") -> "GroupElement":
        """Group operation (written multiplicatively)."""

    @abc.abstractmethod
    def exponentiate(self, scalar: int) -> "GroupElement":
        """Raise this element to ``scalar`` (mod the group order)."""

    @abc.abstractmethod
    def inverse(self) -> "GroupElement":
        """The inverse element."""

    @abc.abstractmethod
    def to_bytes(self) -> bytes:
        """A canonical, fixed-length byte encoding."""

    @abc.abstractmethod
    def __eq__(self, other: object) -> bool: ...

    @abc.abstractmethod
    def __hash__(self) -> int: ...

    # Operator sugar -------------------------------------------------------

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.operate(other)

    def __truediv__(self, other: "GroupElement") -> "GroupElement":
        return self.operate(other.inverse())

    def __pow__(self, scalar: int) -> "GroupElement":
        return self.exponentiate(scalar)


class Group(abc.ABC):
    """A cyclic group of prime order ``q`` with a fixed generator ``g``."""

    name: str

    @property
    @abc.abstractmethod
    def order(self) -> int:
        """The prime order q of the group."""

    @property
    @abc.abstractmethod
    def generator(self) -> GroupElement:
        """The fixed generator g."""

    @property
    @abc.abstractmethod
    def identity(self) -> GroupElement:
        """The neutral element."""

    @abc.abstractmethod
    def element_from_bytes(self, data: bytes) -> GroupElement:
        """Decode a canonical encoding produced by :meth:`GroupElement.to_bytes`."""

    @abc.abstractmethod
    def hash_to_element(self, data: bytes) -> GroupElement:
        """Deterministically derive a group element from ``data``.

        Used for independent generators (Pedersen commitments, shuffle proofs)
        whose discrete log relative to ``g`` must be unknown.
        """

    # Scalar helpers ---------------------------------------------------------

    def random_scalar(self) -> int:
        """A uniform scalar in [1, q-1]."""
        return secrets.randbelow(self.order - 1) + 1

    def hash_to_scalar(self, *parts: bytes) -> int:
        """Hash arbitrary byte strings to a scalar in [0, q-1] (Fiat–Shamir)."""
        h = hashlib.sha512()
        for part in parts:
            h.update(len(part).to_bytes(8, "big"))
            h.update(part)
        return int.from_bytes(h.digest(), "big") % self.order

    def scalar_from_bytes(self, data: bytes) -> int:
        return int.from_bytes(data, "big") % self.order

    # Convenience ------------------------------------------------------------

    def power(self, scalar: int) -> GroupElement:
        """g**scalar for the fixed generator (fixed-base accelerated when hot)."""
        hook = _power_accelerator
        if hook is not None:
            result = hook(self, scalar)
            if result is not None:
                return result
        return self.generator.exponentiate(scalar)

    def encode_int(self, value: int) -> GroupElement:
        """Map a small non-negative integer to a group element as g**value.

        Exponential encoding: homomorphic addition of plaintexts corresponds to
        multiplication of ciphertexts.  Decoding requires a small-range discrete
        log (see :meth:`decode_int`).
        """
        if value < 0:
            raise ValueError("encode_int expects a non-negative integer")
        return self.power(value)

    def decode_int(self, element: GroupElement, max_value: int = 10_000) -> int:
        """Brute-force the small discrete log of ``element`` base ``g``.

        **Cost: O(max_value) group operations in the worst case.**  The probe
        walks ``identity, g, g², …`` one multiplication at a time, and the
        walk restarts from the identity on *every* call — there is no cache
        shared between call sites, so decoding ``k`` elements costs
        ``O(k · max_value)``.  Callers decoding many elements against the
        same range (exponential-ElGamal tallies) should keep ``max_value``
        as tight as the plaintext domain allows (e.g. ``num_options - 1``).

        Raises :class:`ValueError` if the value is not in [0, max_value].
        """
        if max_value == 0:
            # Short-circuit the degenerate range: no probe chain to walk.
            if element == self.identity:
                return 0
            raise ValueError("element does not encode an integer in range")
        probe = self.identity
        g = self.generator
        for candidate in range(max_value + 1):
            if probe == element:
                return candidate
            probe = probe.operate(g)
        raise ValueError("element does not encode an integer in range")

    def multi_exponentiate(
        self, bases: Sequence[GroupElement], scalars: Sequence[int]
    ) -> GroupElement:
        """Product of ``bases[i] ** scalars[i]`` via Straus/Pippenger.

        The workhorse behind every random-linear-combination fold in
        :mod:`repro.runtime.batch`: instead of one full exponentiation per
        term, the shared squaring chain of an interleaved-window (Straus) or
        bucket-method (Pippenger) evaluation brings the per-term cost down
        to ``~|q|/w`` group operations (see :mod:`repro.crypto.multiexp`
        for the algorithms and the size-based crossover).

        Semantics match the naive fold exactly: scalars are reduced mod the
        group order (negative scalars act as inverses), duplicate bases are
        merged by summing their scalars, zero-scalar terms vanish, an empty
        term list yields the identity.  ``bases`` and ``scalars`` must have
        equal length (:class:`ValueError` otherwise).

        The evaluation runs on the backend's native values (the seam below);
        this entry point owns the term normalisation so every backend agrees
        on edge cases.
        """
        terms = collapse_terms(self.order, bases, scalars, key=lambda base: base.to_bytes())
        if not terms:
            return self.identity
        if len(terms) == 1:
            base, scalar = terms[0]
            return base.exponentiate(scalar)
        max_bits = max(scalar.bit_length() for _, scalar in terms)
        costs = self.kernel_costs(max_bits)
        if costs is None:
            accumulator = self.identity
            for base, scalar in terms:
                accumulator = accumulator.operate(base.exponentiate(scalar))
            return accumulator
        plan = plan_multi_exponentiation(
            len(terms),
            max_bits,
            exponentiate_cost=costs.exponentiate,
            square_cost=costs.square,
            invert_cost=costs.invert,
        )
        values = [self.unwrap(base) for base, _ in terms]
        return self.wrap(execute_plan(self.kernel_ops, values, [scalar for _, scalar in terms], plan))

    def shared_base_powers(self, base: GroupElement, scalars: Sequence[int]) -> List[GroupElement]:
        """``[base ** s for s in scalars]``, raising ``base`` once for all of them.

        A tag chain and a threshold decryption raise one ciphertext part to
        many exponents (a member's secret *and* its proof nonce; every
        member's share secret and share nonce).  Above the planner's
        crossover (:func:`~repro.crypto.multiexp.plan_shared_base_powers`:
        from ``K`` and the scalar bit length alone) the ``K`` powers share one
        squaring ladder of native values that lives for this call; below it
        — one scalar, the small test groups — each is the plain
        :meth:`GroupElement.exponentiate`.

        Results equal the per-scalar exponentiations exactly: scalars are
        reduced mod the group order here, so the kernel sees ``[0, q)`` only.
        """
        order = self.order
        scalars = [scalar % order for scalar in scalars]
        max_bits = max((scalar.bit_length() for scalar in scalars), default=0)
        costs = self.kernel_costs(max_bits)
        if costs is not None:
            plan = plan_shared_base_powers(
                len(scalars),
                max_bits,
                exponentiate_cost=costs.exponentiate,
                square_cost=costs.square,
                invert_cost=costs.ladder_invert,
            )
            if plan.algorithm == "ladder":
                ops = self.kernel_ops
                if costs.ladder_invert is None:
                    ops = replace(ops, invert=None)
                return [self.wrap(value) for value in shared_base_powers(ops, self.unwrap(base), scalars, plan.window)]
        return [base.exponentiate(scalar) for scalar in scalars]

    # The native-kernel seam -------------------------------------------------
    #
    # All four kernels — plain power, multi-exp, shared-base ladder and
    # :class:`repro.runtime.precompute.FixedBaseTable` — run on the values
    # below and wrap once at the end.  A backend declares its operations, how
    # an element wraps and unwraps, and what the operations cost; the
    # defaults run the kernels over the elements themselves.

    @property
    def kernel_ops(self) -> GroupOps:
        """The group's operations on its native value type."""
        return GroupOps(
            identity=self.identity,
            multiply=lambda a, b: a.operate(b),
            advance=lambda a, k: a.exponentiate(1 << k),
            invert=lambda a: a.inverse(),
            power=lambda a, scalar: a.exponentiate(scalar),
        )

    def kernel_costs(self, scalar_bits: int) -> Optional[KernelCosts]:
        """What the planners are told at this scalar width; ``None`` keeps every power plain."""
        return KernelCosts(invert=10.0)

    #: Whether :meth:`element_from_bytes` *proves* that what it returns lies
    #: in the order-``q`` subgroup.  A random-linear-combination fold judges
    #: decoded elements exactly like the per-item equations only when it does:
    #: with odd weights, two commitments each shifted by the same order-2
    #: element cancel in the folded product and fail one by one.
    decode_proves_membership: bool = False

    def wrap(self, value: Any) -> GroupElement:
        """The element holding native ``value`` (a kernel's result)."""
        return value

    def unwrap(self, element: GroupElement) -> Any:
        """The native value of one of this group's elements."""
        return element


@dataclass(frozen=True)
class GroupDescription:
    """A lightweight, serializable description of a group choice.

    Protocol messages and ledger records refer to groups by description so a
    verifier can re-instantiate the correct backend.
    """

    name: str
    bits: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}({self.bits} bits)"
