"""Straus, Pippenger, shared-base and signed-window exponentiation kernels.

Computing ``∏ bases[i] ** scalars[i]`` term by term costs one full
exponentiation per term — ``n · 1.2·|q|`` group operations on the
signed-window power below, or ``n`` native ``pow`` calls for the mod-p backends.
Both classic multi-exponentiation algorithms share the *squaring chain*
across all terms, so the per-term cost drops to roughly ``|q|/w`` operations
for a window of ``w`` bits:

* **Straus (interleaved windows)** precomputes the powers ``1 .. 2^w - 1`` of
  every base, then walks the exponents most-significant-window first: ``w``
  squarings of one shared accumulator per window, plus one table
  multiplication per base whose current digit is non-zero.  The per-base
  table costs ``2^w - 2`` multiplications, so Straus wins for small-to-medium
  batches.
* **Pippenger (bucket method)** keeps no per-base tables: within each window
  it multiplies every base into the bucket indexed by its digit, then folds
  the buckets with the running-suffix-sum trick (≤ ``2·B`` multiplications
  for ``B`` buckets).  With an inversion hook the digits are *signed*, which
  halves the bucket count; the bucket cost is independent of ``n``, so
  Pippenger wins for large batches.

A third kernel turns the shape around — *few bases, many exponents*:

* **Shared-base powers** (:func:`shared_base_powers`) raise one base to ``K``
  scalars.  The ladder ``base^(2^(w·i))`` is built once; each scalar drops
  rung ``i`` into the bucket of its ``i``-th digit and folds its buckets with
  the same running-suffix-sum Pippenger uses per window.  The squaring chain
  — most of a plain exponentiation — is paid once instead of ``K`` times
  (a tag chain step is ``K = 2``, a threshold decryption among ``M`` members
  ``K = 2M``).  :func:`plan_shared_base_powers` decides naive-or-ladder and
  the window from ``K`` and the scalar bit length.

The fourth kernel is the *plain* power of a backend without a native one:

* **Signed-window power** (:func:`signed_window_power`) raises one base to
  one scalar on its width-5 non-adjacent form: ``|q|`` squarings, one
  multiplication by an odd power ``base^±1 … base^±15`` per non-zero digit
  (one in six) and seven to build those powers — ``≈ 1.2·|q|`` operations
  where the binary ladder spends ``1.5·|q|``.  It is the curve's ``**`` and
  the naive branch of the other three.

The kernels are written against a tiny :class:`GroupOps` parameterisation
instead of :class:`~repro.crypto.group.GroupElement` so each backend can run
them on its native representation — raw integers mod ``p`` for the Schnorr
groups (skipping one redundant ``% p`` per element construction), extended
Edwards coordinates for the curve (skipping point re-wrapping), and plain
elements for any other backend.  :func:`plan_multi_exponentiation` picks the
algorithm and window width from a calibrated operation-count model, so
callers simply hand every ``(base, scalar)`` term to
:meth:`Group.multi_exponentiate <repro.crypto.group.Group.multi_exponentiate>`
(or one base and its scalars to :meth:`Group.shared_base_powers
<repro.crypto.group.Group.shared_base_powers>`) and let the crossover decide.

This module deliberately has no imports from the rest of the package: the
kernels are pure algorithms over an abstract multiply/advance/invert triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: Widest window the planner will consider.  2^16 buckets / table entries is
#: already past the point of diminishing returns for any realistic batch.
MAX_WINDOW_BITS = 16

#: Ceiling on ``num_terms · 2^window`` Straus table entries (memory guard —
#: ~16 MiB of 2048-bit integers).  Batches that would exceed it fall back to
#: Pippenger, whose memory is ``O(n + 2^window)``.
MAX_STRAUS_TABLE_ENTRIES = 1 << 16

#: Width of the non-adjacent form :func:`signed_window_power` recodes on: the
#: count ``bits/(w+1) + 2^(w-2)`` bottoms out at 5 for 253-bit scalars.
POWER_WINDOW_BITS = 5

Value = Any


@dataclass(frozen=True)
class GroupOps:
    """The operations a backend exposes to the multi-exponentiation kernels.

    ``identity``/``multiply`` are the group's neutral element and operation on
    the backend's *native* value type.  ``advance(v, k)`` computes
    ``v^(2^k)`` — backends with a native ``pow`` implement it as one call
    (``pow(v, 1 << k, p)``) instead of ``k`` Python-level squarings.
    ``invert`` is optional; when present, Pippenger uses signed digits
    (half the buckets at the price of one inversion per distinct base).
    ``power(v, s)`` is the backend's plain ``v ** s`` for ``s >= 0`` (a native
    ``pow``); left ``None``, :func:`signed_window_power` over the other four.
    """

    identity: Value
    multiply: Callable[[Value, Value], Value]
    advance: Callable[[Value, int], Value]
    invert: Optional[Callable[[Value], Value]] = None
    power: Optional[Callable[[Value, int], Value]] = None


@dataclass(frozen=True)
class KernelCosts:
    """What a backend tells the planners, in units of one ``GroupOps.multiply``.

    ``exponentiate`` is one plain power at the scalar width asked about
    (``None``: :func:`signed_window_cost`, the kernel a backend without a
    native power runs), ``square`` one squaring of the shared chain,
    ``invert`` one inversion (``None``: too dear for signed digits).
    ``ladder_invert`` is the same for the shared-base ladder, which inverts
    every *rung* and so only signs its digits where inversion is nearly free.
    """

    exponentiate: Optional[float] = None
    square: float = 1.0
    invert: Optional[float] = None
    ladder_invert: Optional[float] = None


@dataclass(frozen=True)
class MultiExpPlan:
    """The planner's verdict: which algorithm at which window width."""

    algorithm: str  # "naive" | "straus" | "pippenger" | "ladder" (shared-base plans)
    window: int
    estimated_operations: float


def plan_multi_exponentiation(
    num_terms: int,
    max_scalar_bits: int,
    *,
    exponentiate_cost: Optional[float] = None,
    square_cost: float = 1.0,
    invert_cost: Optional[float] = None,
) -> MultiExpPlan:
    """Choose algorithm and window width from an operation-count model.

    All costs are in units of one group multiplication.  ``exponentiate_cost``
    is the price of a single naive ``base ** scalar`` (defaults to
    :func:`signed_window_cost`, the plain power of a backend without a native
    one; mod-p backends pass what their native ``pow`` measures).
    ``square_cost`` discounts the shared squaring chain (mod-p squaring and
    native ``pow`` advancement are cheaper than a generic multiplication).
    ``invert_cost`` enables the signed-digit Pippenger variant; leave ``None``
    for backends whose inversion is too expensive to amortise.

    The model only has to rank alternatives, not predict wall time, so the
    constants are deliberately coarse (calibrated once on the 2048-bit
    group; ``crypto.multiexp.self_s`` and ``audit_s`` on the
    ``tally_modp2048`` workload of ``benchmarks/e2e`` are the measurement).
    """
    if num_terms < 1 or max_scalar_bits < 1:
        return MultiExpPlan("naive", 1, 0.0)
    if exponentiate_cost is None:
        exponentiate_cost = signed_window_cost(max_scalar_bits, square_cost)
    best = MultiExpPlan("naive", 1, num_terms * exponentiate_cost)
    squarings = max_scalar_bits * square_cost
    for window in range(1, MAX_WINDOW_BITS + 1):
        num_windows = -(-max_scalar_bits // window)
        table_entries = num_terms * (1 << window)
        if table_entries <= MAX_STRAUS_TABLE_ENTRIES:
            straus_cost = (
                squarings
                + num_terms * ((1 << window) - 2)
                + num_windows * num_terms * (1.0 - 0.5**window)
            )
            if straus_cost < best.estimated_operations:
                best = MultiExpPlan("straus", window, straus_cost)
        if invert_cost is not None and window >= 2:
            # Signed digits: buckets halve, each base pays one inversion.
            pippenger_cost = (
                squarings
                + num_windows * (num_terms + 2.0 * (1 << (window - 1)))
                + num_terms * invert_cost
            )
        else:
            pippenger_cost = squarings + num_windows * (num_terms + 2.0 * (1 << window))
        if pippenger_cost < best.estimated_operations:
            best = MultiExpPlan("pippenger", window, pippenger_cost)
    return best


def plan_shared_base_powers(
    num_scalars: int,
    max_scalar_bits: int,
    *,
    exponentiate_cost: Optional[float] = None,
    square_cost: float = 1.0,
    invert_cost: Optional[float] = None,
) -> MultiExpPlan:
    """Choose between ``K`` plain exponentiations of one base and a shared ladder.

    Units and cost constants are :func:`plan_multi_exponentiation`'s.  The
    ladder ``base^(2^(w·i))`` is paid once — the squaring chain, plus one
    inversion per rung when ``invert_cost`` allows signed digits — and every
    scalar then costs one multiplication per non-zero digit and one bucket
    fold (≤ ``2·2^w`` multiplications, half that signed).  One scalar shares
    nothing, so ``K ≤ 1`` is always naive; so is any ``K`` the model says
    the ladder loses (small operands under a native ``pow``).
    """
    if exponentiate_cost is None:
        exponentiate_cost = signed_window_cost(max_scalar_bits, square_cost)
    best = MultiExpPlan("naive", 1, max(num_scalars, 0) * exponentiate_cost)
    if num_scalars <= 1 or max_scalar_bits < 1:
        return best
    for window in range(1, MAX_WINDOW_BITS + 1):
        num_windows = -(-max_scalar_bits // window)
        ladder_cost = (num_windows - 1) * window * square_cost
        if invert_cost is not None and window >= 2:
            ladder_cost += num_windows * invert_cost
            num_buckets = 1 << (window - 1)
        else:
            num_buckets = 1 << window
        per_scalar = num_windows * (1.0 - 0.5**window) + 2.0 * num_buckets
        cost = ladder_cost + num_scalars * per_scalar
        if cost < best.estimated_operations:
            best = MultiExpPlan("ladder", window, cost)
    return best


def straus_multi_exponentiate(
    ops: GroupOps,
    values: Sequence[Value],
    scalars: Sequence[int],
    window: int,
) -> Value:
    """Interleaved fixed-window multi-exponentiation (Straus' algorithm).

    Scalars must already be reduced to non-negative integers.  One shared
    accumulator is advanced ``window`` bits per step; each base contributes
    its precomputed ``digit``-th power whenever its current digit is
    non-zero.
    """
    if window < 1:
        raise ValueError("window width must be at least one bit")
    if not values:
        return ops.identity
    multiply = ops.multiply
    radix = 1 << window
    tables: List[List[Value]] = []
    for value in values:
        row: List[Value] = [ops.identity, value]
        current = value
        for _ in range(2, radix):
            current = multiply(current, value)
            row.append(current)
        tables.append(row)
    max_bits = max(scalar.bit_length() for scalar in scalars)
    num_windows = -(-max_bits // window) if max_bits else 0
    mask = radix - 1
    result: Optional[Value] = None
    for window_index in range(num_windows - 1, -1, -1):
        if result is not None:
            result = ops.advance(result, window)
        shift = window_index * window
        for row, scalar in zip(tables, scalars):
            digit = (scalar >> shift) & mask
            if digit:
                entry = row[digit]
                result = entry if result is None else multiply(result, entry)
    return ops.identity if result is None else result


def _signed_digits(scalar: int, window: int) -> List[int]:
    """Least-significant-first signed digits of ``scalar`` in base ``2^window``.

    Digits lie in ``[-2^(window-1), 2^(window-1) - 1]`` with a carry folded
    into the next digit, so every digit's magnitude fits the halved bucket
    range.  Requires ``window >= 2`` (with one-bit windows the carry for an
    odd scalar never terminates).
    """
    if window < 2:
        raise ValueError("signed digits need a window of at least two bits")
    radix = 1 << window
    half = radix >> 1
    digits: List[int] = []
    while scalar:
        digit = scalar & (radix - 1)
        if digit >= half:
            digits.append(digit - radix)
            scalar = (scalar >> window) + 1
        else:
            digits.append(digit)
            scalar >>= window
    return digits


def _fold_buckets(
    multiply: Callable[[Value, Value], Value], buckets: Sequence[Optional[Value]]
) -> Optional[Value]:
    """``∏ buckets[d] ** d`` by the running-suffix-sum identity, ``None`` when every bucket is empty.

    ``Σ d·B_d = Σ_d Σ_{j≥d} B_j``: one pass from the highest digit down, at
    most two multiplications per bucket.  ``buckets[0]`` is never read.
    """
    running: Optional[Value] = None
    total: Optional[Value] = None
    for digit in range(len(buckets) - 1, 0, -1):
        bucket = buckets[digit]
        if bucket is not None:
            running = bucket if running is None else multiply(running, bucket)
        if running is not None:
            total = running if total is None else multiply(total, running)
    return total


def pippenger_multi_exponentiate(
    ops: GroupOps,
    values: Sequence[Value],
    scalars: Sequence[int],
    window: int,
) -> Value:
    """Bucket-method multi-exponentiation (Pippenger's algorithm).

    Scalars must already be reduced to non-negative integers.  When
    ``ops.invert`` is available (and ``window >= 2``), digits are signed and
    the bucket count halves; otherwise plain unsigned digits are used.  The
    bucket fold uses the running-suffix-sum identity
    ``Σ d·B_d = Σ_d Σ_{j≥d} B_j`` — at most two multiplications per bucket.
    """
    if window < 1:
        raise ValueError("window width must be at least one bit")
    if not values:
        return ops.identity
    multiply = ops.multiply
    signed = ops.invert is not None and window >= 2
    if signed:
        assert ops.invert is not None
        digit_lists = [_signed_digits(scalar, window) for scalar in scalars]
        num_windows = max((len(digits) for digits in digit_lists), default=0)
        num_buckets = (1 << (window - 1)) + 1
        inverses = [ops.invert(value) for value in values]
    else:
        max_bits = max(scalar.bit_length() for scalar in scalars)
        num_windows = -(-max_bits // window) if max_bits else 0
        num_buckets = 1 << window
    mask = (1 << window) - 1
    result: Optional[Value] = None
    for window_index in range(num_windows - 1, -1, -1):
        if result is not None:
            result = ops.advance(result, window)
        buckets: List[Optional[Value]] = [None] * num_buckets
        if signed:
            for index, digits in enumerate(digit_lists):
                if window_index >= len(digits):
                    continue
                digit = digits[window_index]
                if digit > 0:
                    entry = buckets[digit]
                    buckets[digit] = values[index] if entry is None else multiply(entry, values[index])
                elif digit < 0:
                    entry = buckets[-digit]
                    buckets[-digit] = inverses[index] if entry is None else multiply(entry, inverses[index])
        else:
            shift = window_index * window
            for value, scalar in zip(values, scalars):
                digit = (scalar >> shift) & mask
                if digit:
                    entry = buckets[digit]
                    buckets[digit] = value if entry is None else multiply(entry, value)
        window_sum = _fold_buckets(multiply, buckets)
        if window_sum is not None:
            result = window_sum if result is None else multiply(result, window_sum)
    return ops.identity if result is None else result


def shared_base_powers(
    ops: GroupOps,
    base: Value,
    scalars: Sequence[int],
    window: int,
) -> List[Value]:
    """``[base ** s for s in scalars]`` over one shared squaring ladder.

    Few bases, many exponents — Pippenger with the roles turned.  The rungs
    ``base^(2^(window·i))`` are built once, one ``ops.advance(rung, window)``
    each (so a backend with a native ``pow`` keeps every squaring inside
    it); each scalar then drops rung ``i`` into the bucket of its ``i``-th
    digit and folds its buckets exactly as one Pippenger window does.  There
    a window's buckets collect many bases; here a scalar's buckets collect
    many rungs.

    Scalars must already be reduced to non-negative integers.  With
    ``ops.invert`` (and ``window >= 2``) digits are signed and the buckets
    halve, at one inversion per rung — leave it out where that cannot
    amortise.  The ladder is local: nothing outlives the call.
    """
    if window < 1:
        raise ValueError("window width must be at least one bit")
    if not scalars:
        return []
    multiply = ops.multiply
    signed = ops.invert is not None and window >= 2
    if signed:
        digit_lists = [_signed_digits(scalar, window) for scalar in scalars]
        num_buckets = (1 << (window - 1)) + 1
    else:
        mask = (1 << window) - 1
        digit_lists = [
            [(scalar >> shift) & mask for shift in range(0, scalar.bit_length(), window)]
            for scalar in scalars
        ]
        num_buckets = 1 << window
    ladder: List[Value] = [base]
    for _ in range(1, max(len(digits) for digits in digit_lists)):
        ladder.append(ops.advance(ladder[-1], window))
    if signed:
        assert ops.invert is not None
        inverses = [ops.invert(rung) for rung in ladder]
    powers: List[Value] = []
    for digits in digit_lists:
        buckets: List[Optional[Value]] = [None] * num_buckets
        for index, digit in enumerate(digits):
            if digit > 0:
                entry = buckets[digit]
                buckets[digit] = ladder[index] if entry is None else multiply(entry, ladder[index])
            elif digit < 0:
                entry = buckets[-digit]
                buckets[-digit] = inverses[index] if entry is None else multiply(entry, inverses[index])
        power = _fold_buckets(multiply, buckets)
        powers.append(ops.identity if power is None else power)
    return powers


def signed_window_cost(scalar_bits: int, square_cost: float = 1.0) -> float:
    """What :func:`signed_window_power` spends on a ``scalar_bits``-bit scalar, for the planners."""
    return scalar_bits * square_cost + scalar_bits / (POWER_WINDOW_BITS + 1) + (1 << (POWER_WINDOW_BITS - 2))


def signed_window_power(ops: GroupOps, value: Value, scalar: int) -> Value:
    """``value ** scalar`` on the width-:data:`POWER_WINDOW_BITS` non-adjacent form of ``scalar``.

    The scalar must be non-negative and is **not** reduced — a subgroup check
    raises to the group order itself.  Recoding leaves every non-zero digit
    odd, below ``2^(w-1)`` in magnitude and followed by at least ``w - 1``
    zeros, so one scalar costs its bit length in squarings (taken a run at a
    time through ``ops.advance``), one multiplication per non-zero digit by
    ``value^±1, value^±3, …`` and the few multiplications that build exactly
    the odd powers the digits name.  Needs ``ops.invert``.
    """
    if ops.invert is None:
        raise ValueError("the signed-window power needs an inversion")
    radix = 1 << POWER_WINDOW_BITS
    digits: List[int] = []  # least significant first
    while scalar:
        digit = 0
        if scalar & 1:
            digit = scalar & (radix - 1)
            if digit >= radix >> 1:
                digit -= radix
            scalar -= digit
        digits.append(digit)
        scalar >>= 1
    if not digits:
        return ops.identity
    multiply = ops.multiply
    odd_powers = [value]  # value^1, value^3, value^5, …
    top = max(map(abs, digits))
    if top > 1:
        square = ops.advance(value, 1)
        for _ in range(top >> 1):
            odd_powers.append(multiply(odd_powers[-1], square))
    inverses = [ops.invert(power) for power in odd_powers]
    result: Optional[Value] = None
    run = 0  # squarings owed since the last non-zero digit
    for digit in reversed(digits):
        run += 1
        if digit:
            entry = odd_powers[digit >> 1] if digit > 0 else inverses[-digit >> 1]
            result = entry if result is None else multiply(ops.advance(result, run), entry)
            run = 0
    return ops.advance(result, run) if run else result


def execute_plan(
    ops: GroupOps,
    values: Sequence[Value],
    scalars: Sequence[int],
    plan: MultiExpPlan,
) -> Value:
    """Run ``plan`` over the terms; the naive branch is one plain power per term."""
    if plan.algorithm == "straus":
        return straus_multi_exponentiate(ops, values, scalars, plan.window)
    if plan.algorithm == "pippenger":
        return pippenger_multi_exponentiate(ops, values, scalars, plan.window)
    result: Optional[Value] = None
    for value, scalar in zip(values, scalars):
        term = ops.power(value, scalar) if ops.power else signed_window_power(ops, value, scalar)
        result = term if result is None else ops.multiply(result, term)
    return ops.identity if result is None else result


def collapse_terms(
    order: int,
    bases: Sequence[Any],
    scalars: Sequence[int],
    key: Callable[[Any], Any],
) -> List[Tuple[Any, int]]:
    """Normalise ``(base, scalar)`` terms for a multi-exponentiation.

    Reduces every scalar into ``[0, order)`` (so negative scalars and scalars
    at or above the group order are handled uniformly), merges duplicate
    bases under ``key`` by summing their scalars, and drops terms whose
    reduced scalar is zero.  Raises :class:`ValueError` on mismatched input
    lengths — a silent ``zip`` truncation here would quietly verify fewer
    equations than the caller folded.
    """
    if len(bases) != len(scalars):
        raise ValueError(
            f"multi-exponentiation needs one scalar per base "
            f"(got {len(bases)} bases, {len(scalars)} scalars)"
        )
    merged: "dict[Any, Tuple[Any, int]]" = {}
    for base, scalar in zip(bases, scalars):
        scalar %= order
        if not scalar:
            continue
        base_key = key(base)
        entry = merged.get(base_key)
        if entry is None:
            merged[base_key] = (base, scalar)
        else:
            merged[base_key] = (entry[0], (entry[1] + scalar) % order)
    return [(base, scalar) for base, scalar in merged.values() if scalar]
