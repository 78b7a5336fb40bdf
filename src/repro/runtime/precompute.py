"""Windowed fixed-base exponentiation tables for hot bases.

Almost every exponentiation in the pipeline uses one of two bases: the group
generator ``g`` (key generation, Schnorr commitments, trivial encryptions,
proof responses) or the election authority's public key ``A_pk`` (every
ElGamal encryption and re-encryption).  For the large-modulus groups the
paper's §7.3 blames for Civitas' slowness, a classic windowed fixed-base
table turns each such exponentiation from a full square-and-multiply into
roughly ``⌈bits/w⌉`` modular multiplications of precomputed powers.

The table for a base ``B`` with window width ``w`` stores

    T[i][j] = B^(j · 2^(w·i))        for j in [1, 2^w)

so ``B^e = ∏_i T[i][digit_i(e)]`` where ``digit_i`` is the i-th ``w``-bit
digit of ``e``.  Rows hold the group's *native* values (raw residues mod
``p``, extended Edwards tuples — :attr:`Group.kernel_ops
<repro.crypto.group.Group.kernel_ops>`, the seam the multi-exponentiation
kernels run on) and a power wraps its result once, at the end.  Building a table costs about ``⌈bits/w⌉ · 2^w`` group
operations and therefore only pays off for bases that are reused; the module
keeps a small usage counter per base and builds a table automatically once a
base has been exponentiated :data:`AUTO_BUILD_THRESHOLD` times.  Setup code
that *knows* a base will be hot (the generator, the election public key)
calls :func:`warm_fixed_base` up front.

Acceleration is transparent:

* :func:`element_power` is the drop-in replacement for ``base ** scalar``
  used by :mod:`repro.crypto.elgamal`; provers reach it through
  :func:`repro.crypto.elgamal.hot_power`, which asks :func:`has_table` first
  so a one-shot proof base is never counted or built;
* importing this module installs a generator-power hook into
  :mod:`repro.crypto.group`, so every ``group.power(x)`` call in the code
  base benefits without modification.

Small groups (below :data:`MIN_ORDER_BITS` of order) are left untouched —
CPython's native ``pow`` beats any Python-level table there, and the test
suite's toy group stays on the exact reference path.

Tables live in memory only: decoding a stored table re-validates every
element, which on Ed25519 costs far more than building it — the square root
of point decompression alone (0.24 ms an element, what PR 21 measured) and,
now that the subgroup check really multiplies by the order, 1.2–1.4 ms.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto import bigint as _bigint_module
from repro.crypto import elgamal as _elgamal_module
from repro.crypto import group as _group_module
from repro.crypto.group import Group, GroupElement

MIN_ORDER_BITS = 192
DEFAULT_WINDOW_BITS = 5
AUTO_BUILD_THRESHOLD = 8
MAX_TABLES = 32
_MAX_TRACKED_BASES = 4096

_BaseKey = Tuple[int, bytes]


class FixedBaseTable:
    """A windowed precomputation table for one fixed base."""

    __slots__ = ("base", "window_bits", "_rows")

    def __init__(self, base: GroupElement, window_bits: int = DEFAULT_WINDOW_BITS):
        if window_bits < 1:
            raise ValueError("window width must be at least one bit")
        group = base.group
        self.base = base
        self.window_bits = window_bits
        ops = group.kernel_ops
        multiply = ops.multiply
        radix = 1 << window_bits
        digits = (group.order.bit_length() + window_bits - 1) // window_bits
        rows: List[list] = []
        row_base = group.unwrap(base)
        for _ in range(digits):
            row = [ops.identity]
            current = row_base
            for _ in range(1, radix):
                row.append(current)
                current = multiply(current, row_base)
            rows.append(row)
            row_base = current  # row_base ** radix
        self._rows = rows

    @property
    def num_group_elements(self) -> int:
        """How many precomputed elements the table holds (memory proxy)."""
        return sum(len(row) for row in self._rows)

    def power(self, scalar: int) -> GroupElement:
        """``base ** scalar`` via table lookups and multiplications."""
        group = self.base.group
        multiply = group.kernel_ops.multiply
        exponent = scalar % group.order
        accumulator = None
        window_bits = self.window_bits
        mask = (1 << window_bits) - 1
        for row in self._rows:
            if not exponent:
                break
            digit = exponent & mask
            if digit:
                accumulator = row[digit] if accumulator is None else multiply(accumulator, row[digit])
            exponent >>= window_bits
        return group.identity if accumulator is None else group.wrap(accumulator)


# ---------------------------------------------------------------------------
# Transparent per-base cache
# ---------------------------------------------------------------------------

_enabled = True
# LRU-ordered: most recently used table last.  When a new hot base would
# exceed MAX_TABLES, the least recently used table is evicted — long-lived
# processes running many elections keep acceleration for the *current*
# election's bases instead of pinning the first 32 forever.
_tables: "OrderedDict[_BaseKey, FixedBaseTable]" = OrderedDict()
_usage: Dict[_BaseKey, int] = {}


def set_precompute_enabled(flag: bool) -> bool:
    """Globally enable/disable table acceleration; returns the previous flag."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


def precompute_enabled() -> bool:
    return _enabled


def clear_tables() -> None:
    """Drop every cached table and usage counter (mainly for tests)."""
    _tables.clear()
    _usage.clear()


def num_cached_tables() -> int:
    return len(_tables)


def _accelerable(group: Group) -> bool:
    return _enabled and group.order.bit_length() >= MIN_ORDER_BITS


def _base_key(base: GroupElement) -> _BaseKey:
    # Group backends are lru-cached singletons, so id() is a stable namespace;
    # the canonical encoding distinguishes bases within a group.
    return (id(base.group), base.to_bytes())


def _install_table(key: _BaseKey, table: FixedBaseTable) -> None:
    while len(_tables) >= MAX_TABLES:
        _tables.popitem(last=False)  # evict least recently used
    _tables[key] = table
    _usage.pop(key, None)


def warm_fixed_base(base: GroupElement, window_bits: int = DEFAULT_WINDOW_BITS) -> Optional[FixedBaseTable]:
    """Eagerly build (or fetch) the table for a known-hot base.

    Returns ``None`` when acceleration does not apply (disabled or small
    group).  A full cache evicts its least recently used table.
    """
    if not _accelerable(base.group):
        return None
    key = _base_key(base)
    table = _tables.get(key)
    if table is None:
        table = FixedBaseTable(base, window_bits)
        _install_table(key, table)
    else:
        _tables.move_to_end(key)
    return table


def has_table(base: GroupElement) -> bool:
    """Whether ``base`` would be served from a table right now (a pure lookup)."""
    return bool(_tables) and _accelerable(base.group) and _base_key(base) in _tables


def element_power(base: GroupElement, scalar: int) -> GroupElement:
    """``base ** scalar``, through a fixed-base table once ``base`` proves hot."""
    if not _accelerable(base.group):
        return base.exponentiate(scalar)
    key = _base_key(base)
    table = _tables.get(key)
    if table is None:
        count = _usage.get(key, 0) + 1
        if count >= AUTO_BUILD_THRESHOLD:
            table = FixedBaseTable(base, DEFAULT_WINDOW_BITS)
            _install_table(key, table)
        else:
            if len(_usage) >= _MAX_TRACKED_BASES:
                _usage.clear()
            _usage[key] = count
            return base.exponentiate(scalar)
    else:
        _tables.move_to_end(key)
    return table.power(scalar)


def multi_element_power(
    group: Group, bases: Sequence[GroupElement], scalars: Sequence[int]
) -> GroupElement:
    """``∏ bases[i] ** scalars[i]`` with fixed-base tables folded in.

    The batched-verification folds (:mod:`repro.runtime.batch`) mix two kinds
    of bases: a few *hot* ones that recur in every equation (the generator,
    the election public key) and many one-shot ones (commitments,
    ciphertext components).  This entry point splits them: bases that
    already have a :class:`FixedBaseTable` are evaluated through their
    windowed table (each costs ``⌈bits/w⌉`` multiplications and nothing
    else), and only the remainder goes into the shared-squaring-chain
    multi-exponentiation (:meth:`Group.multi_exponentiate
    <repro.crypto.group.Group.multi_exponentiate>`).  Tables are *used* but
    never built here — one-shot RLC bases would churn the usage counters.

    Semantics are identical to ``group.multi_exponentiate(bases, scalars)``.
    """
    if len(bases) != len(scalars):
        raise ValueError(
            f"multi-exponentiation needs one scalar per base "
            f"(got {len(bases)} bases, {len(scalars)} scalars)"
        )
    if not _accelerable(group) or not _tables:
        return group.multi_exponentiate(bases, scalars)
    table_product: Optional[GroupElement] = None
    rest_bases: List[GroupElement] = []
    rest_scalars: List[int] = []
    for base, scalar in zip(bases, scalars):
        key = _base_key(base)
        table = _tables.get(key)
        if table is None:
            rest_bases.append(base)
            rest_scalars.append(scalar)
        else:
            _tables.move_to_end(key)
            term = table.power(scalar)
            table_product = term if table_product is None else table_product.operate(term)
    rest = group.multi_exponentiate(rest_bases, rest_scalars)
    return rest if table_product is None else table_product.operate(rest)


def _generator_power(group: Group, scalar: int) -> Optional[GroupElement]:
    """The hook :mod:`repro.crypto.group` consults for ``group.power``."""
    if not _accelerable(group):
        return None
    return element_power(group.generator, scalar)


# Install the accelerator hooks.  The crypto layer never imports the runtime;
# importing this module (or any part of repro.runtime) activates acceleration
# process-wide, and clearing the hooks restores the reference paths.
_group_module.set_power_accelerator(_generator_power)
_elgamal_module.set_element_power_hook(element_power, has_table)

# Cached tables hold elements of the pre-switch group singletons, so a bigint
# backend switch (test/tooling hook) must drop them alongside the groups.
_bigint_module.register_reset_hook(clear_tables)
