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
digit of ``e``.  Building a table costs about ``⌈bits/w⌉ · 2^w`` group
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

Tables are pure public data (powers of a public base), so they can be
**persisted**: point :func:`set_disk_cache` (or the
``REPRO_PRECOMPUTE_CACHE`` environment variable) at a directory and every
table built is serialized there, keyed by group, base and window width.
Process pools and repeated runs then load the table (one decode pass)
instead of rebuilding it (``⌈bits/w⌉ · 2^w`` group operations) — CI warms
the cache once per workspace via ``python -m repro.runtime.precompute``.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto import bigint as _bigint_module
from repro.crypto import elgamal as _elgamal_module
from repro.crypto import group as _group_module
from repro.crypto.group import Group, GroupElement
from repro.spec import env

MIN_ORDER_BITS = 192
DEFAULT_WINDOW_BITS = 5
AUTO_BUILD_THRESHOLD = 8
MAX_TABLES = 32
_MAX_TRACKED_BASES = 4096

#: Bump when the on-disk layout changes; stale entries are simply ignored.
DISK_FORMAT_VERSION = 1

_BaseKey = Tuple[int, bytes]


class FixedBaseTable:
    """A windowed precomputation table for one fixed base."""

    __slots__ = ("base", "window_bits", "_rows", "_order", "_identity")

    def __init__(self, base: GroupElement, window_bits: int = DEFAULT_WINDOW_BITS):
        if window_bits < 1:
            raise ValueError("window width must be at least one bit")
        group = base.group
        self.base = base
        self.window_bits = window_bits
        self._order = group.order
        self._identity = group.identity
        radix = 1 << window_bits
        digits = (self._order.bit_length() + window_bits - 1) // window_bits
        rows: List[List[GroupElement]] = []
        row_base = base
        for _ in range(digits):
            row: List[GroupElement] = [self._identity]
            current = row_base
            for _ in range(1, radix):
                row.append(current)
                current = current.operate(row_base)
            rows.append(row)
            row_base = current  # row_base ** radix
        self._rows = rows

    @classmethod
    def from_rows(
        cls, base: GroupElement, window_bits: int, rows: Sequence[Sequence[GroupElement]]
    ) -> "FixedBaseTable":
        """Rebuild a table from previously computed rows (disk-cache load)."""
        table = cls.__new__(cls)
        table.base = base
        table.window_bits = window_bits
        table._order = base.group.order
        table._identity = base.group.identity
        table._rows = [list(row) for row in rows]
        return table

    @property
    def num_group_elements(self) -> int:
        """How many precomputed elements the table holds (memory proxy)."""
        return sum(len(row) for row in self._rows)

    def power(self, scalar: int) -> GroupElement:
        """``base ** scalar`` via table lookups and multiplications."""
        exponent = scalar % self._order
        accumulator = self._identity
        mask = (1 << self.window_bits) - 1
        index = 0
        while exponent:
            digit = exponent & mask
            if digit:
                accumulator = accumulator.operate(self._rows[index][digit])
            exponent >>= self.window_bits
            index += 1
        return accumulator


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


# ---------------------------------------------------------------------------
# Disk cache: tables are public data, so persist them across processes/runs
# ---------------------------------------------------------------------------

_disk_cache_dir: Optional[Path] = None
_disk_hits = 0
_disk_misses = 0


def set_disk_cache(path: Optional[os.PathLike]) -> Optional[Path]:
    """Point the table disk cache at ``path`` (``None`` disables it).

    Returns the previous cache directory.  The directory is created lazily on
    first write; loads and saves are best-effort — any I/O or decode problem
    silently falls back to an in-memory build, so a corrupt or unwritable
    cache can never break a tally.
    """
    global _disk_cache_dir
    previous = _disk_cache_dir
    # expanduser: CI and shells hand in "~/.cache/..." unexpanded via env vars.
    _disk_cache_dir = Path(path).expanduser() if path is not None else None
    return previous


def disk_cache_dir() -> Optional[Path]:
    return _disk_cache_dir


def disk_cache_stats() -> Tuple[int, int]:
    """``(hits, misses)`` of disk-cache lookups since process start."""
    return (_disk_hits, _disk_misses)


def _cache_file(group: Group, base_bytes: bytes, window_bits: int) -> Optional[Path]:
    if _disk_cache_dir is None:
        return None
    digest = hashlib.sha256(
        b"|".join(
            [
                b"fixed-base-table",
                str(DISK_FORMAT_VERSION).encode(),
                group.name.encode(),
                str(group.order).encode(),
                base_bytes,
                str(window_bits).encode(),
            ]
        )
    ).hexdigest()
    return _disk_cache_dir / f"table-{digest}.json"


def _save_table(table: FixedBaseTable) -> bool:
    """Serialize ``table`` into the disk cache; returns True on success.

    The format is plain JSON over hex strings — deliberately *not* pickle,
    so a crafted cache entry can corrupt at worst a lookup (caught below and
    by universal verification), never execute code at load time.
    """
    group = table.base.group
    path = _cache_file(group, table.base.to_bytes(), table.window_bits)
    if path is None:
        return False
    payload = {
        "format": DISK_FORMAT_VERSION,
        "group": group.name,
        "order": str(group.order),
        "base": table.base.to_bytes().hex(),
        "window_bits": table.window_bits,
        "rows": [[element.to_bytes().hex() for element in row] for row in table._rows],
    }
    temporary = path.with_suffix(f".tmp.{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(temporary, "w") as handle:
            json.dump(payload, handle)
        os.replace(temporary, path)  # atomic: concurrent writers race benignly
        return True
    except (OSError, TypeError, ValueError):
        # Best-effort by contract: an unwritable directory must never break
        # the tally that triggered the build.
        try:
            temporary.unlink()
        except OSError:
            pass
        return False


def _load_table(base: GroupElement, window_bits: int) -> Optional[FixedBaseTable]:
    """Deserialize the table for ``base`` from the disk cache, if present.

    Validates the payload's identity fields and shape, decodes every element
    through the group's canonical decoder, and spot-checks the layout (row 0
    digit 1 must be the base itself).  A fully-consistent forgery beyond that
    would still be caught downstream: wrong powers produce wrong proofs,
    which universal verification rejects.
    """
    global _disk_hits, _disk_misses
    group = base.group
    path = _cache_file(group, base.to_bytes(), window_bits)
    if path is None:
        return None
    try:
        with open(path, "r") as handle:
            payload = json.load(handle)
        if (
            payload["format"] != DISK_FORMAT_VERSION
            or payload["group"] != group.name
            or payload["order"] != str(group.order)
            or payload["base"] != base.to_bytes().hex()
            or payload["window_bits"] != window_bits
        ):
            _disk_misses += 1
            return None
        radix = 1 << window_bits
        digits = (group.order.bit_length() + window_bits - 1) // window_bits
        raw_rows = payload["rows"]
        if len(raw_rows) != digits or any(len(row) != radix for row in raw_rows):
            _disk_misses += 1
            return None
        rows = [[group.element_from_bytes(bytes.fromhex(data)) for data in row] for row in raw_rows]
        if rows[0][1] != base or any(row[0] != group.identity for row in rows):
            _disk_misses += 1
            return None
        _disk_hits += 1
        return FixedBaseTable.from_rows(base, window_bits, rows)
    except (OSError, json.JSONDecodeError, KeyError, ValueError, EOFError, TypeError):
        _disk_misses += 1
        return None


def _install_table(key: _BaseKey, table: FixedBaseTable) -> None:
    while len(_tables) >= MAX_TABLES:
        _tables.popitem(last=False)  # evict least recently used
    _tables[key] = table
    _usage.pop(key, None)


def _build_or_load(base: GroupElement, window_bits: int) -> FixedBaseTable:
    """Load the table from the disk cache when possible, else build and save it."""
    table = _load_table(base, window_bits)
    if table is None:
        table = FixedBaseTable(base, window_bits)
        _save_table(table)
    return table


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
        table = _build_or_load(base, window_bits)
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
            table = _build_or_load(base, DEFAULT_WINDOW_BITS)
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

# Honour the environment switch at import so forked workers, CLI runs and CI
# jobs share one cache directory without any plumbing.
set_disk_cache(env("REPRO_PRECOMPUTE_CACHE"))


def _warm_main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - CI entry point
    """``python -m repro.runtime.precompute``: pre-build generator tables.

    CI warms the cache once per (pip-cached) workspace so every subsequent
    test/bench process loads the large-group generator tables from disk.
    """
    import argparse

    parser = argparse.ArgumentParser(description="Warm the fixed-base table disk cache.")
    parser.add_argument(
        "--cache-dir",
        default=env("REPRO_PRECOMPUTE_CACHE") or str(Path.home() / ".cache" / "repro-votegral" / "precompute"),
        help="cache directory (default: $REPRO_PRECOMPUTE_CACHE or ~/.cache/repro-votegral/precompute)",
    )
    parser.add_argument(
        "--groups",
        nargs="*",
        default=["modp-2048", "modp-3072"],
        choices=["modp-2048", "modp-3072", "modp-256", "ed25519"],
        help="which groups' generator tables to warm",
    )
    args = parser.parse_args(argv)

    from repro.crypto.registry import group_by_name

    set_disk_cache(args.cache_dir)
    for name in args.groups:
        group = group_by_name(name)
        table = warm_fixed_base(group.generator)
        status = "skipped (small group)" if table is None else f"{table.num_group_elements} elements"
        print(f"warmed {name}: {status}")
    hits, misses = disk_cache_stats()
    print(f"disk cache at {args.cache_dir}: {hits} hit(s), {misses} miss(es)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_warm_main())
