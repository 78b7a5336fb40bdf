"""Per-path policy: which rules run where.

Paths are normalized to the repo-relative grammar
(``repro/cluster/worker.py``, ``tests/...``, ``benchmarks/...``) by
:func:`repro.analysis.engine.policy_path`; the table below is matched
top-down with :func:`fnmatch.fnmatch` and the **first** matching row wins,
so put the most specific globs first.

The shape of the table encodes the threat model:

- **Crypto, cluster, tally, registration, ledger** paths carry the paper's
  guarantees (bit-identical tallies, secrets never logged, restricted
  unpickling) and get the strict set.
- ``repro/cluster/protocol.py`` is the *one* place pickle deserialization
  is allowed (it owns the restricted unpickler), so REP003 is dropped
  exactly there.
- **Telemetry** legitimately reads wall clocks (it measures them) and owns
  the name registry, so REP002/REP005 don't apply to it.
- The paper-figure apparatus (hardware models, baselines, the usability
  model) lives under ``benchmarks/figures``, outside the package.
- **REP007** runs on every ``repro/`` path but ``repro/spec.py``, the reader.
"""

from __future__ import annotations

from fnmatch import fnmatch
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.analysis.rules import Rule, rule_instances

__all__ = ["POLICY", "DEFAULT_RULES", "rules_for_path", "rule_ids_for_path"]

_ALL = frozenset({"REP001", "REP002", "REP003", "REP004", "REP005", "REP006", "REP007"})

#: Ordered (glob, rule ids) rows; first match wins.
POLICY: List[Tuple[str, FrozenSet[str]]] = [
    # The knob table and its typed reader: the one place the environment is read.
    ("repro/spec.py", frozenset({"REP003", "REP006"})),
    # The restricted unpickler lives here — the single sanctioned
    # deserialization site.  Everything else stays strict.
    ("repro/cluster/protocol.py", _ALL - {"REP003"}),
    ("repro/cluster/*", _ALL),
    # The gateway is where untrusted bytes meet the trusted stack, and its
    # registration responses carry credential secrets — full strict set
    # (REP001 keeps secrets out of logs/errors, REP006 keeps the accept loop
    # from swallowing failures).
    ("repro/gateway/*", _ALL),
    ("repro/crypto/*", _ALL - {"REP004", "REP005"}),
    ("repro/registration/*", _ALL - {"REP004"}),
    ("repro/tally/*", _ALL - {"REP001", "REP004"}),
    ("repro/ledger/*", _ALL - {"REP001"}),
    ("repro/election/*", _ALL - {"REP001", "REP004"}),
    ("repro/voting/*", _ALL - {"REP004", "REP005"}),
    ("repro/security/*", _ALL - {"REP004", "REP005"}),
    ("repro/runtime/*", frozenset({"REP003", "REP004", "REP005", "REP006", "REP007"})),
    ("repro/audit/*", frozenset({"REP003", "REP005", "REP006", "REP007"})),
    # Telemetry measures wall clocks and owns the name registry; hold it to
    # pickle-safety, lock-discipline, and exception-hygiene only.
    ("repro/telemetry/*", frozenset({"REP003", "REP004", "REP006", "REP007"})),
    ("repro/analysis/*", frozenset({"REP003", "REP006", "REP007"})),
    ("benchmarks/*", frozenset({"REP003"})),
    ("tests/*", frozenset()),  # fixtures may violate rules on purpose
]

#: Rules for paths no row matches (top-level modules like repro/errors.py).
DEFAULT_RULES: FrozenSet[str] = frozenset({"REP003", "REP006", "REP007"})

_CACHE: Dict[str, Tuple[Rule, ...]] = {}


def rule_ids_for_path(path: str) -> FrozenSet[str]:
    """The rule ids the policy table selects for a normalized path."""
    for pattern, rule_ids in POLICY:
        if fnmatch(path, pattern):
            return rule_ids
    return DEFAULT_RULES


def rules_for_path(path: str) -> Sequence[Rule]:
    """Instantiated rule objects for a normalized path (cached per rule set)."""
    rule_ids = rule_ids_for_path(path)
    key = ",".join(sorted(rule_ids))
    cached = _CACHE.get(key)
    if cached is None:
        cached = tuple(rule_instances(rule_ids))
        _CACHE[key] = cached
    return cached
