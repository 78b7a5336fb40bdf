"""The benchmark's names: workloads, sizes, metrics, bounds.

``BENCHMARK.json`` at the repository root is the contract the driver reads;
it can hold only names, units, directions and relative bounds.  Everything
else a reader needs — final sizes, which phase metric belongs to which
workload — lives here, and the smoke test checks that the two agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT_PATH = ROOT / "BENCHMARK.json"

WORKLOADS = (
    "election_ed25519",
    "tally_modp2048",
    "tally_modp256_cluster2",
    "cast_single",
    "cast_bulk",
)

#: Final sizes.  The issue's starting points (48 voters and 4 mixers; 6 voters
#: and 2 mixers; 600 voters; 20 s at 100/s; 65 536 casts) are scaled down so
#: that one repetition — set-up, register, cast, tally, audit — takes a few
#: seconds and a 10-second run holds several: the driver makes 114 runs in 57
#: minutes.  Fewer mixers and authority members also mean less work per
#: ballot than at the issue's sizes; only the kind of work is the same.
SIZES: Dict[str, Dict[str, object]] = {
    "election_ed25519": {
        "group": "ed25519", "voters": 3, "options": 3, "mixers": 2, "proof_rounds": 2,
        "authority_members": 4, "executor": "serial", "pipeline": "serial",
        "board": "memory", "audit": "batched", "evidence": True,
    },
    "tally_modp2048": {
        "group": "modp-2048", "voters": 2, "options": 2, "mixers": 1, "proof_rounds": 2,
        "authority_members": 2, "executor": "serial", "pipeline": "serial",
        "board": "memory", "audit": "batched", "evidence": True,
    },
    "tally_modp256_cluster2": {
        "group": "modp-256", "voters": 64, "options": 3, "mixers": 4, "proof_rounds": 2,
        "authority_members": 4, "executor": "cluster:2", "pipeline": "stream:16",
        "board": "batched:64:sqlite:<tmpfile>", "audit": "dist:256", "evidence": True,
    },
    "cast_single": {
        "group": "toy", "voters": 48, "options": 2, "mixers": 2, "proof_rounds": 2,
        "authority_members": 3, "board": "sqlite:<tmpfile>",
        "connections": 2, "ballots_per_request": 1, "rate_per_s": 100, "loop_seconds": 1.0,
        "warmup_casts": 20, "healthz_round_trips": 100,
        "late_threshold_ms": 5.0, "max_late_share": 0.25, "replay_page_size": 1024,
    },
    "cast_bulk": {
        "group": "toy", "voters": 48, "options": 2, "mixers": 2, "proof_rounds": 2,
        "authority_members": 3, "board": "sqlite:<tmpfile>",
        "connections": 1, "ballots_per_request": 64, "distinct_wires": 1024, "passes": 8,
        "healthz_round_trips": 100, "replay_page_size": 1024,
    },
}

#: ``--smoke`` sizes: every code path, no meaningful numbers.
SMOKE_SIZES: Dict[str, Dict[str, object]] = {
    "election_ed25519": {"group": "toy", "voters": 3, "mixers": 2, "authority_members": 3},
    "tally_modp2048": {"group": "toy", "voters": 3, "mixers": 2, "authority_members": 3},
    "tally_modp256_cluster2": {"group": "toy", "voters": 12, "mixers": 2, "pipeline": "stream:4",
                               "board": "batched:4:sqlite:<tmpfile>", "audit": "dist:32"},
    "cast_single": {"voters": 2, "loop_seconds": 0.3, "warmup_casts": 4, "healthz_round_trips": 10},
    "cast_bulk": {"voters": 2, "distinct_wires": 128, "passes": 2, "healthz_round_trips": 10},
}


def sizes_for(workload: str, smoke: bool) -> Dict[str, object]:
    sizes = dict(SIZES[workload])
    if smoke:
        sizes.update(SMOKE_SIZES[workload])
    return sizes


#: The phases every workload has, by the name of the end-to-end metric that
#: times them; with ``setup_s`` and ``peak_rss_mb`` they are what the driver gates.
UNIVERSAL_PHASES = ("register_ms_per_voter", "cast_ms_per_ballot", "tally_s", "audit_s")


@dataclass(frozen=True)
class PhaseMetric:
    """One of the issue's named end-to-end quantities that only some workloads have.

    ``BENCHMARK.json`` wants every end-to-end metric from every workload, so
    these ride in its per-layer list (0 where a workload lacks one) and
    ``compare.py`` gates them with the bounds given here.
    """

    name: str
    unit: str
    better: str
    bound: float
    workloads: Tuple[str, ...]


PHASE_METRICS: Tuple[PhaseMetric, ...] = (
    PhaseMetric("election_s", "s", "lower", 0.25, ("election_ed25519",)),
    PhaseMetric("vote_ms_per_voter", "ms", "lower", 0.25, ("election_ed25519",)),
    PhaseMetric("cast_p50_ms", "ms", "lower", 0.25, ("cast_single",)),
    PhaseMetric("casts_per_s", "1/s", "higher", 0.25, ("cast_bulk",)),
    PhaseMetric("drain_replay_s", "s", "lower", 0.25, ("cast_bulk",)),
)

#: A ``setup_s`` that moves by less than this many seconds is never a
#: regression (``compare.py`` only; the driver applies the relative bound alone).
SETUP_FLOOR_SECONDS = 0.5


def load_contract() -> dict:
    return json.loads(CONTRACT_PATH.read_text())


def per_layer_names(contract: dict) -> List[str]:
    return [metric["name"] for metric in contract["per_layer"]]


def end_to_end_names(contract: dict) -> List[str]:
    return [metric["name"] for metric in contract["end_to_end"]]
