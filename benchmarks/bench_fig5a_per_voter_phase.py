"""E3/E6/E7 — Figure 5a: per-voter latency per phase across systems.

Reproduces the per-voter registration, voting and tally latencies for
Swiss Post, VoteAgain, TRIP-Core and Civitas as the voter population grows
(measured directly at small populations, extrapolated to 10⁶ like the paper
extrapolates Civitas).  The absolute milliseconds differ from the paper's Go
prototype (pure Python vs. native code), but the orders-of-magnitude
relations of §7.3/§7.4 are asserted:

* registration: VoteAgain < TRIP-Core < Swiss Post ≪ Civitas;
* voting: TRIP-Core cheapest, Civitas two orders of magnitude slower;
* voting latency is population-independent.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.baselines import ALL_SYSTEMS, PhaseName
from repro.bench.harness import ResultTable, format_seconds

POPULATIONS = [100, 1_000_000]


def test_fig5a_per_voter_latency(baseline_systems):
    per_voter: Dict[str, Dict[str, Dict[int, float]]] = {}
    for name, (system, sample) in baseline_systems.items():
        per_voter[name] = {}
        for phase in PhaseName:
            per_voter[name][phase.value] = {}
            for population in POPULATIONS:
                measurement = system.estimate_phase(phase, population, sample_voters=sample)
                per_voter[name][phase.value][population] = measurement.per_voter_seconds

    table = ResultTable(
        title="Fig. 5a — per-voter wall-clock latency by phase (measured@100, extrapolated@10^6)",
        columns=["system", "phase", "per-voter @100", "per-voter @10^6"],
    )
    for name in ALL_SYSTEMS:
        for phase in PhaseName:
            values = per_voter[name][phase.value]
            table.add_row(name, phase.value, format_seconds(values[100]), format_seconds(values[1_000_000]))
    table.print()

    registration = {name: per_voter[name]["Registration"][1_000_000] for name in ALL_SYSTEMS}
    voting = {name: per_voter[name]["Voting"][1_000_000] for name in ALL_SYSTEMS}

    # §7.3: registration ordering and magnitudes.
    assert registration["VoteAgain"] < registration["TRIP-Core"] < registration["SwissPost"]
    assert registration["Civitas"] > 50 * registration["TRIP-Core"]

    # §7.4: voting — TRIP cheapest, Civitas far slower, population-independent.
    assert voting["TRIP-Core"] == min(voting.values())
    assert voting["Civitas"] > 20 * voting["TRIP-Core"]
    for name in ALL_SYSTEMS:
        small = per_voter[name]["Voting"][100]
        large = per_voter[name]["Voting"][1_000_000]
        assert large == pytest.approx(small, rel=0.6)
