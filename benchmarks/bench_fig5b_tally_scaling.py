"""E4/E7 — Figure 5b: tally-phase latency versus voter population.

Regenerates the tally-scaling series for the four systems from 10² to 10⁶
voters.  Small populations are measured directly; larger ones are
extrapolated from the fitted linear (or, for Civitas, quadratic) cost model —
exactly how the paper extrapolates Civitas beyond 10⁴ voters.  The shape
assertions capture the paper's qualitative result: VoteAgain fastest,
Votegral/TRIP about half of Swiss Post, and Civitas astronomically slower
(≈1,768 years at 10⁶ in the paper; "centuries, not hours" is the property we
check).
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from figures.baselines import ALL_SYSTEMS, PhaseName
from figures.tables import SeriesPoint, series_to_table

POPULATIONS = [100, 1_000, 10_000, 100_000, 1_000_000]
SECONDS_PER_YEAR = 365.25 * 86400


def test_fig5b_tally_scaling(baseline_systems):
    points: List[SeriesPoint] = []
    totals: Dict[str, Dict[int, float]] = {}
    for name, (system, sample) in baseline_systems.items():
        totals[name] = {}
        for population in POPULATIONS:
            measurement = system.estimate_phase(PhaseName.TALLY, population, sample_voters=sample)
            totals[name][population] = measurement.wall_seconds
            points.append(
                SeriesPoint(series=name, x=population, y=measurement.wall_seconds, extrapolated=measurement.extrapolated)
            )

    table = series_to_table("Fig. 5b — tally-phase wall-clock latency (* = extrapolated)", points)
    table.print()

    at_million = {name: totals[name][1_000_000] for name in ALL_SYSTEMS}

    # Ordering: VoteAgain < TRIP-Core < SwissPost ≪ Civitas.
    assert at_million["VoteAgain"] < at_million["TRIP-Core"] < at_million["SwissPost"]
    # Swiss Post roughly 2× Votegral (27 h vs 14 h in the paper).
    assert 1.3 < at_million["SwissPost"] / at_million["TRIP-Core"] < 4.0
    # Civitas' quadratic tally lands in the "centuries" regime at one million ballots.
    assert at_million["Civitas"] / SECONDS_PER_YEAR > 100
    # Linear systems scale ~10× per decade of voters; Civitas ~100×.
    assert totals["TRIP-Core"][1_000_000] / totals["TRIP-Core"][100_000] == pytest.approx(10, rel=0.4)
    assert totals["Civitas"][1_000_000] / totals["Civitas"][100_000] == pytest.approx(100, rel=0.5)
