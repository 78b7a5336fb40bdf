"""E1 — Figure 4a: wall-clock median latency per TRIP sub-task and hardware.

Reproduces the decomposition of voter-observable registration latency into
phases (CheckIn, Authorization, RealToken, FakeToken, CheckOut, Activation)
and components (Crypto & Logic, QR Read/Write, QR Scan, QR Print) across the
four hardware profiles L1/L2/H1/H2, for a scripted registration issuing one
real and one fake credential (the paper's §7.2 experiment).

The registrations run once, under a ``mem`` telemetry sink; each hardware
profile is applied to the same traces (:mod:`figures.latency`).
"""

from __future__ import annotations

from typing import Dict, List

from figures.hardware import HARDWARE_PROFILES
from figures.latency import (
    COMPONENTS,
    PHASES,
    Table,
    median_by_phase_component,
    trace_registrations,
)
from figures.tables import ResultTable
from repro.registration.setup import ElectionSetup
from repro.registration.voter import Voter

RUNS = 3


def _scripted_registrations(group, runs: int) -> List:
    """The span events of ``runs`` registrations, one real and one fake credential each."""
    voter_ids = [f"fig4a-{index}" for index in range(runs)]
    setup = ElectionSetup.run(group, voter_ids, num_authority_members=4, envelopes_per_voter=3)
    return trace_registrations(setup, [Voter(voter_id, num_fake_credentials=1) for voter_id in voter_ids])


def test_fig4a_wall_clock_by_phase_and_component(paper_curve):
    """Regenerate Fig. 4a."""
    traces = _scripted_registrations(paper_curve, RUNS)
    results: Dict[str, Table] = {
        profile_key: median_by_phase_component(traces, profile) for profile_key, profile in HARDWARE_PROFILES.items()
    }

    table = ResultTable(
        title="Fig. 4a — median wall-clock latency per TRIP sub-task (seconds)",
        columns=["phase", "hardware", "Crypto & Logic", "QR Read/Write", "QR Scan", "QR Print", "total"],
    )
    for phase in PHASES:
        for profile_key in HARDWARE_PROFILES:
            components = results[profile_key].get(phase, {})
            row = [
                phase,
                profile_key,
                *(f"{components.get(component, 0.0):.3f}" for component in COMPONENTS),
                f"{sum(components.values()):.3f}",
            ]
            table.add_row(*row)
    table.print()

    # Shape assertions mirroring the paper's observations.
    for profile_key in HARDWARE_PROFILES:
        per_phase_totals = {
            phase: sum(results[profile_key].get(phase, {}).values()) for phase in PHASES
        }
        total = sum(per_phase_totals.values())
        assert total < 25.0, "voter-observable latency stays within booth time scales"
        assert max(per_phase_totals.values()) < 8.0, "no single phase exceeds the paper's ≈6.5 s envelope by far"
