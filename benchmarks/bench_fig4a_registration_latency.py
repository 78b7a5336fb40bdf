"""E1 — Figure 4a: wall-clock median latency per TRIP sub-task and hardware.

Reproduces the decomposition of voter-observable registration latency into
phases (CheckIn, Authorization, RealToken, FakeToken, CheckOut, Activation)
and components (Crypto & Logic, QR Read/Write, QR Scan, QR Print) across the
four hardware profiles L1/L2/H1/H2, for a scripted registration issuing one
real and one fake credential (the paper's §7.2 experiment).
"""

from __future__ import annotations

import statistics
from typing import Dict, List


from repro.bench.harness import ResultTable
from repro.peripherals.clock import Component
from repro.peripherals.hardware import HARDWARE_PROFILES
from repro.registration.protocol import run_registration
from repro.registration.setup import ElectionSetup
from repro.registration.voter import Voter

RUNS_PER_PROFILE = 3
PHASES = ["CheckIn", "Authorization", "RealToken", "FakeToken", "CheckOut", "Activation"]


def _scripted_registrations(group, profile_key: str, runs: int) -> List:
    voter_ids = [f"fig4a-{profile_key}-{index}" for index in range(runs)]
    setup = ElectionSetup.run(group, voter_ids, num_authority_members=4, envelopes_per_voter=3)
    outcomes = []
    for voter_id in voter_ids:
        outcomes.append(run_registration(setup, Voter(voter_id, num_fake_credentials=1), profile_key))
    return outcomes


def _median_by_phase_component(outcomes, cpu: bool = False) -> Dict[str, Dict[Component, float]]:
    accumulator: Dict[str, Dict[Component, List[float]]] = {}
    for outcome in outcomes:
        table = outcome.latency.cpu_by_phase_component() if cpu else outcome.latency.wall_by_phase_component()
        for phase, components in table.items():
            for component, value in components.items():
                accumulator.setdefault(phase, {}).setdefault(component, []).append(value)
    return {
        phase: {component: statistics.median(values) for component, values in components.items()}
        for phase, components in accumulator.items()
    }


def test_fig4a_wall_clock_by_phase_and_component(paper_curve):
    """Regenerate Fig. 4a."""
    results: Dict[str, Dict[str, Dict[Component, float]]] = {}
    for profile_key in HARDWARE_PROFILES:
        outcomes = _scripted_registrations(paper_curve, profile_key, RUNS_PER_PROFILE)
        results[profile_key] = _median_by_phase_component(outcomes)

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
                f"{components.get(Component.CRYPTO, 0.0):.3f}",
                f"{components.get(Component.QR_READ_WRITE, 0.0):.3f}",
                f"{components.get(Component.QR_SCAN, 0.0):.3f}",
                f"{components.get(Component.QR_PRINT, 0.0):.3f}",
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
