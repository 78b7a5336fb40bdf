"""E2 — Figure 4b: CPU (user+system) median latency per TRIP sub-task and hardware.

The CPU decomposition shows the other half of the §7.2 story: the
resource-constrained devices (L1/L2) burn ≈260 % more CPU (and ≈380 % more on
print-job rendering) yet their wall-clock rises only ≈16.5 %, because the
mechanical print/scan time dominates end-to-end latency.
"""

from __future__ import annotations

from typing import Dict


from repro.bench.harness import ResultTable
from repro.peripherals.clock import Component
from repro.peripherals.hardware import HARDWARE_PROFILES
from benchmarks.bench_fig4a_registration_latency import (
    PHASES,
    RUNS_PER_PROFILE,
    _median_by_phase_component,
    _scripted_registrations,
)


def test_fig4b_cpu_by_phase_and_component(paper_curve):
    """Regenerate Fig. 4b (CPU medians) and check the L-vs-H CPU relations."""
    cpu_results: Dict[str, Dict[str, Dict[Component, float]]] = {}
    wall_results: Dict[str, Dict[str, Dict[Component, float]]] = {}
    for profile_key in HARDWARE_PROFILES:
        outcomes = _scripted_registrations(paper_curve, profile_key, RUNS_PER_PROFILE)
        cpu_results[profile_key] = _median_by_phase_component(outcomes, cpu=True)
        wall_results[profile_key] = _median_by_phase_component(outcomes, cpu=False)

    table = ResultTable(
        title="Fig. 4b — median CPU latency per TRIP sub-task (seconds)",
        columns=["phase", "hardware", "Crypto & Logic", "QR Read/Write", "QR Scan", "QR Print", "total"],
    )
    for phase in PHASES:
        for profile_key in HARDWARE_PROFILES:
            components = cpu_results[profile_key].get(phase, {})
            table.add_row(
                phase,
                profile_key,
                f"{components.get(Component.CRYPTO, 0.0):.3f}",
                f"{components.get(Component.QR_READ_WRITE, 0.0):.3f}",
                f"{components.get(Component.QR_SCAN, 0.0):.3f}",
                f"{components.get(Component.QR_PRINT, 0.0):.3f}",
                f"{sum(components.values()):.3f}",
            )
    table.print()

    def total_cpu(profile_key: str) -> float:
        return sum(sum(components.values()) for components in cpu_results[profile_key].values())

    def total_wall(profile_key: str) -> float:
        return sum(sum(components.values()) for components in wall_results[profile_key].values())

    def print_cpu(profile_key: str) -> float:
        return sum(
            components.get(Component.QR_PRINT, 0.0) for components in cpu_results[profile_key].values()
        )

    # Paper observations: CPU on L devices ≈2.6-3.6× higher; print rendering ≈4-5×
    # higher; wall-clock increase stays modest.
    assert total_cpu("L1") > 2.0 * total_cpu("H1")
    assert print_cpu("L1") > 3.5 * print_cpu("H1")
    wall_increase = (total_wall("L1") - total_wall("H1")) / total_wall("H1")
    assert wall_increase < 0.35, "wall-clock penalty of constrained hardware stays modest"
