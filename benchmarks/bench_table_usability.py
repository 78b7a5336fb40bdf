"""E8 — §7.5 usability-study table.

Regenerates the quantitative usability claims from the behaviour model
calibrated to the published study: the 83 % registration success rate, the
SUS score ≈70.4, the 47 % / 10 % malicious-kiosk detection rates, and the
derived probability that a malicious kiosk survives 50 (resp. 1000) voters
undetected (<1 %, ≈2⁻¹⁵²).
"""

from __future__ import annotations

import math

import pytest

from figures.tables import ResultTable
from repro.security.analysis import kiosk_undetected_probability
from figures.usability.study import UsabilityStudy

PAPER = {
    "participants": 150,
    "success_rate": 0.83,
    "sus": 70.4,
    "detection_educated": 0.47,
    "detection_uneducated": 0.10,
}


def test_usability_study_table():
    results = UsabilityStudy(participants=150, seed=7).run()

    table = ResultTable(
        title="§7.5 — usability study: simulated vs. published",
        columns=["metric", "simulated", "paper"],
    )
    table.add_row("participants", results.participants, PAPER["participants"])
    table.add_row("registration success rate", f"{results.success_rate:.2f}", f"{PAPER['success_rate']:.2f}")
    table.add_row("SUS score", f"{results.sus_mean:.1f}", f"{PAPER['sus']:.1f}")
    table.add_row(
        "kiosk detection (educated)", f"{results.detection_rate_educated:.2f}", f"{PAPER['detection_educated']:.2f}"
    )
    table.add_row(
        "kiosk detection (no education)",
        f"{results.detection_rate_uneducated:.2f}",
        f"{PAPER['detection_uneducated']:.2f}",
    )
    table.add_row(
        "P[kiosk undetected, 50 voters]",
        f"{kiosk_undetected_probability(PAPER['detection_uneducated'], 50):.4f}",
        "< 0.01",
    )
    table.add_row(
        "P[kiosk undetected, 1000 voters]",
        f"2^{math.log2(kiosk_undetected_probability(PAPER['detection_uneducated'], 1000)):.0f}",
        "≈ 2^-152",
    )
    table.print()

    assert results.success_rate == pytest.approx(PAPER["success_rate"], abs=0.08)
    assert results.sus_mean == pytest.approx(PAPER["sus"], abs=5)
    assert results.detection_rate_educated > results.detection_rate_uneducated
    assert kiosk_undetected_probability(PAPER["detection_uneducated"], 50) < 0.01
    assert math.log2(kiosk_undetected_probability(PAPER["detection_uneducated"], 1000)) == pytest.approx(
        -152, abs=1
    )
