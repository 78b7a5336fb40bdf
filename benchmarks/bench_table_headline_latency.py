"""E5 — §7.2 headline numbers: total voter-observable latency per platform.

The paper reports: slowest platform (L1 kiosk) 19.7 s, fastest (H1 MacBook)
15.8 s, QR print+scan ≥ 69.5 % of wall-clock, ≈7 s of QR scanning per run, and
L-devices at most ≈19.8 % slower than H-devices.  This bench regenerates that
summary row per platform and compares it against the published values.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import ResultTable
from repro.peripherals.clock import Component
from repro.peripherals.hardware import HARDWARE_PROFILES
from repro.registration.protocol import run_registration
from repro.registration.setup import ElectionSetup
from repro.registration.voter import Voter

PAPER_TOTALS = {"L1": 19.7, "H1": 15.8}


def test_headline_registration_latency(paper_curve):
    voter_ids = [f"headline-{key}" for key in HARDWARE_PROFILES]
    setup = ElectionSetup.run(paper_curve, voter_ids, num_authority_members=4)

    measured = {}
    for profile_key, voter_id in zip(HARDWARE_PROFILES, voter_ids):
        outcome = run_registration(setup, Voter(voter_id, num_fake_credentials=1), profile_key)
        scan = outcome.latency.wall_seconds_for(Component.QR_SCAN)
        printing = outcome.latency.wall_seconds_for(Component.QR_PRINT)
        measured[profile_key] = {
            "total": outcome.total_wall_seconds,
            "scan": scan,
            "print": printing,
            "qr_share": (scan + printing) / outcome.total_wall_seconds,
        }

    table = ResultTable(
        title="§7.2 — voter-observable registration latency (1 real + 1 fake credential)",
        columns=["hardware", "measured total", "paper total", "QR scan", "QR print", "QR share"],
    )
    for profile_key, stats in measured.items():
        paper = PAPER_TOTALS.get(profile_key)
        table.add_row(
            profile_key,
            f"{stats['total']:.1f} s",
            f"{paper:.1f} s" if paper else "—",
            f"{stats['scan']:.1f} s",
            f"{stats['print']:.1f} s",
            f"{stats['qr_share'] * 100:.1f} %",
        )
    table.print()

    # Paper's observations as assertions on the measured shape.
    slowest = max(measured.values(), key=lambda stats: stats["total"])["total"]
    fastest = min(measured.values(), key=lambda stats: stats["total"])["total"]
    assert slowest == pytest.approx(PAPER_TOTALS["L1"], rel=0.25)
    assert fastest == pytest.approx(PAPER_TOTALS["H1"], rel=0.25)
    assert measured["L1"]["total"] > measured["H1"]["total"]
    for stats in measured.values():
        assert stats["qr_share"] >= 0.695
        assert 5.0 <= stats["scan"] <= 9.0  # ≈7 s of QR scanning per run
