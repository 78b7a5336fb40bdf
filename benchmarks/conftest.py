"""Shared fixtures for the paper-figure scripts.

Each ``bench_*.py`` module regenerates one table or figure of the paper's
evaluation (§7) as a plain pytest test: it prints the table (run with ``-s``
to see it inline) and asserts the figure's shape.  The figures' numbers come
from the simulated peripheral clocks and the baselines' cost models, so no
timing plugin is involved; the systems benchmark is ``benchmarks/e2e``.
"""

from __future__ import annotations

import pytest

from repro.baselines import ALL_SYSTEMS
from repro.crypto.ed25519 import ed25519_group
from repro.crypto.modp_group import modp_group_256

#: Voters each Fig. 5 system is measured on before its cost model extrapolates.
SAMPLE = 40
# Civitas runs over the 2048-bit group; a smaller sample keeps the bench quick
# without changing the fitted per-voter/per-pair constants meaningfully.
CIVITAS_SAMPLE = 12


@pytest.fixture(scope="session")
def paper_curve():
    """The paper's curve (edwards25519), used for the TRIP latency figures."""
    return ed25519_group()


@pytest.fixture
def baseline_systems():
    """Fig. 5's four systems, each with the voter sample its phases are measured on.

    A 256-bit mod-p group stands in for elliptic curves in the cross-system figures.
    """
    group = modp_group_256()
    return {
        name: (cls(), CIVITAS_SAMPLE) if name == "Civitas" else (cls(group), SAMPLE)
        for name, cls in ALL_SYSTEMS.items()
    }
