"""Baseline e-voting systems used in the paper's evaluation (§7.3–7.4).

The paper compares Votegral/TRIP against three systems:

* **Swiss Post** — end-to-end verifiable, *not* coercion resistant; four
  "control components" mix and decrypt ballots.
* **VoteAgain** — coercion resistant via deniable re-voting; very cheap
  registration, efficient tally, but stronger trust assumptions.
* **Civitas** — the JCJ-lineage coercion-resistant system with fake
  credentials; large-modulus primitives and a *quadratic* PET-based tally.

Each baseline is implemented as a cryptographic cost kernel: the actual group
operations each protocol performs per voter/ballot in each phase, over the
appropriate group (a 256-bit group standing in for elliptic curves, the
2048-bit group for Civitas' large-modulus setting).  That mirrors how the
paper itself evaluates ("simulates each phase of an e-voting system, focusing
on the cryptographic operations"), and preserves the relative ordering and
scaling shapes of Figures 5a/5b.
"""

from figures.baselines.base import PhaseName, PhaseMeasurement, VotingSystemBaseline
from figures.baselines.swisspost import SwissPostSystem
from figures.baselines.voteagain import VoteAgainSystem
from figures.baselines.civitas import CivitasSystem
from figures.baselines.votegral import TripCoreSystem

ALL_SYSTEMS = {
    "SwissPost": SwissPostSystem,
    "VoteAgain": VoteAgainSystem,
    "TRIP-Core": TripCoreSystem,
    "Civitas": CivitasSystem,
}

__all__ = [
    "PhaseName",
    "PhaseMeasurement",
    "VotingSystemBaseline",
    "SwissPostSystem",
    "VoteAgainSystem",
    "CivitasSystem",
    "TripCoreSystem",
    "ALL_SYSTEMS",
]
