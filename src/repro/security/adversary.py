"""The coercion adversary (§4.1, Appendix D.2).

A :class:`Coercer` can, before registration, demand that a voter create a
specific number of fake credentials and hand "all" credentials over; during
voting it can demand a specific vote; afterwards it observes the public
ledger (the registration records, the aggregate envelope usage and the tally)
and tries to decide whether the voter complied.  It cannot compromise the
registrar, observe the booth, or see the VSD holding the real credential.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.ledger.api import as_board_view
from repro.ledger.bulletin_board import BulletinBoard
from repro.ledger.records import BallotRecord, EnvelopeUsageRecord, RegistrationRecord
from repro.registration.materials import PaperCredential
from repro.registration.voter import Voter
from repro.voting.client import VotingClient


@dataclass(frozen=True)
class CoercionDemand:
    """What the coercer demands of the target voter."""

    demanded_fake_credentials: int
    demanded_vote: int

    @property
    def demanded_total_credentials(self) -> int:
        """The coercer expects this many credentials handed over ("all of them")."""
        return self.demanded_fake_credentials + 1


@dataclass
class Coercer:
    """A coercion adversary interacting with one target voter."""

    demand: CoercionDemand
    surrendered: List[PaperCredential] = field(default_factory=list)
    observed_votes: List[int] = field(default_factory=list)

    # -------------------------------------------------------------- interactions

    def collect_credentials(self, voter: Voter) -> List[PaperCredential]:
        """Take the credentials the voter hands over (all claimed real/fake mix)."""
        handed_over = voter.surrender_credentials_to_coercer(self.demand.demanded_total_credentials) \
            if len(voter.fake_credentials()) >= self.demand.demanded_total_credentials \
            else [c.coercer_view() for c in voter.credentials if not c.is_real] or \
                 [voter.credentials[0].coercer_view()]
        self.surrendered = handed_over
        return handed_over

    def supervise_vote(self, client: VotingClient, num_options: int, election_id: str = "default") -> None:
        """Force the voter to cast the demanded vote in the coercer's presence.

        The voter complies *visibly* using a fake credential; the coercer
        cannot tell it is fake.
        """
        client.cast_fake(self.demand.demanded_vote, num_options, election_id=election_id)
        self.observed_votes.append(self.demand.demanded_vote)

    # ---------------------------------------------------------------- the guess

    def ledger_view(self, board: BulletinBoard) -> Dict[str, int]:
        """Everything the coercer can read off the public ledger, in aggregate.

        Goes through the read-only :class:`~repro.ledger.api.BoardView` — the
        adversary observes the published board, it never holds a write handle.
        """
        view = as_board_view(board)
        return {
            "registrations": len(view.current(RegistrationRecord)),
            "envelope_challenges_used": view.count(EnvelopeUsageRecord),
            "ballots": view.count(BallotRecord),
        }
