"""Generic Σ-protocol machinery: interactive transcripts and printing order.

TRIP's central trick (§4.3) is that a Σ-protocol transcript proves nothing by
itself — soundness comes from the *order* in which the three moves happened:

* **sound** order:   prover commits, verifier picks a fresh challenge, prover
  responds — only a prover who knows the witness can answer;
* **unsound** order: the prover learns the challenge first and runs the
  honest-verifier simulator, producing a transcript that verifies perfectly
  but proves nothing.

This module captures that distinction explicitly.  The printed transcript
(:class:`~repro.crypto.chaum_pedersen.ChaumPedersenTranscript`) carries no
trace of the order; a :class:`SigmaSession` records the *order* of moves
(what the voter observes in the booth), and only commit → challenge →
response reads as sound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List

from repro.errors import ProtocolError


class Move(enum.Enum):
    """The three moves of a Σ-protocol."""

    COMMIT = "commit"
    CHALLENGE = "challenge"
    RESPONSE = "response"


SOUND_ORDER = (Move.COMMIT, Move.CHALLENGE, Move.RESPONSE)


@dataclass
class SigmaSession:
    """Records the observable order of Σ-protocol moves in a session.

    The voter in the booth cannot check any algebra, but they *can* observe
    which of the commit / challenge steps happened first (it is materialized
    as the order of printing versus envelope scanning).  This object is that
    observation.
    """

    moves: List[Move] = field(default_factory=list)

    def record(self, move: Move) -> None:
        if move in self.moves:
            raise ProtocolError(f"duplicate Σ-protocol move: {move.value}")
        self.moves.append(move)

    @property
    def is_sound_order(self) -> bool:
        """True iff the moves followed commit → challenge → response."""
        return tuple(self.moves) == SOUND_ORDER
