"""Generic Σ-protocol machinery: interactive transcripts and printing order.

TRIP's central trick (§4.3) is that a Σ-protocol transcript proves nothing by
itself — soundness comes from the *order* in which the three moves happened:

* **sound** order:   prover commits, verifier picks a fresh challenge, prover
  responds — only a prover who knows the witness can answer;
* **unsound** order: the prover learns the challenge first and runs the
  honest-verifier simulator, producing a transcript that verifies perfectly
  but proves nothing.

This module captures that distinction explicitly.  A
:class:`SigmaTranscript` is the paper artefact (what is printed on the
receipt); a :class:`SigmaSession` records the *order* of moves (what the
voter observes in the booth) and refuses to emit a "sound" transcript if the
challenge was supplied before the commit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List

from repro.crypto.hashing import scalar_bytes
from repro.errors import ProtocolError


class Move(enum.Enum):
    """The three moves of a Σ-protocol."""

    COMMIT = "commit"
    CHALLENGE = "challenge"
    RESPONSE = "response"


SOUND_ORDER = (Move.COMMIT, Move.CHALLENGE, Move.RESPONSE)
UNSOUND_ORDER = (Move.CHALLENGE, Move.COMMIT, Move.RESPONSE)


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
    def is_complete(self) -> bool:
        return len(self.moves) == 3

    @property
    def is_sound_order(self) -> bool:
        """True iff the moves followed commit → challenge → response."""
        return tuple(self.moves) == SOUND_ORDER

    @property
    def observed_order(self) -> tuple:
        return tuple(self.moves)


@dataclass(frozen=True)
class SigmaTranscript:
    """A (commit, challenge, response) triple as printed on paper.

    Deliberately order-free: given only the transcript, a coercer cannot tell
    whether the commit or the challenge came first, which is exactly why fake
    credentials are indistinguishable from real ones once printed.
    """

    statement: bytes
    commit: bytes
    challenge: int
    response: int

    def fingerprint(self) -> bytes:
        from repro.crypto.hashing import sha256

        return sha256(
            self.statement,
            self.commit,
            scalar_bytes(self.challenge),
            scalar_bytes(self.response),
        )


def require_move_order(session: SigmaSession, expected: tuple, context: str = "") -> None:
    """Raise :class:`ProtocolError` unless the session followed ``expected``."""
    if tuple(session.moves) != expected:
        raise ProtocolError(
            f"Σ-protocol moves out of order{f' in {context}' if context else ''}: "
            f"observed {[m.value for m in session.moves]}"
        )
