"""Σ-protocol session ordering (the voter-observable bit)."""

import pytest

from repro.crypto.sigma import (
    Move,
    SOUND_ORDER,
    SigmaSession,
)
from repro.errors import ProtocolError

#: The simulator's order: the challenge is known before the commit is made.
UNSOUND_ORDER = (Move.CHALLENGE, Move.COMMIT, Move.RESPONSE)


class TestSigmaSession:
    def test_sound_order_detected(self):
        session = SigmaSession()
        for move in SOUND_ORDER:
            session.record(move)
        assert session.is_sound_order

    def test_unsound_order_detected(self):
        session = SigmaSession()
        for move in UNSOUND_ORDER:
            session.record(move)
        assert not session.is_sound_order

    def test_duplicate_move_rejected(self):
        session = SigmaSession()
        session.record(Move.COMMIT)
        with pytest.raises(ProtocolError):
            session.record(Move.COMMIT)

    def test_incomplete_session_not_sound(self):
        session = SigmaSession()
        session.record(Move.COMMIT)
        assert not session.is_sound_order
