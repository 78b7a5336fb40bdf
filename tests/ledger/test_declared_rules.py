"""The store's rules come from the record classes, for every kind alike.

A commitment is unique by H(e), as a usage is: a repeat is refused on every
store, and sequence numbers stay 0, 1, 2, ….  And a new kind is one class
declaration: the store appends, indexes, reads, chains and persists it with
no method of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.crypto.hashing import sha256
from repro.crypto.modp_group import testing_group
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign
from repro.errors import LedgerError
from repro.ledger.api import board_from_spec
from repro.ledger.records import EnvelopeCommitmentRecord, L_E, RECORD_TYPES, Record, described


@pytest.fixture(scope="module")
def group():
    return testing_group()


@pytest.fixture(params=["memory", "batched:8", "sqlite:"])
def store(request, group, tmp_path):
    spec = request.param + str(tmp_path / "board.db") if request.param == "sqlite:" else request.param
    store = board_from_spec(spec, group=group)
    yield store
    store.close()


def commitment(group, challenge):
    printer = schnorr_keygen(group)
    challenge_hash = sha256(b"challenge", bytes([challenge]))
    return EnvelopeCommitmentRecord(printer.public, challenge_hash, schnorr_sign(printer, challenge_hash))


def test_a_repeated_commitment_is_refused_and_sequence_numbers_stay_dense(store, group):
    first = store.append(commitment(group, 1))
    with pytest.raises(LedgerError, match="already used"):
        store.append(commitment(group, 1))
    second = store.append(commitment(group, 2))
    assert [first, second] == [0, 1]
    assert len(store.envelope_log) == store.count(EnvelopeCommitmentRecord) == 2
    assert store.verify_all_chains()


@pytest.fixture()
def note_kind():
    """A throwaway kind on ``L_E``, keyed and unique; unregistered afterwards
    so no other test's store has its table."""

    @dataclass(frozen=True)
    class EnvelopeNote(
        Record, tag=b"envelope-note", table="envelope_notes", chain=L_E, key="challenge_hash", unique=True
    ):
        challenge_hash: bytes = described("H(e) the note is about")
        text: str = described("the note", max_length=64)

    yield EnvelopeNote
    RECORD_TYPES.remove(EnvelopeNote)


@pytest.mark.parametrize("spec", ["memory", "sqlite:"])
def test_a_new_kind_needs_no_store_method(note_kind, spec, group, tmp_path):
    path = tmp_path / "notes.db"
    store = board_from_spec(spec + str(path) if spec == "sqlite:" else spec, group=group)
    notes = [note_kind(sha256(bytes([index])), f"note {index}") for index in range(3)]
    assert store.append(notes[0]) == 0
    store.append(commitment(group, 7))  # shares L_E with the notes
    assert store.append_many(notes[1:]) == [1, 2]
    with pytest.raises(LedgerError, match="already used"):
        store.append(notes[1])

    assert store.get(note_kind, notes[2].challenge_hash) == notes[2]
    page = store.read(note_kind, since=1, limit=1)
    assert (page.records, page.next_cursor, page.has_more) == ([notes[1]], 2, True)
    assert store.count(note_kind) == 3
    assert len(store.envelope_log) == 4
    head = store.envelope_log.head()
    store.close()

    if spec == "sqlite:":
        reopened = board_from_spec(f"sqlite:{path}", group=group)
        assert reopened.read(note_kind).records == notes
        assert reopened.envelope_log.head() == head
        assert reopened.verify_all_chains()
        reopened.close()
