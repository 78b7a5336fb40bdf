"""The ledger store's rules on the three sub-ledgers, kind by kind."""

import pytest

from repro.crypto.elgamal import ElGamal
from repro.crypto.hashing import sha256
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign
from repro.errors import LedgerError
from repro.ledger.backends.memory import MemoryBackend
from repro.ledger.records import (
    BallotRecord,
    EnvelopeCommitmentRecord,
    EnvelopeUsageRecord,
    RegistrationRecord,
    RollEntry,
)


@pytest.fixture()
def populated_board(group):
    board = MemoryBackend()
    board.append_many([RollEntry("alice"), RollEntry("bob")])
    return board


def _registration_record(group, voter_id="alice"):
    kiosk = schnorr_keygen(group)
    official = schnorr_keygen(group)
    elgamal = ElGamal(group)
    credential = schnorr_keygen(group)
    tag = elgamal.encrypt(group.power(5), credential.public)
    return RegistrationRecord(
        voter_id=voter_id,
        public_credential_c1=tag.c1,
        public_credential_c2=tag.c2,
        kiosk_public_key=kiosk.public,
        kiosk_signature=schnorr_sign(kiosk, b"ticket"),
        official_public_key=official.public,
        official_signature=schnorr_sign(official, b"approval"),
    )


class TestElectoralRoll:
    def test_roll_published(self, populated_board):
        assert [entry.voter_id for entry in populated_board.read(RollEntry).records] == ["alice", "bob"]
        assert populated_board.get(RollEntry, "alice") is not None
        assert populated_board.get(RollEntry, "mallory") is None

    def test_duplicate_roll_entry_rejected(self, populated_board):
        with pytest.raises(LedgerError):
            populated_board.append_many([RollEntry("alice")])


class TestRegistrationLedger:
    def test_post_and_lookup(self, group, populated_board):
        record = _registration_record(group)
        populated_board.append(record)
        assert populated_board.get(RegistrationRecord, "alice") == record
        assert len(populated_board.current(RegistrationRecord)) == 1

    def test_ineligible_voter_rejected(self, group, populated_board):
        record = _registration_record(group, voter_id="mallory")
        with pytest.raises(LedgerError):
            populated_board.append(record)

    def test_reregistration_supersedes(self, group, populated_board):
        first = _registration_record(group)
        second = _registration_record(group)
        populated_board.append(first)
        populated_board.append(second)
        assert populated_board.get(RegistrationRecord, "alice") == second
        assert len(populated_board.current(RegistrationRecord)) == 1
        assert len(populated_board.history(RegistrationRecord, "alice")) == 2

    def test_active_registrations_one_per_voter(self, group, populated_board):
        populated_board.append(_registration_record(group, "alice"))
        populated_board.append(_registration_record(group, "bob"))
        populated_board.append(_registration_record(group, "alice"))
        assert len(populated_board.current(RegistrationRecord)) == 2


class TestEnvelopeLedger:
    def test_commitment_roundtrip(self, group, populated_board):
        printer = schnorr_keygen(group)
        challenge_hash = sha256(b"challenge")
        record = EnvelopeCommitmentRecord(printer.public, challenge_hash, schnorr_sign(printer, challenge_hash))
        populated_board.append(record)
        assert populated_board.get(EnvelopeCommitmentRecord, challenge_hash) == record
        assert populated_board.count(EnvelopeCommitmentRecord) == 1

    def test_usage_duplicate_detection(self, populated_board):
        usage = EnvelopeUsageRecord(challenge=123, challenge_hash=sha256(b"123"))
        populated_board.append(usage)
        assert populated_board.get(EnvelopeUsageRecord, sha256(b"123")) is not None
        with pytest.raises(LedgerError):
            populated_board.append(usage)

    def test_usage_count_is_aggregate_only(self, populated_board):
        for value in range(4):
            populated_board.append(
                EnvelopeUsageRecord(challenge=value, challenge_hash=sha256(bytes([value])))
            )
        assert populated_board.count(EnvelopeUsageRecord) == 4


class TestBallotLedger:
    def test_post_and_filter_by_election(self, group, populated_board):
        credential = schnorr_keygen(group)
        elgamal = ElGamal(group)
        ciphertext = elgamal.encrypt(group.power(3), group.power(1))
        record = BallotRecord(
            credential_public_key=credential.public,
            ciphertext_c1=ciphertext.c1,
            ciphertext_c2=ciphertext.c2,
            signature=schnorr_sign(credential, b"ballot"),
            election_id="2026-06",
        )
        populated_board.append(record)
        assert populated_board.count(BallotRecord) == 1
        assert populated_board.read(BallotRecord, key="2026-06").records == [record]
        assert populated_board.read(BallotRecord, key="other").records == []

    def test_all_chains_verify(self, group, populated_board):
        populated_board.append(_registration_record(group))
        assert populated_board.verify_all_chains()
