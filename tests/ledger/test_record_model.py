"""The record model: golden payload bytes, derived tables, strict decoders."""

from __future__ import annotations

import sqlite3

import pytest

from repro.crypto.hashing import sha256
from repro.crypto.modp_group import testing_group
from repro.crypto.registry import group_by_name
from repro.crypto.schnorr import SchnorrSignature, schnorr_keygen, schnorr_sign
from repro.errors import LedgerError
from repro.ledger.backends.sqlite import SQLiteBackend
from repro.ledger.bulletin_board import BulletinBoard
from repro.ledger.records import (
    RECORD_TYPES,
    BallotRecord,
    EnvelopeCommitmentRecord,
    EnvelopeUsageRecord,
    MalformedField,
    RegistrationRecord,
    element_width,
)


def fixed_records(group):
    """One fully deterministic record of each type (fixed keys and nonces)."""
    signer = schnorr_keygen(group, secret=7)
    return [
        RegistrationRecord(
            voter_id="voter-0001",
            public_credential_c1=group.power(11),
            public_credential_c2=group.power(12),
            kiosk_public_key=group.power(13),
            kiosk_signature=schnorr_sign(signer, b"kiosk", nonce=21),
            official_public_key=group.power(14),
            official_signature=schnorr_sign(signer, b"official", nonce=22),
        ),
        EnvelopeCommitmentRecord(
            printer_public_key=group.power(15),
            challenge_hash=sha256(b"golden-challenge"),
            printer_signature=schnorr_sign(signer, b"printer", nonce=23),
        ),
        EnvelopeUsageRecord(challenge=123456789, challenge_hash=sha256(b"golden-challenge")),
        BallotRecord(
            credential_public_key=group.power(16),
            ciphertext_c1=group.power(17),
            ciphertext_c2=group.power(18),
            signature=schnorr_sign(signer, b"ballot", nonce=24),
            election_id="golden-election",
        ),
    ]


#: ``payload().hex()`` of :func:`fixed_records`, computed with the hand-written
#: ``payload()`` methods of the commit before the record model (3c217cd).  The
#: cross-backend bit-identity tests compare backends with each other, so a
#: change that moved every payload the same way would pass them; this does not.
GOLDEN = {
    "toy": [
        "8d13d3a99fd97a1930b6eb2cbd4a5f27e63879f158b4250a9e9453ef05115181",
        "542c0c6a4c0bd2a16285567736ebb526d8dd4b25acd04f52fd73b971b7078309",
        "2321314874839f917d1b043617a41ef34954c9a4f00b64a7df19c8208c172aad",
        "a900c3ca417a0ff14ac14b0f771b09f189bf93eaa131f918fc66d917586b889a",
    ],
    "ed25519": [
        "fdb2c73f40bdc158075366eaae8e28cdf1a7f90f40bf5a56a742f18f031206be",
        "26506ffae631658c78461fd1d6ea23ddf00ffcd1289d6a374df138665634632e",
        "2321314874839f917d1b043617a41ef34954c9a4f00b64a7df19c8208c172aad",
        "11fbbd0aabe6416d420d139dbe601a37bff528efef70d535cacc099d686d4439",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_payloads_reproduce_the_golden_digests(name):
    group = testing_group() if name == "toy" else group_by_name(name)
    assert [record.payload().hex() for record in fixed_records(group)] == GOLDEN[name]


def test_every_encoding_is_derived_from_the_one_declaration():
    assert BallotRecord.TABLE == "ballots"
    assert BallotRecord.COLUMNS == (
        ("credential_public_key", "BLOB"),
        ("ciphertext_c1", "BLOB"),
        ("ciphertext_c2", "BLOB"),
        ("signature", "BLOB"),
        ("election_id", "TEXT"),
    )
    assert [(member.name, member.json) for member in BallotRecord.WIRE] == [
        ("credential_public_key", "hex"),
        ("ciphertext_c1", "hex"),
        ("ciphertext_c2", "hex"),
        ("signature_commitment", "hex"),
        ("signature_response", "scalar"),
        ("election_id", "string"),
    ]
    assert [kind.TABLE for kind in RECORD_TYPES] == [
        "roll", "registrations", "envelope_commitments", "envelope_usages", "ballots",
    ]


def test_rows_and_wire_values_round_trip_every_record_type(group):
    for record in fixed_records(group):
        kind = type(record)
        assert len(record.to_row()) == len(kind.COLUMNS)
        assert len(record.to_wire()) == len(kind.WIRE)
        assert kind.from_row(group, record.to_row()) == record
        assert kind.from_wire(group, record.to_wire()) == record


# ----------------------------------------------------------------- strict decoders


def refused(kind, group, row, field):
    with pytest.raises(MalformedField) as excinfo:
        kind.from_row(group, row)
    assert excinfo.value.field == field
    assert isinstance(excinfo.value, LedgerError)


def test_from_row_refuses_what_the_hand_written_decoders_let_through(group):
    ballot = fixed_records(group)[3]
    row = list(ballot.to_row())
    width = element_width(group)
    # A short element: the same integer in fewer bytes.
    refused(BallotRecord, group, [row[0][1:]] + row[1:], "credential_public_key")
    refused(BallotRecord, group, row[:1] + [row[1] + b"\x00"] + row[2:], "ciphertext_c1")
    # A truncated signature blob used to reopen as a different record.
    refused(BallotRecord, group, row[:3] + [row[3][:-1]] + row[4:], "signature")
    refused(BallotRecord, group, row[:3] + [row[3][:width]] + row[4:], "signature")
    # s + q: verifies like s, hashes differently.
    aliased = SchnorrSignature(ballot.signature.commitment, ballot.signature.response + group.order)
    refused(BallotRecord, group, row[:3] + [aliased.to_bytes()] + row[4:], "signature")
    # Wrong Python types and arities are refusals too, not TypeErrors.
    refused(BallotRecord, group, row[:4] + [b"bytes-not-text"], "election_id")
    refused(BallotRecord, group, [None] + row[1:], "credential_public_key")
    refused(BallotRecord, group, row[:-1], "ballots")
    usage = fixed_records(group)[2]
    refused(EnvelopeUsageRecord, group, [usage.to_row()[0][1:], usage.challenge_hash], "challenge")
    refused(EnvelopeUsageRecord, group, [b"\x00" + usage.to_row()[0], usage.challenge_hash], "challenge")


def test_from_wire_refuses_an_unreduced_signature_response(group):
    ballot = fixed_records(group)[3]
    values = list(ballot.to_wire())
    values[4] += group.order
    with pytest.raises(MalformedField) as excinfo:
        BallotRecord.from_wire(group, values)
    assert excinfo.value.field == "signature_response"
    values[4] = True  # a bool is not a scalar
    with pytest.raises(MalformedField):
        BallotRecord.from_wire(group, values)


# ------------------------------------------------------------------- SQLite reopen


def populated_database(path, group):
    board = BulletinBoard(SQLiteBackend(str(path), group=group))
    board.publish_electoral_roll(["voter-0001"])
    for record in fixed_records(group):
        board.store.append(record)
    heads = [log.head().head_hash for log in
             (board.registration_log, board.envelope_log, board.ballot_log)]
    board.close()
    return heads


def test_reopen_reproduces_every_chain_head(tmp_path, group):
    heads = populated_database(tmp_path / "board.db", group)
    reopened = SQLiteBackend(str(tmp_path / "board.db"), group=group)
    assert [log.head().head_hash for log in
            (reopened.registration_log, reopened.envelope_log, reopened.ballot_log)] == heads
    reopened.close()


def tamper(path, statement, *parameters):
    connection = sqlite3.connect(str(path))
    connection.execute(statement, parameters)
    connection.commit()
    connection.close()


def test_a_truncated_signature_blob_is_a_ledger_error_naming_table_and_commit_seq(tmp_path, group):
    path = tmp_path / "board.db"
    populated_database(path, group)
    tamper(path, "UPDATE ballots SET signature = substr(signature, 1, length(signature) - 1)")
    with pytest.raises(LedgerError, match=r"table ballots, commit_seq 4: signature: ") as excinfo:
        SQLiteBackend(str(path), group=group)
    assert not isinstance(excinfo.value, MalformedField)


@pytest.mark.parametrize(
    "statement, locus",
    [
        ("UPDATE registrations SET kiosk_public_key = x'ab'",
         "table registrations, commit_seq 1: kiosk_public_key"),
        ("UPDATE envelope_usages SET challenge = x'01'",
         "table envelope_usages, commit_seq 3: challenge"),
        ("UPDATE envelope_commitments SET printer_signature = 7",
         "table envelope_commitments, commit_seq 2: printer_signature"),
        ("UPDATE roll SET voter_id = x'00'", "table roll, commit_seq 0: voter_id"),
        ("UPDATE roll SET voter_id = 'someone-else'", "table registrations, commit_seq 1"),
        ("ALTER TABLE ballots RENAME COLUMN signature TO sig", "table ballots is unreadable"),
    ],
)
def test_any_undecodable_row_is_a_ledger_error_with_its_locus(tmp_path, group, statement, locus):
    path = tmp_path / "board.db"
    populated_database(path, group)
    tamper(path, statement)
    with pytest.raises(LedgerError, match=locus):
        SQLiteBackend(str(path), group=group)


def test_a_file_that_is_not_a_database_is_a_ledger_error(tmp_path, group):
    path = tmp_path / "board.db"
    path.write_bytes(b"this is not an SQLite file, it only sits where one should be" * 40)
    with pytest.raises(LedgerError, match="table roll is unreadable"):
        SQLiteBackend(str(path), group=group)
