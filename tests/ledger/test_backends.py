"""Cross-backend equivalence and SQLite persistence.

The contract every backend signs: the same sequence of accepted append
commands produces bit-identical hash chains and identical reads — so a full
election tallies and universally verifies the same regardless of where the
board stores its records.
"""

import random

import pytest

from repro.crypto.hashing import sha256
from repro.crypto.modp_group import testing_group
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign
from repro.election import ElectionConfig, VotegralElection
from repro.errors import LedgerError
from repro.ledger import (
    BallotRecord,
    BulletinBoard,
    MemoryBackend,
    SQLiteBackend,
)
from repro.ledger.records import EnvelopeCommitmentRecord, EnvelopeUsageRecord, RollEntry

BACKEND_SPECS = ["memory", "sqlite", "batched:8", "batched:4:sqlite"]


@pytest.fixture(scope="module")
def group():
    return testing_group()


@pytest.fixture(scope="module")
def keypair(group):
    return schnorr_keygen(group)


def make_ballot(group, keypair, index, election_id="default"):
    return BallotRecord(
        credential_public_key=group.power(index + 1),
        ciphertext_c1=group.power(index + 2),
        ciphertext_c2=group.power(index + 3),
        signature=schnorr_sign(keypair, sha256(b"ballot", index.to_bytes(4, "big"))),
        election_id=election_id,
    )


class TestCrossBackendElections:
    """`ElectionConfig(board_spec=...)` end-to-end on every backend."""

    @pytest.fixture(scope="class")
    def reports(self):
        reports = {}
        for spec in BACKEND_SPECS:
            config = ElectionConfig(
                num_voters=4, num_options=2, proof_rounds=2, num_mixers=2, board_spec=spec
            )
            choices = {voter: index % 2 for index, voter in enumerate(config.voter_ids())}
            with VotegralElection(config) as election:
                reports[spec] = election.run(choices=choices, rng=random.Random(1234))
        return reports

    @pytest.mark.parametrize("spec", BACKEND_SPECS)
    def test_counts_match_intent_and_verify(self, reports, spec):
        report = reports[spec]
        assert report.counts_match_intent
        assert report.universally_verified
        assert report.result.num_counted == 4

    def test_tally_counts_identical_across_backends(self, reports):
        counts = {spec: report.result.counts for spec, report in reports.items()}
        reference = counts["memory"]
        assert all(value == reference for value in counts.values())

    def test_ledger_population_identical_across_backends(self, reports):
        sizes = {
            spec: (report.result.num_ballots_on_ledger, report.result.num_valid_ballots)
            for spec, report in reports.items()
        }
        reference = sizes["memory"]
        assert all(value == reference for value in sizes.values())


class TestIdenticalCommandStreams:
    """Identical appends ⇒ bit-identical chains, heads and reads."""

    def test_all_backends_produce_identical_chains(self, group, keypair, tmp_path):
        # One record sequence (signing is randomized, so records are built once).
        records = [
            make_ballot(group, keypair, index, election_id="A" if index % 3 else "B")
            for index in range(17)
        ]
        boards = {
            "memory": BulletinBoard(MemoryBackend()),
            "sqlite": BulletinBoard(SQLiteBackend(str(tmp_path / "chain.db"), group=group)),
            "batched": BulletinBoard(MemoryBackend(batch_size=5)),
        }
        for board in boards.values():
            board.publish_electoral_roll([f"v{i}" for i in range(3)])
            for record in records:
                board.append(record)
            board.flush()
        reference = boards["memory"]
        for name, board in boards.items():
            assert board.ballot_log.entries() == reference.ballot_log.entries(), name
            assert board.ballot_log.head() == reference.ballot_log.head(), name
            assert board.registration_log.head() == reference.registration_log.head(), name
            assert board.read(BallotRecord, key="A").records == reference.read(BallotRecord, key="A").records, name
            assert board.verify_all_chains(), name
        for board in boards.values():
            board.close()


class TestSQLitePersistence:
    def test_reopen_restores_records_and_heads(self, group, keypair, tmp_path):
        path = str(tmp_path / "board.db")
        board = BulletinBoard(SQLiteBackend(path, group=group))
        board.publish_electoral_roll(["alice", "bob"])
        records = [make_ballot(group, keypair, i) for i in range(9)]
        for record in records:
            board.append(record)
        heads = (board.registration_log.head(), board.envelope_log.head(), board.ballot_log.head())
        board.close()

        reopened = BulletinBoard(SQLiteBackend(path, group=group))
        assert reopened.count(BallotRecord) == 9
        assert reopened.read(BallotRecord).records == records
        assert [entry.voter_id for entry in reopened.read(RollEntry).records] == ["alice", "bob"]
        assert (
            reopened.registration_log.head(),
            reopened.envelope_log.head(),
            reopened.ballot_log.head(),
        ) == heads
        assert reopened.verify_all_chains()
        reopened.close()

    def test_setup_is_durable_before_the_first_registration(self, tmp_path):
        """On a write-behind SQLite board setup flushes its roll and envelope
        commitments before it returns, without waiting for the batch to fill."""
        import sqlite3

        path = tmp_path / "setup.db"
        config = ElectionConfig(num_voters=3, num_options=2, board_spec=f"batched:10000:sqlite:{path}")
        with VotegralElection(config) as election:
            board = election.run_setup().board
            assert board.store.pending_count == 0
            conn = sqlite3.connect(str(path))
            try:
                rows = [conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                        for table in ("roll", "envelope_commitments")]
            finally:
                conn.close()
            assert rows == [3, board.count(EnvelopeCommitmentRecord)] and rows[1] > 0

    def test_reopen_preserves_interleaved_stream_order(self, group, keypair, tmp_path):
        """Chains commit to the *interleaving* of streams (commitments/usages
        share L_E, roll entries/registrations share L_R); replay must keep it."""
        from repro.ledger import EnvelopeCommitmentRecord, EnvelopeUsageRecord
        from tests.ledger.test_api import make_registration

        path = str(tmp_path / "board.db")
        board = BulletinBoard(SQLiteBackend(path, group=group))
        board.publish_electoral_roll(["alice"])
        board.append(make_registration(group, keypair, "alice"))
        board.publish_electoral_roll(["bob"])  # roll entry *after* a registration

        def commitment(tag):
            signature = schnorr_sign(keypair, sha256(b"env", tag))
            return EnvelopeCommitmentRecord(keypair.public, sha256(b"hash", tag), signature)

        first = commitment(b"one")
        board.append(first)
        board.append(EnvelopeUsageRecord(7, first.challenge_hash))
        board.append(commitment(b"two"))  # commitment *after* a usage
        heads = (board.registration_log.head(), board.envelope_log.head())
        board.close()

        reopened = BulletinBoard(SQLiteBackend(path, group=group))
        assert (reopened.registration_log.head(), reopened.envelope_log.head()) == heads
        assert reopened.verify_all_chains()
        # And appends after reopen keep extending the same chains.
        reopened.append(make_registration(group, keypair, "bob"))
        assert reopened.verify_all_chains()
        reopened.close()

    def test_reopen_without_group_is_rejected(self, group, keypair, tmp_path):
        path = str(tmp_path / "board.db")
        board = BulletinBoard(SQLiteBackend(path, group=group))
        board.append(make_ballot(group, keypair, 0))
        board.close()
        with pytest.raises(LedgerError):
            SQLiteBackend(path)

    def test_duplicate_challenge_still_detected_after_reopen(self, group, keypair, tmp_path):
        from repro.ledger import EnvelopeUsageRecord

        path = str(tmp_path / "board.db")
        usage = EnvelopeUsageRecord(challenge=42, challenge_hash=sha256(b"challenge"))
        board = BulletinBoard(SQLiteBackend(path, group=group))
        board.append(usage)
        board.close()
        reopened = BulletinBoard(SQLiteBackend(path, group=group))
        assert reopened.get(EnvelopeUsageRecord, usage.challenge_hash) is not None
        with pytest.raises(LedgerError):
            reopened.append(usage)
        reopened.close()
