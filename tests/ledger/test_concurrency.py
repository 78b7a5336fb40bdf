"""Concurrency and write-behind semantics of the ledger API.

Systematic-interleaving spirit: many producers race appends (threads and
asyncio tasks); afterwards the board must hold every record exactly once,
the hash chains must verify, and each producer's own appends must appear in
its submission order (sequence numbers are per-stream commit positions).
A write-behind board (``batch_size > 1``) must additionally show its pending
appends to every record read, flush before every chain read, and leave
nothing half-written when a flush fails.
"""

import asyncio
import sqlite3
import threading

import pytest

from repro.crypto.hashing import sha256
from repro.crypto.modp_group import testing_group
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign
from repro.gateway.service import AsyncIngestionFrontend
from repro.ledger.backends.memory import MemoryBackend
from repro.ledger.backends.sqlite import SQLiteBackend
from repro.ledger.bulletin_board import BulletinBoard
from repro.ledger.log import AppendOnlyLog
from repro.ledger.records import (
    BallotRecord,
    EnvelopeCommitmentRecord,
    EnvelopeUsageRecord,
    L_R,
    L_V,
    RegistrationRecord,
    RollEntry,
)

NUM_THREADS = 8
PER_THREAD = 50


@pytest.fixture(scope="module")
def group():
    return testing_group()


@pytest.fixture(scope="module")
def keypair(group):
    return schnorr_keygen(group)


def make_ballot(group, keypair, index):
    return BallotRecord(
        credential_public_key=group.power(index + 1),
        ciphertext_c1=group.power(index + 2),
        ciphertext_c2=group.power(index + 3),
        signature=schnorr_sign(keypair, sha256(b"ballot", index.to_bytes(4, "big"))),
    )


def race_appends(board, group, keypair):
    """NUM_THREADS threads each append PER_THREAD distinct ballots; returns
    the per-thread list of (record, returned seq)."""
    results = [[] for _ in range(NUM_THREADS)]
    barrier = threading.Barrier(NUM_THREADS)

    def worker(thread_index):
        records = [
            make_ballot(group, keypair, thread_index * PER_THREAD + offset)
            for offset in range(PER_THREAD)
        ]
        barrier.wait()
        for record in records:
            results[thread_index].append((record, board.append(record)))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(NUM_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


class TestThreadedAppends:
    def test_memory_board_keeps_chain_and_ordering(self, group, keypair):
        board = BulletinBoard(MemoryBackend())
        results = race_appends(board, group, keypair)

        assert board.count(BallotRecord) == NUM_THREADS * PER_THREAD
        assert board.verify_all_chains()
        all_seqs = [seq for thread in results for _, seq in thread]
        assert sorted(all_seqs) == list(range(NUM_THREADS * PER_THREAD))
        for thread in results:
            seqs = [seq for _, seq in thread]
            assert seqs == sorted(seqs), "per-producer appends must commit in order"
        # The seq returned by each append is the record's actual position.
        ledger = board.read(BallotRecord).records
        for thread in results:
            for record, seq in thread:
                assert ledger[seq] == record

    def test_batched_board_keeps_chain_and_ordering(self, group, keypair):
        backend = MemoryBackend(batch_size=32)
        board = BulletinBoard(backend)
        results = race_appends(board, group, keypair)
        board.flush()

        assert backend.pending_count == 0
        assert board.count(BallotRecord) == len(board.ballot_log) == NUM_THREADS * PER_THREAD
        assert board.verify_all_chains()
        ledger = board.read(BallotRecord).records
        for thread in results:
            for record, seq in thread:
                assert ledger[seq] == record


class TestAsyncIngestion:
    def test_concurrent_asyncio_casting_preserves_integrity(self, group, keypair):
        backend = MemoryBackend(batch_size=16)
        frontend = AsyncIngestionFrontend(backend)
        records = [make_ballot(group, keypair, index) for index in range(120)]

        async def cast_all():
            batches = await asyncio.gather(
                *(frontend.append_many([record]) for record in records)
            )
            await frontend.drain()
            return [seq for (seq,) in batches]

        seqs = asyncio.run(cast_all())
        assert sorted(seqs) == list(range(120))
        assert backend.count(BallotRecord) == 120
        assert backend.verify_all_chains()
        # Event-loop submission order is commit order for a single-task gather.
        ledger = backend.read(BallotRecord).records
        for record, seq in zip(records, seqs):
            assert ledger[seq] == record


class _FailingSecondRun:
    """A connection whose second ``executemany`` fails once: the flush's
    transaction has then written one run of rows and must roll it back."""

    def __init__(self, conn):
        self.conn = conn
        self.calls = 0

    def executemany(self, sql, rows):
        self.calls += 1
        if self.calls == 2:
            raise sqlite3.OperationalError("disk I/O error (simulated)")
        return self.conn.executemany(sql, rows)

    def __getattr__(self, name):
        return getattr(self.conn, name)


def make_registration(group, keypair, voter_id):
    return RegistrationRecord(
        voter_id=voter_id,
        public_credential_c1=group.power(7),
        public_credential_c2=group.power(8),
        kiosk_public_key=keypair.public,
        kiosk_signature=schnorr_sign(keypair, voter_id.encode()),
        official_public_key=keypair.public,
        official_signature=schnorr_sign(keypair, voter_id.encode()[::-1]),
    )


def file_rows(path):
    conn = sqlite3.connect(path)
    try:
        return {
            table: conn.execute(f"SELECT commit_seq FROM {table} ORDER BY commit_seq").fetchall()
            for table in ("roll", "registrations", "ballots")
        }
    finally:
        conn.close()


def heads(board):
    return [log.head() for log in (board.registration_log, board.envelope_log, board.ballot_log)]


class TestFlushFailureSafety:
    def test_failed_flush_keeps_buffered_records_for_retry(self, group, keypair, tmp_path):
        path = str(tmp_path / "flaky.db")
        backend = SQLiteBackend(path, group=group, batch_size=10_000)
        backend.append_many([RollEntry("v0"), RollEntry("v1")])
        backend.append(make_registration(group, keypair, "v0"))
        records = [make_ballot(group, keypair, index) for index in range(5)]
        seqs = [backend.append(record) for record in records]
        backend._conn = _FailingSecondRun(backend._conn)
        with pytest.raises(sqlite3.OperationalError):
            backend.flush()
        # The roll's rows were written before the registration run failed,
        # and rolled back with it: nothing reached the file or the chains.
        assert file_rows(path) == {"roll": [], "registrations": [], "ballots": []}
        assert [len(log) for log in (backend._logs[L_R], backend._logs[L_V])] == [0, 0]
        assert backend.pending_count == 8
        # Every read of a record still sees the pending appends.
        assert backend.read(BallotRecord).records == records
        assert backend.get(RegistrationRecord, "v0") is not None

        backend.flush()  # retry succeeds, writing each row once
        assert backend.pending_count == 0
        assert file_rows(path) == {
            "roll": [(0,), (1,)],
            "registrations": [(2,)],
            "ballots": [(3,), (4,), (5,), (6,), (7,)],
        }
        assert backend.verify_all_chains()
        live = heads(backend)
        assert [head.size for head in live] == [3, 0, 5]
        backend.close()

        reopened = SQLiteBackend(path, group=group)
        assert heads(reopened) == live
        ledger = reopened.read(BallotRecord).records
        for record, seq in zip(records, seqs):
            assert ledger[seq] == record
        reopened.close()

    def test_a_failed_append_flush_leaves_the_record_readable_and_pending(self, group, keypair, tmp_path):
        """batch_size=1: the append's own flush fails after the record was
        accepted; the append raises, the record stays readable and pending,
        and the next flush writes it."""
        path = str(tmp_path / "flaky.db")
        backend = SQLiteBackend(path, group=group)
        record = make_ballot(group, keypair, 0)
        failing = _FailingSecondRun(backend._conn)
        failing.calls = 1  # the very next executemany fails
        backend._conn = failing
        with pytest.raises(sqlite3.OperationalError):
            backend.append(record)
        assert backend.pending_count == 1
        assert backend.read(BallotRecord).records == [record]
        assert file_rows(path)["ballots"] == []
        assert len(backend.ballot_log) == 1  # the chain read flushed the retry
        assert backend.pending_count == 0
        assert file_rows(path)["ballots"] == [(0,)]
        backend.close()


class TestRollAtomicity:
    def test_duplicate_roll_batch_mutates_nothing(self):
        from repro.errors import LedgerError

        board = BulletinBoard(MemoryBackend())
        with pytest.raises(LedgerError):
            board.publish_electoral_roll(["a", "b", "a"])
        assert [entry.voter_id for entry in board.read(RollEntry).records] == []
        assert len(board.registration_log) == 0


class TestBatchedEqualsUnbatched:
    def test_flush_is_bit_for_bit_identical(self, group, keypair):
        records = [make_ballot(group, keypair, index) for index in range(40)]
        plain = BulletinBoard(MemoryBackend())
        batched = BulletinBoard(MemoryBackend(batch_size=7))
        for record in records:
            plain.append(record)
            batched.append(record)
        batched.flush()

        assert batched.ballot_log.entries() == plain.ballot_log.entries()
        assert batched.ballot_log.head() == plain.ballot_log.head()
        assert batched.read(BallotRecord).records == plain.read(BallotRecord).records


class TestFlushBoundary:
    """Record reads see pending appends and never flush; chain reads flush."""

    @pytest.fixture()
    def pending_board(self, group, keypair):
        backend = MemoryBackend(batch_size=10_000)
        backend.append_many([RollEntry("v0"), RollEntry("v1")])
        registration = make_registration(group, keypair, "v0")
        commitment = EnvelopeCommitmentRecord(
            printer_public_key=keypair.public,
            challenge_hash=b"c" * 32,
            printer_signature=schnorr_sign(keypair, b"c" * 32),
        )
        usage = EnvelopeUsageRecord(challenge_hash=b"c" * 32, challenge=5)
        ballot = make_ballot(group, keypair, 0)
        backend.append(registration)
        backend.append(commitment)
        backend.append(usage)
        backend.append(ballot)
        assert backend.pending_count == 6
        return backend, registration, commitment, ballot

    def test_reads_see_buffered_writes(self, pending_board):
        backend, registration, commitment, ballot = pending_board
        assert backend.read(BallotRecord).records == [ballot]
        assert backend.get(RegistrationRecord, "v0") == registration
        assert backend.history(RegistrationRecord, "v0") == [registration]
        assert backend.read(RegistrationRecord).records == [registration]
        assert backend.current(RegistrationRecord) == [registration]
        assert backend.get(EnvelopeCommitmentRecord, b"c" * 32) == commitment
        assert backend.get(EnvelopeUsageRecord, b"c" * 32) is not None
        assert [entry.voter_id for entry in backend.read(RollEntry).records] == ["v0", "v1"]
        counts = (
            len(backend.current(RegistrationRecord)),
            backend.count(EnvelopeCommitmentRecord),
            backend.count(EnvelopeUsageRecord),
            backend.count(BallotRecord),
        )
        assert counts == (1, 1, 1, 1)
        assert backend.pending_count == 6
        # Validation sees the pending appends too.
        with pytest.raises(Exception, match="already used"):
            backend.append(EnvelopeUsageRecord(challenge_hash=b"c" * 32, challenge=5))

    @pytest.mark.parametrize("log_name", ["registration_log", "envelope_log", "ballot_log"])
    def test_chain_reads_flush_first(self, pending_board, log_name):
        backend = pending_board[0]
        log = getattr(backend, log_name)
        assert backend.pending_count == 0
        assert [len(backend.registration_log), len(backend.envelope_log), len(backend.ballot_log)] == [3, 2, 1]
        assert len(log) > 0

    def test_verify_all_chains_flushes_first(self, pending_board, monkeypatch):
        backend = pending_board[0]
        walked = []
        verify = AppendOnlyLog.verify_chain
        monkeypatch.setattr(AppendOnlyLog, "verify_chain", lambda log: walked.append(len(log)) or verify(log))
        assert backend.verify_all_chains()
        assert backend.pending_count == 0
        assert walked == [3, 2, 1]

    def test_pending_appends_flush_in_append_order(self, group, keypair):
        """Interleaved streams on one chain (roll entries and registrations on
        L_R) come out of a flush in append order: the same heads as batch_size=1."""
        first, second = (make_registration(group, keypair, voter) for voter in ("v0", "v1"))
        ballot = make_ballot(group, keypair, 0)
        heads_by_size = {}
        for batch_size in (1, 3, 10_000):
            backend = MemoryBackend(batch_size=batch_size)
            backend.append_many([RollEntry("v0")])
            backend.append(first)
            backend.append_many([RollEntry("v1")])
            backend.append(ballot)
            backend.append(second)
            heads_by_size[batch_size] = heads(backend)
        assert heads_by_size[3] == heads_by_size[1] == heads_by_size[10_000]


class TestBatchingAmortizesAppends:
    def test_ballots_reach_the_chain_one_bulk_append_per_batch(self, group, keypair, monkeypatch):
        """What batching buys, as counts: N appends become ⌈N/batch⌉ bulk
        chain extensions, and every record's payload is computed once."""
        num_ballots, batch_size = 1_000, 64
        num_batches = -(-num_ballots // batch_size)
        records = [make_ballot(group, keypair, index) for index in range(num_ballots)]
        payload_calls = []
        payload = BallotRecord.payload
        monkeypatch.setattr(
            BallotRecord, "payload", lambda record: payload_calls.append(1) or payload(record)
        )
        bulk_appends = []
        append_many = AppendOnlyLog.append_many
        monkeypatch.setattr(
            AppendOnlyLog,
            "append_many",
            lambda log, payloads: bulk_appends.append(len(payloads)) or append_many(log, payloads),
        )

        board = MemoryBackend(batch_size=batch_size)
        for record in records:
            board.append(record)
        board.flush()

        assert board.count(BallotRecord) == len(board.ballot_log) == num_ballots
        assert len(bulk_appends) == num_batches
        assert sum(bulk_appends) == num_ballots
        assert len(payload_calls) == num_ballots
