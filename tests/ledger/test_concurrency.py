"""Concurrency semantics of the ledger API.

Systematic-interleaving spirit: many producers race appends (threads and
asyncio tasks); afterwards the board must hold every record exactly once,
the hash chains must verify, and each producer's own appends must appear in
its submission order (sequence numbers are per-stream commit positions).
"""

import asyncio
import threading

import pytest

from repro.crypto.hashing import sha256
from repro.crypto.modp_group import testing_group
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign
from repro.ledger import (
    AsyncIngestionFrontend,
    BallotRecord,
    BatchedBoard,
    BulletinBoard,
    MemoryBackend,
)
from repro.ledger.backends.batched import verify_batch_chain

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
            results[thread_index].append((record, board.post_ballot(record)))

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

        assert board.num_ballots == NUM_THREADS * PER_THREAD
        assert board.verify_all_chains()
        all_seqs = [seq for thread in results for _, seq in thread]
        assert sorted(all_seqs) == list(range(NUM_THREADS * PER_THREAD))
        for thread in results:
            seqs = [seq for _, seq in thread]
            assert seqs == sorted(seqs), "per-producer appends must commit in order"
        # The seq returned by each append is the record's actual position.
        ledger = board.ballots()
        for thread in results:
            for record, seq in thread:
                assert ledger[seq] == record

    def test_batched_board_keeps_chain_and_ordering(self, group, keypair):
        backend = BatchedBoard(MemoryBackend(), batch_size=32)
        board = BulletinBoard(backend)
        results = race_appends(board, group, keypair)
        board.flush()

        assert board.num_ballots == NUM_THREADS * PER_THREAD
        assert board.verify_all_chains()
        assert verify_batch_chain(backend.batches)
        assert sum(batch.num_records for batch in backend.batches) == NUM_THREADS * PER_THREAD
        ledger = board.ballots()
        for thread in results:
            for record, seq in thread:
                assert ledger[seq] == record

    def test_interval_flusher_drains_in_background(self, group, keypair):
        backend = BatchedBoard(MemoryBackend(), batch_size=10_000, flush_interval=0.02)
        board = BulletinBoard(backend)
        for index in range(25):
            board.post_ballot(make_ballot(group, keypair, index))
        deadline = threading.Event()
        for _ in range(100):  # up to ~2s for the flusher to fire
            if backend.inner.num_ballots == 25:
                break
            deadline.wait(0.02)
        board.close()
        assert backend.inner.num_ballots == 25
        assert board.verify_all_chains()


class TestAsyncIngestion:
    def test_concurrent_asyncio_casting_preserves_integrity(self, group, keypair):
        backend = BatchedBoard(MemoryBackend(), batch_size=16)
        frontend = AsyncIngestionFrontend(backend)
        records = [make_ballot(group, keypair, index) for index in range(120)]

        async def cast_all():
            batches = await asyncio.gather(
                *(frontend.post_ballots([record]) for record in records)
            )
            await frontend.drain()
            return [seq for (seq,) in batches]

        seqs = asyncio.run(cast_all())
        assert sorted(seqs) == list(range(120))
        assert backend.num_ballots == 120
        assert backend.verify_all_chains()
        # Event-loop submission order is commit order for a single-task gather.
        ledger = backend.read_ballots().records
        for record, seq in zip(records, seqs):
            assert ledger[seq] == record


class TestFlushFailureSafety:
    class _FlakyBackend(MemoryBackend):
        """Fails the first bulk append, then recovers (disk-full simulation)."""

        def __init__(self):
            super().__init__()
            self.failures_left = 1

        def append_ballots(self, records, payloads=None):
            if self.failures_left:
                self.failures_left -= 1
                raise OSError("simulated storage failure")
            return super().append_ballots(records, payloads=payloads)

    def test_failed_flush_keeps_buffered_records_for_retry(self, group, keypair):
        inner = self._FlakyBackend()
        backend = BatchedBoard(inner, batch_size=10_000)
        records = [make_ballot(group, keypair, index) for index in range(5)]
        seqs = [backend.append_ballot(record) for record in records]
        with pytest.raises(OSError):
            backend.flush()
        # Nothing lost, no batch digest committed for the failed attempt.
        assert backend.num_pending == 5
        assert backend.batches == []
        backend.flush()  # retry succeeds
        assert inner.num_ballots == 5
        assert backend.verify_all_chains()
        ledger = inner.read_ballots().records
        for record, seq in zip(records, seqs):
            assert ledger[seq] == record


class TestRollAtomicity:
    def test_duplicate_roll_batch_mutates_nothing(self):
        from repro.errors import LedgerError

        board = BulletinBoard(MemoryBackend())
        with pytest.raises(LedgerError):
            board.publish_electoral_roll(["a", "b", "a"])
        assert board.eligible_voters == []
        assert len(board.registration_log) == 0


class TestBatchedEqualsUnbatched:
    def test_flush_is_bit_for_bit_identical(self, group, keypair):
        records = [make_ballot(group, keypair, index) for index in range(40)]
        plain = BulletinBoard(MemoryBackend())
        batched = BulletinBoard(BatchedBoard(MemoryBackend(), batch_size=7))
        for record in records:
            plain.post_ballot(record)
            batched.post_ballot(record)
        batched.flush()

        assert batched.ballot_log.entries() == plain.ballot_log.entries()
        assert batched.ballot_log.head() == plain.ballot_log.head()
        assert batched.ballots() == plain.ballots()

    def test_reads_see_buffered_writes(self, group, keypair):
        backend = BatchedBoard(MemoryBackend(), batch_size=10_000)
        record = make_ballot(group, keypair, 0)
        backend.append_ballot(record)
        assert backend.num_pending in (0, 1)  # read below forces the barrier
        page = backend.read_ballots()
        assert page.records == [record]
        assert backend.num_pending == 0


class TestBatchingAmortizesAppends:
    class _CountingBackend(MemoryBackend):
        """Records how ballots reach the inner backend."""

        def __init__(self):
            super().__init__()
            self.single_appends = 0
            self.bulk_appends = []  # (records, payloads handed along) per call

        def append_ballot(self, record):
            self.single_appends += 1
            return super().append_ballot(record)

        def append_ballots(self, records, payloads=None):
            self.bulk_appends.append((len(records), None if payloads is None else len(payloads)))
            return super().append_ballots(records, payloads=payloads)

    def test_ballots_reach_the_inner_backend_one_bulk_append_per_batch(
        self, group, keypair, monkeypatch
    ):
        """What batching buys, as counts: N appends become ⌈N/batch⌉ bulk
        appends that carry the payloads the batch digest already hashed."""
        num_ballots, batch_size = 1_000, 64
        num_batches = -(-num_ballots // batch_size)
        records = [make_ballot(group, keypair, index) for index in range(num_ballots)]
        payload_calls = []
        payload = BallotRecord.payload
        monkeypatch.setattr(
            BallotRecord, "payload", lambda record: payload_calls.append(1) or payload(record)
        )

        inner = self._CountingBackend()
        board = BatchedBoard(inner, batch_size=batch_size)
        for record in records:
            board.append_ballot(record)
        board.flush()

        assert inner.num_ballots == num_ballots
        assert inner.single_appends == 0
        assert len(inner.bulk_appends) == len(board.batches) == num_batches
        assert sum(count for count, _ in inner.bulk_appends) == num_ballots
        assert all(count == supplied for count, supplied in inner.bulk_appends)
        assert len(payload_calls) == num_ballots
