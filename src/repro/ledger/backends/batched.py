"""Write-behind batching for ballot ingestion.

:class:`BatchedBoard` decorates any :class:`~repro.ledger.api.LedgerBackend`:
append commands return after a cheap buffer push, and buffered commands are
flushed to the inner backend in **hash-chained batches** — each flush commits
to its records and to the previous batch digest, so the ingestion front-end
is tamper-evident even before records reach the inner chains.  Flushes
trigger by size (``batch_size`` buffered commands), by interval (a daemon
flusher thread, when ``flush_interval`` is set), on any read (a read barrier
guaranteeing read-your-writes — the semantics every other backend has), or
explicitly via :meth:`flush`.

Because the inner backend receives the exact same command sequence, a flushed
``BatchedBoard`` is bit-for-bit identical to an unbatched board: same records,
same hash chains, same heads.  What batching buys is ingestion latency — the
per-append work drops to a lock-protected list push, with payload hashing and
chain extension amortized over whole batches (``cast_ms_per_ballot`` and
``ledger.append.self_s`` on the ``cast_bulk`` workload of ``benchmarks/e2e``).

Validation stays eager where deferral would change observable behavior:
ineligible registrations and duplicate envelope challenges raise at append
time, checked against the inner state *plus* the pending buffer.

:class:`AsyncIngestionFrontend` adapts a board for asyncio casting clients:
concurrent tasks post without blocking the event loop on chaining, and
``flush``/``drain`` off-load the heavy work to a thread.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro import telemetry
from repro.crypto.hashing import sha256
from repro.errors import LedgerError
from repro.ledger.api import BallotPage, Cursor, GENESIS_CURSOR, LedgerBackend
from repro.ledger.log import AppendOnlyLog
from repro.ledger.records import (
    BallotRecord,
    EnvelopeCommitmentRecord,
    EnvelopeUsageRecord,
    LedgerRecord,
    RegistrationRecord,
)

_GENESIS_BATCH = b"\x00" * 32


@dataclass(frozen=True)
class BatchSummary:
    """One flushed batch: its position, size and chained digest."""

    index: int
    num_records: int
    previous_digest: bytes
    digest: bytes

    @staticmethod
    def compute_digest(index: int, previous_digest: bytes, payloads: Sequence[bytes]) -> bytes:
        return sha256(b"ingest-batch", index.to_bytes(8, "big"), previous_digest, *payloads)


def verify_batch_chain(batches: Sequence[BatchSummary]) -> bool:
    """Check the batch digests chain correctly (digest recomputation needs the
    records and happens in the equivalence tests; this checks the linkage)."""
    previous = _GENESIS_BATCH
    for index, batch in enumerate(batches):
        if batch.index != index or batch.previous_digest != previous:
            return False
        previous = batch.digest
    return True


class BatchedBoard(LedgerBackend):
    """A write-behind decorator coalescing appends into hash-chained batches."""

    DEFAULT_BATCH_SIZE = 256

    def __init__(
        self,
        inner: LedgerBackend,
        batch_size: int = DEFAULT_BATCH_SIZE,
        flush_interval: Optional[float] = None,
    ) -> None:
        if batch_size < 1:
            raise LedgerError(f"batch size must be positive, got {batch_size}")
        self.inner = inner
        self.batch_size = batch_size
        self.flush_interval = flush_interval
        self._lock = threading.RLock()
        self._pending: List[LedgerRecord] = []
        self._pending_challenges: Set[bytes] = set()
        self._pending_active: Dict[str, RegistrationRecord] = {}
        self._batches: List[BatchSummary] = []
        self._batch_digest = _GENESIS_BATCH
        # Stream counts = inner counts + buffered, so provisional sequence
        # numbers equal the ones the inner backend will assign at flush.
        self._counts: Dict[type, int] = {
            RegistrationRecord: len(inner.registration_records()),
            EnvelopeCommitmentRecord: inner.num_envelope_commitments,
            EnvelopeUsageRecord: inner.num_challenges_used,
            BallotRecord: inner.num_ballots,
        }
        self._flusher: Optional[threading.Thread] = None
        self._stop_flusher = threading.Event()

    # ------------------------------------------------------------- flushing

    def _start_flusher_locked(self) -> None:
        if self.flush_interval is None or self._flusher is not None:
            return
        self._flusher = threading.Thread(
            target=self._flush_periodically, name="repro-ledger-flusher", daemon=True
        )
        self._flusher.start()

    def _flush_periodically(self) -> None:
        while not self._stop_flusher.wait(self.flush_interval):
            self.flush()

    def flush(self) -> None:
        """Drain the pending buffer into the inner backend as one chained batch.

        Failure-safe: the buffer is cleared and the batch digest committed
        only after the inner replay fully succeeds.  If an inner append
        raises (I/O error, locked database), the unapplied suffix stays
        buffered — clients' receipts remain valid and a later flush retries
        it.  (Validation errors cannot surface here: eligibility and
        duplicate-challenge checks run eagerly at append time, so flush-time
        failures are storage failures.)
        """
        with self._lock:
            pending = self._pending
            if not pending:
                return
            # Flush-size distribution: how well ingestion amortizes chaining.
            telemetry.histogram("ledger.flush.records", len(pending), backend="batched")
            with telemetry.span("ledger.flush", backend="batched", records=len(pending)):
                self._flush_locked(pending)

    def _flush_locked(self, pending: List[LedgerRecord]) -> None:
        payloads = [record.payload() for record in pending]
        # Replay in order; runs of consecutive ballots take the bulk path,
        # reusing the payloads the batch digest will hash below.
        applied = 0
        run: List[BallotRecord] = []
        run_payloads: List[bytes] = []
        try:
            for record, payload in zip(pending, payloads):
                if isinstance(record, BallotRecord):
                    run.append(record)
                    run_payloads.append(payload)
                    continue
                if run:
                    self.inner.append_ballots(run, payloads=run_payloads)
                    applied += len(run)
                    run, run_payloads = [], []
                self.inner.append(record)
                applied += 1
            if run:
                self.inner.append_ballots(run, payloads=run_payloads)
                applied += len(run)
            self.inner.flush()
        except BaseException:
            self._pending = pending[applied:]
            self._rebuild_pending_caches()
            if applied:
                # The applied prefix reached the inner ledger; keep the
                # batch audit chain covering exactly what landed.
                self._commit_batch(payloads[:applied])
            raise
        self._pending = []
        self._pending_challenges.clear()
        self._pending_active.clear()
        self._commit_batch(payloads)

    def _commit_batch(self, payloads: Sequence[bytes]) -> None:
        digest = BatchSummary.compute_digest(len(self._batches), self._batch_digest, payloads)
        self._batches.append(
            BatchSummary(
                index=len(self._batches),
                num_records=len(payloads),
                previous_digest=self._batch_digest,
                digest=digest,
            )
        )
        self._batch_digest = digest

    def _rebuild_pending_caches(self) -> None:
        """Recompute the eager-validation caches from the surviving buffer."""
        self._pending_challenges = {
            record.challenge_hash
            for record in self._pending
            if isinstance(record, EnvelopeUsageRecord)
        }
        self._pending_active = {
            record.voter_id: record
            for record in self._pending
            if isinstance(record, RegistrationRecord)
        }

    def _buffer(self, record: LedgerRecord) -> int:
        kind = type(record)
        seq = self._counts[kind]
        self._counts[kind] = seq + 1
        self._pending.append(record)
        self._start_flusher_locked()
        if len(self._pending) >= self.batch_size:
            self.flush()
        return seq

    @property
    def batches(self) -> List[BatchSummary]:
        """The hash-chained flush history (ingestion-side audit trail)."""
        with self._lock:
            return list(self._batches)

    @property
    def num_pending(self) -> int:
        with self._lock:
            return len(self._pending)

    # ------------------------------------------------------------- electoral roll

    def publish_electoral_roll(self, voter_ids: Sequence[str]) -> None:
        with self._lock:
            self.flush()  # keep roll entries ordered before later records
            self.inner.publish_electoral_roll(voter_ids)

    def eligible_voters(self) -> List[str]:
        return self.inner.eligible_voters()

    def is_eligible(self, voter_id: str) -> bool:
        return self.inner.is_eligible(voter_id)

    # ------------------------------------------------------------- append commands

    def append_registration(self, record: RegistrationRecord) -> int:
        with self._lock:
            if not self.inner.is_eligible(record.voter_id):
                raise LedgerError(f"voter {record.voter_id} is not on the electoral roll")
            self._pending_active[record.voter_id] = record
            return self._buffer(record)

    def append_envelope_commitment(self, record: EnvelopeCommitmentRecord) -> int:
        with self._lock:
            return self._buffer(record)

    def append_envelope_usage(self, record: EnvelopeUsageRecord) -> int:
        with self._lock:
            if (
                record.challenge_hash in self._pending_challenges
                or self.inner.is_challenge_used(record.challenge_hash)
            ):
                raise LedgerError("envelope challenge already used: possible duplicate envelopes")
            self._pending_challenges.add(record.challenge_hash)
            return self._buffer(record)

    def append_ballot(self, record: BallotRecord) -> int:
        with self._lock:
            return self._buffer(record)

    def append_ballots(
        self, records: Sequence[BallotRecord], payloads: Optional[Sequence[bytes]] = None
    ) -> List[int]:
        with self._lock:
            return [self._buffer(record) for record in records]

    def try_append_ballots(self, records: Sequence[BallotRecord]) -> Optional[List[int]]:
        """Buffer ``records`` only if that is guaranteed cheap: the lock is
        free right now and the appends cannot trip the size-triggered flush.
        Returns ``None`` otherwise — callers (the asyncio front-end) then
        route the append to a worker thread instead of risking a blocking
        flush on their thread."""
        if not self._lock.acquire(blocking=False):
            return None
        try:
            if len(self._pending) + len(records) >= self.batch_size:
                return None
            return [self._buffer(record) for record in records]
        finally:
            self._lock.release()

    # ------------------------------------------------------------- reads (barrier)

    def registration_for(self, voter_id: str) -> Optional[RegistrationRecord]:
        with self._lock:
            # Fast path: a buffered registration is the freshest record.
            buffered = self._pending_active.get(voter_id)
            if buffered is not None:
                return buffered
            return self.inner.registration_for(voter_id)

    def registration_history(self, voter_id: str) -> List[RegistrationRecord]:
        with self._lock:
            self.flush()
            return self.inner.registration_history(voter_id)

    def registration_records(self) -> List[RegistrationRecord]:
        with self._lock:
            self.flush()
            return self.inner.registration_records()

    def active_registrations(self) -> List[RegistrationRecord]:
        with self._lock:
            self.flush()
            return self.inner.active_registrations()

    @property
    def num_registered(self) -> int:
        with self._lock:
            self.flush()
            return self.inner.num_registered

    def envelope_commitment(self, challenge_hash: bytes) -> Optional[EnvelopeCommitmentRecord]:
        with self._lock:
            self.flush()
            return self.inner.envelope_commitment(challenge_hash)

    def envelope_commitments(self) -> Dict[bytes, EnvelopeCommitmentRecord]:
        with self._lock:
            self.flush()
            return self.inner.envelope_commitments()

    def is_challenge_used(self, challenge_hash: bytes) -> bool:
        with self._lock:
            if challenge_hash in self._pending_challenges:
                return True
            return self.inner.is_challenge_used(challenge_hash)

    def used_challenges(self) -> Dict[bytes, EnvelopeUsageRecord]:
        with self._lock:
            self.flush()
            return self.inner.used_challenges()

    @property
    def num_envelope_commitments(self) -> int:
        with self._lock:
            self.flush()
            return self.inner.num_envelope_commitments

    @property
    def num_challenges_used(self) -> int:
        with self._lock:
            self.flush()
            return self.inner.num_challenges_used

    def read_ballots(
        self,
        since: Cursor = GENESIS_CURSOR,
        limit: Optional[int] = None,
        election_id: Optional[str] = None,
    ) -> BallotPage:
        with self._lock:
            self.flush()
            return self.inner.read_ballots(since=since, limit=limit, election_id=election_id)

    @property
    def num_ballots(self) -> int:
        with self._lock:
            self.flush()
            return self.inner.num_ballots

    # ------------------------------------------------------------- logs + audit

    @property
    def registration_log(self) -> AppendOnlyLog:
        with self._lock:
            self.flush()
            return self.inner.registration_log

    @property
    def envelope_log(self) -> AppendOnlyLog:
        with self._lock:
            self.flush()
            return self.inner.envelope_log

    @property
    def ballot_log(self) -> AppendOnlyLog:
        with self._lock:
            self.flush()
            return self.inner.ballot_log

    def verify_all_chains(self) -> bool:
        # Delegates the sub-ledger walk to the inner backend (which reuses the
        # shared ``verify_chained_logs`` helper) and adds the ingestion-batch
        # chain this decorator maintains on top.
        with self._lock:
            self.flush()
            return self.inner.verify_all_chains() and verify_batch_chain(self._batches)

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        with self._lock:
            self.flush()
        self._stop_flusher.set()
        if self._flusher is not None:
            self._flusher.join(timeout=5.0)
            self._flusher = None
        self.inner.close()


class AsyncIngestionFrontend:
    """asyncio adapter for concurrent ballot casting against any board backend.

    Appends that are plain buffer pushes run inline on the event loop; any
    append that would do real chaining work — a :class:`BatchedBoard` append
    about to hit its size trigger, or any append on an unbatched backend —
    is off-loaded to a worker thread, so the loop never blocks on hashing or
    I/O.
    """

    def __init__(self, board: LedgerBackend) -> None:
        self._board = board

    async def post_ballots(self, records: Sequence[BallotRecord]) -> List[int]:
        if isinstance(self._board, BatchedBoard):
            # try_append checks lock availability and the flush trigger
            # atomically, so the inline path can neither block on a running
            # flush nor start one on the event loop.
            seqs = self._board.try_append_ballots(records)
            if seqs is not None:
                return seqs
        return await asyncio.to_thread(self._board.append_ballots, records)

    async def flush(self) -> None:
        await asyncio.to_thread(self._board.flush)

    async def drain(self) -> None:
        """Flush and wait until every buffered record reached the inner board."""
        await self.flush()
