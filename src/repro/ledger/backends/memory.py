"""The thread-safe in-memory ledger backend, with optional write-behind.

This is the refactored descendant of the original concrete ``BulletinBoard``
store: the same three hash-chained logs and typed record collections, now

* behind the :class:`~repro.ledger.api.LedgerBackend` contract,
* guarded by a re-entrant lock so casting clients can append concurrently
  (appends are totally ordered by lock acquisition; the hash chains commit
  to that order),
* indexed — ballots by ``election_id`` and registrations by voter — so the
  cursor reads and `registration_history()` the tally/verify paths hammer
  stop rescanning full lists, and
* **write-behind** at ``batch_size > 1``.  An append validates and indexes
  its record at once — every record read sees it, and its sequence number is
  final — and queues the chain extension.  A flush persists the queue
  (:meth:`MemoryBackend._persist`, which the SQLite subclass overrides) and
  then extends each chain in append order.  It runs once ``batch_size``
  appends are pending, before any chain is read, and on :meth:`flush` /
  :meth:`close`; record reads never flush.  The chains a flush builds are
  the ones unbatched appends build, so every batch size publishes the same
  heads.  ``batch_size=1`` (the default) flushes after every append.

:class:`AsyncIngestionFrontend` adapts a board for asyncio casting clients:
an append that cannot block or flush runs on the event loop, any other on a
worker thread.
"""

from __future__ import annotations

import asyncio
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import telemetry
from repro.crypto.hashing import sha256
from repro.errors import LedgerError
from repro.ledger.api import (
    BallotPage,
    Cursor,
    GENESIS_CURSOR,
    LedgerBackend,
    verify_chained_logs,
)
from repro.ledger.log import AppendOnlyLog
from repro.ledger.records import (
    BallotRecord,
    EnvelopeCommitmentRecord,
    EnvelopeUsageRecord,
    LedgerRecord,
    RegistrationRecord,
)

#: One queued chain extension: the log it extends, the item's sequence number
#: in its stream (the roll position for a roll entry), and the record — or,
#: for an electoral-roll entry, the voter identifier.
Pending = Tuple[AppendOnlyLog, int, Union[LedgerRecord, str]]


def _payload(item: Union[LedgerRecord, str]) -> bytes:
    if isinstance(item, str):
        return sha256(b"eligible-voter", item.encode())
    return item.payload()


class MemoryBackend(LedgerBackend):
    """The ledger ``L`` with its three sub-ledgers, held in process memory."""

    #: Telemetry label; subclasses (sqlite) override so the shared read/append
    #: instrumentation below attributes latency to the right backend.
    backend_name = "memory"

    def __init__(self, batch_size: int = 1) -> None:
        if batch_size < 1:
            raise LedgerError(f"batch size must be positive, got {batch_size}")
        self.batch_size = batch_size
        self._lock = threading.RLock()
        self._pending: List[Pending] = []
        self._registration_log = AppendOnlyLog("L_R")
        self._envelope_log = AppendOnlyLog("L_E")
        self._ballot_log = AppendOnlyLog("L_V")

        self._eligible: List[str] = []
        self._eligible_set: Set[str] = set()

        self._registrations: List[RegistrationRecord] = []
        self._registrations_by_voter: Dict[str, List[RegistrationRecord]] = {}
        self._active_registration: Dict[str, RegistrationRecord] = {}

        self._envelope_commitments: Dict[bytes, EnvelopeCommitmentRecord] = {}
        self._used_challenges: Dict[bytes, EnvelopeUsageRecord] = {}

        self._ballots: List[BallotRecord] = []
        # Per-election parallel lists of (ascending seq, record), so filtered
        # cursor reads bisect instead of scanning the full ballot list.
        self._ballots_by_election: Dict[str, List[BallotRecord]] = {}
        self._ballot_seqs_by_election: Dict[str, List[int]] = {}

    # ------------------------------------------------------------- flushing

    @property
    def num_pending(self) -> int:
        """Appends accepted and readable but not yet on their chains."""
        with self._lock:
            return len(self._pending)

    def flush(self) -> None:
        """Persist the pending appends and extend the chains by them, in
        append order.

        Failure-safe: if :meth:`_persist` raises, the pending list and the
        chains stay untouched, so the next flush retries the same appends.
        """
        with self._lock:
            pending = self._pending
            if not pending:
                return
            # Flush-size distribution: how well ingestion amortizes chaining.
            telemetry.histogram("ledger.flush.records", len(pending), backend=self.backend_name)
            with telemetry.span("ledger.flush", backend=self.backend_name, records=len(pending)):
                self._persist(pending)
                # The chains are independent, so extending each by its own
                # entries in append order builds the interleaved appends' heads.
                runs: Dict[AppendOnlyLog, List[bytes]] = {}
                for log, _, item in pending:
                    runs.setdefault(log, []).append(_payload(item))
                for log, payloads in runs.items():
                    log.append_many(payloads)
                self._pending = []

    def _flush_when_full(self) -> None:
        # Called after an append command has left its lock and span, so a
        # ``ledger.flush`` span is a child of the caller's span, not of
        # ``ledger.append``.
        if len(self._pending) >= self.batch_size:
            self.flush()

    def _persist(self, pending: Sequence[Pending]) -> None:
        """Make ``pending`` durable before the chains commit to it (a no-op in
        memory); raise to leave the pending list for the next flush."""

    # ------------------------------------------------------------- electoral roll

    def publish_electoral_roll(self, voter_ids: Sequence[str]) -> None:
        with self._lock:
            # Validate the whole batch before mutating anything, so a
            # duplicate cannot leave a half-applied roll.
            seen = set(self._eligible_set)
            for voter_id in voter_ids:
                if voter_id in seen:
                    raise LedgerError(f"duplicate voter identifier on the roll: {voter_id}")
                seen.add(voter_id)
            for voter_id in voter_ids:
                self._pending.append((self._registration_log, len(self._eligible), voter_id))
                self._eligible.append(voter_id)
                self._eligible_set.add(voter_id)
        self._flush_when_full()

    def eligible_voters(self) -> List[str]:
        with self._lock:
            return list(self._eligible)

    def is_eligible(self, voter_id: str) -> bool:
        with self._lock:
            return voter_id in self._eligible_set

    # ------------------------------------------------------------- append commands

    def append_registration(self, record: RegistrationRecord) -> int:
        with self._lock:
            if record.voter_id not in self._eligible_set:
                raise LedgerError(f"voter {record.voter_id} is not on the electoral roll")
            seq = len(self._registrations)
            self._registrations.append(record)
            self._registrations_by_voter.setdefault(record.voter_id, []).append(record)
            self._active_registration[record.voter_id] = record
            self._pending.append((self._registration_log, seq, record))
        self._flush_when_full()
        return seq

    def append_envelope_commitment(self, record: EnvelopeCommitmentRecord) -> int:
        with self._lock:
            seq = len(self._envelope_commitments)
            self._envelope_commitments[record.challenge_hash] = record
            self._pending.append((self._envelope_log, seq, record))
        self._flush_when_full()
        return seq

    def append_envelope_usage(self, record: EnvelopeUsageRecord) -> int:
        with self._lock:
            if record.challenge_hash in self._used_challenges:
                raise LedgerError("envelope challenge already used: possible duplicate envelopes")
            seq = len(self._used_challenges)
            self._used_challenges[record.challenge_hash] = record
            self._pending.append((self._envelope_log, seq, record))
        self._flush_when_full()
        return seq

    def _index_ballot(self, record: BallotRecord) -> int:
        seq = len(self._ballots)
        self._ballots.append(record)
        self._ballots_by_election.setdefault(record.election_id, []).append(record)
        self._ballot_seqs_by_election.setdefault(record.election_id, []).append(seq)
        self._pending.append((self._ballot_log, seq, record))
        return seq

    def append_ballot(self, record: BallotRecord) -> int:
        with self._lock:
            seq = self._index_ballot(record)
        # Counter only (no span object) on the single-append hot path: this
        # is the casting client's per-ballot ingestion latency.
        telemetry.counter("ledger.append.ballots", backend=self.backend_name)
        self._flush_when_full()
        return seq

    def append_ballots(self, records: Sequence[BallotRecord]) -> List[int]:
        """Bulk append under one lock acquisition; the records stay contiguous."""
        if not records:
            return []
        with telemetry.span("ledger.append", backend=self.backend_name, items=len(records)):
            with self._lock:
                seqs = [self._index_ballot(record) for record in records]
        telemetry.counter("ledger.append.ballots", len(records), backend=self.backend_name)
        self._flush_when_full()
        return seqs

    def try_append_ballots(self, records: Sequence[BallotRecord]) -> Optional[List[int]]:
        """Append ``records`` only if the lock is free right now and the
        appends cannot trip the size-triggered flush; ``None`` otherwise."""
        if not self._lock.acquire(blocking=False):
            return None
        try:
            if len(self._pending) + len(records) >= self.batch_size:
                return None
            return self.append_ballots(records)
        finally:
            self._lock.release()

    # ------------------------------------------------------------- registration reads

    def registration_for(self, voter_id: str) -> Optional[RegistrationRecord]:
        with self._lock:
            return self._active_registration.get(voter_id)

    def registration_history(self, voter_id: str) -> List[RegistrationRecord]:
        with self._lock:
            return list(self._registrations_by_voter.get(voter_id, []))

    def registration_records(self) -> List[RegistrationRecord]:
        with self._lock:
            return list(self._registrations)

    def active_registrations(self) -> List[RegistrationRecord]:
        with self._lock:
            return list(self._active_registration.values())

    @property
    def num_registered(self) -> int:
        with self._lock:
            return len(self._active_registration)

    # ------------------------------------------------------------- envelope reads

    def envelope_commitment(self, challenge_hash: bytes) -> Optional[EnvelopeCommitmentRecord]:
        with self._lock:
            return self._envelope_commitments.get(challenge_hash)

    def envelope_commitments(self) -> Dict[bytes, EnvelopeCommitmentRecord]:
        with self._lock:
            return dict(self._envelope_commitments)

    def is_challenge_used(self, challenge_hash: bytes) -> bool:
        with self._lock:
            return challenge_hash in self._used_challenges

    def used_challenges(self) -> Dict[bytes, EnvelopeUsageRecord]:
        with self._lock:
            return dict(self._used_challenges)

    @property
    def num_envelope_commitments(self) -> int:
        with self._lock:
            return len(self._envelope_commitments)

    @property
    def num_challenges_used(self) -> int:
        with self._lock:
            return len(self._used_challenges)

    # ------------------------------------------------------------- ballot reads

    def read_ballots(
        self,
        since: Cursor = GENESIS_CURSOR,
        limit: Optional[int] = None,
        election_id: Optional[str] = None,
    ) -> BallotPage:
        if since < 0:
            raise LedgerError(f"ballot cursor must be non-negative, got {since}")
        with telemetry.span("ledger.read", backend=self.backend_name, since=since), self._lock:
            total = len(self._ballots)
            start = min(since, total)
            if election_id is None:
                end = total if limit is None else min(start + max(0, limit), total)
                records = self._ballots[start:end]
                return BallotPage(records=records, next_cursor=end, has_more=end < total)
            indexed = self._ballots_by_election.get(election_id, [])
            seqs = self._ballot_seqs_by_election.get(election_id, [])
            # First index entry with seq >= since (seqs are ascending).
            position = bisect_left(seqs, start)
            stop = len(indexed) if limit is None else min(position + max(0, limit), len(indexed))
            has_more = stop < len(indexed)
            # Advance past everything scanned: the last matched record if
            # another page remains, the end of the whole stream once the
            # filter is exhausted — and no progress at all when nothing was
            # read but matches remain (limit=0), so no ballot is ever skipped.
            if stop > position:
                next_cursor = (seqs[stop - 1] + 1) if has_more else total
            else:
                next_cursor = start if has_more else total
            return BallotPage(
                records=indexed[position:stop],
                next_cursor=next_cursor,
                has_more=has_more,
            )

    @property
    def num_ballots(self) -> int:
        with self._lock:
            return len(self._ballots)

    # ------------------------------------------------------------- logs + audit

    @property
    def registration_log(self) -> AppendOnlyLog:
        self.flush()
        return self._registration_log

    @property
    def envelope_log(self) -> AppendOnlyLog:
        self.flush()
        return self._envelope_log

    @property
    def ballot_log(self) -> AppendOnlyLog:
        self.flush()
        return self._ballot_log

    def verify_all_chains(self) -> bool:
        # The shared chain walk, under this backend's append lock.
        with self._lock:
            return verify_chained_logs(self)

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        self.flush()


class AsyncIngestionFrontend:
    """asyncio adapter for concurrent ballot casting against a board.

    An append that is a plain queue push runs inline on the event loop; an
    append that would wait for the lock or trip a flush is off-loaded to a
    worker thread, so the loop never blocks on hashing or I/O.
    """

    def __init__(self, board: LedgerBackend) -> None:
        self._board = board

    async def post_ballots(self, records: Sequence[BallotRecord]) -> List[int]:
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
        """Flush, so every acknowledged record is on its chain (and persisted)."""
        await self.flush()
