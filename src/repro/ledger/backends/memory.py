"""The ledger store: thread-safe, in memory, with optional write-behind.

The store knows record kinds only through what each class declares
(:mod:`repro.ledger.records`): its chain, its key and its rule.  It has one
write path and one read surface, the same for every kind:

* :meth:`MemoryBackend.append` / :meth:`MemoryBackend.append_many` validate
  the records (a batch that fails leaves the store untouched; a record is
  checked against the earlier records of its batch too), index them under
  their keys, queue their chain extensions and flush once the queue is full.
  Each returns the records' **sequence numbers** in their kind's stream
  (0, 1, 2, … in commit order).
* :meth:`~MemoryBackend.get`, :meth:`~MemoryBackend.history`,
  :meth:`~MemoryBackend.current`, :meth:`~MemoryBackend.read` and
  :meth:`~MemoryBackend.count` read a kind: the current record under a key,
  a key's history, one current record per key, a cursor page (filtered by
  key if asked: ballots by election) and the stream length.

A re-entrant lock totally orders appends, so casting clients can append
concurrently; the hash chains commit to that order.

**Write-behind** at ``batch_size > 1``: an append validates and indexes its
records at once — every record read sees them, and their sequence numbers
are final — and queues the chain extensions.  A flush persists the queue
(:meth:`MemoryBackend._persist`, which the SQLite subclass overrides) and
then extends each chain in append order.  It runs once ``batch_size`` appends
are pending, before any chain is read, and on :meth:`~MemoryBackend.flush` /
:meth:`~MemoryBackend.close`; record reads never flush.  The chains a flush
builds are the ones unbatched appends build, so every batch size publishes
the same heads.  ``batch_size=1`` (the default) flushes after every append.

:class:`AsyncIngestionFrontend` adapts a store for asyncio casting clients:
an append that cannot block or flush runs on the event loop, any other on a
worker thread.
"""

from __future__ import annotations

import asyncio
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, Generic, List, Optional, Sequence, Set, Tuple, Type, cast

from repro import telemetry
from repro.errors import LedgerError
from repro.ledger.log import AppendOnlyLog
from repro.ledger.records import L_E, L_R, L_V, R, RECORD_TYPES, BallotRecord, Chain, Record

#: A cursor into a record stream: the sequence number of the next unread
#: record.  ``GENESIS_CURSOR`` starts a read at the beginning of the stream.
Cursor = int
GENESIS_CURSOR: Cursor = 0

#: One queued chain extension: the record's sequence number in its stream,
#: and the record.
Pending = Tuple[int, Record]


@dataclass(frozen=True)
class Page(Generic[R]):
    """One shard of a cursor-based read.

    ``records`` holds the matching records in ledger order; ``next_cursor``
    resumes the read after the region this page covered (it advances past
    non-matching records too, so filtered reads make progress); ``has_more``
    says whether another page would return records.
    """

    records: List[R]
    next_cursor: Cursor
    has_more: bool


class _Stream:
    """One kind's records in sequence order, and the sequence numbers under each key."""

    __slots__ = ("records", "by_key")

    def __init__(self) -> None:
        self.records: List[Record] = []
        self.by_key: Dict[Any, List[int]] = {}


class MemoryBackend:
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
        self._streams: Dict[Type[Record], _Stream] = {kind: _Stream() for kind in RECORD_TYPES}
        self._logs: Dict[Chain, AppendOnlyLog] = {kind.CHAIN: AppendOnlyLog(kind.CHAIN.log) for kind in RECORD_TYPES}

    # ------------------------------------------------------------- flushing

    @property
    def pending_count(self) -> int:
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
                runs: Dict[Chain, List[bytes]] = {}
                for _, record in pending:
                    runs.setdefault(record.CHAIN, []).append(record.payload())
                for chain, payloads in runs.items():
                    self._logs[chain].append_many(payloads)
                self._pending = []

    def _flush_when_full(self) -> None:
        # Called after an append has left its lock and span, so a
        # ``ledger.flush`` span is a child of the caller's span, not of
        # ``ledger.append``.
        if len(self._pending) >= self.batch_size:
            self.flush()

    def _persist(self, pending: Sequence[Pending]) -> None:
        """Make ``pending`` durable before the chains commit to it (a no-op in
        memory); raise to leave the pending list for the next flush."""

    # ------------------------------------------------------------- appends

    def _stream(self, kind: Type[Record]) -> _Stream:
        stream = self._streams.get(kind)
        if stream is None:
            raise LedgerError(f"{kind.__name__} is not a ledger record kind")
        return stream

    def _validate(self, records: Sequence[Record]) -> None:
        """Refuse the batch if any record breaks its kind's rule, counting the
        keys the batch's earlier records claim."""
        claimed: Dict[Type[Record], Set[Any]] = {}
        for record in records:
            kind = type(record)
            stream = self._stream(kind)
            if kind.KEY is None or not (kind.UNIQUE or kind.REQUIRES):
                continue
            key = getattr(record, kind.KEY)
            if kind.UNIQUE and (key in stream.by_key or key in claimed.get(kind, ())):
                raise LedgerError(f"{kind.TABLE}: {kind.KEY} {key!r} already used")
            required = kind.REQUIRES
            if required is not None and not (key in self._stream(required).by_key or key in claimed.get(required, ())):
                raise LedgerError(f"{kind.TABLE}: {kind.KEY} {key!r} is not in {required.TABLE}")
            claimed.setdefault(kind, set()).add(key)

    def _index(self, record: Record) -> int:
        kind = type(record)
        stream = self._streams[kind]
        seq = len(stream.records)
        stream.records.append(record)
        if kind.KEY is not None:
            stream.by_key.setdefault(getattr(record, kind.KEY), []).append(seq)
        self._pending.append((seq, record))
        return seq

    def append(self, record: Record) -> int:
        """Append one record; returns its sequence number in its kind's stream."""
        with self._lock:
            self._validate((record,))
            seq = self._index(record)
        if type(record) is BallotRecord:
            # Counter only (no span object) on the single-append hot path:
            # this is the casting client's per-ballot ingestion latency.
            telemetry.counter("ledger.append.ballots", backend=self.backend_name)
        self._flush_when_full()
        return seq

    def append_many(self, records: Sequence[Record]) -> List[int]:
        """Append ``records`` under one lock acquisition, all or none; they
        stay contiguous in their streams."""
        if not records:
            return []
        with telemetry.span("ledger.append", backend=self.backend_name, items=len(records)):
            with self._lock:
                self._validate(records)
                seqs = [self._index(record) for record in records]
        ballots = sum(type(record) is BallotRecord for record in records)
        if ballots:
            telemetry.counter("ledger.append.ballots", ballots, backend=self.backend_name)
        self._flush_when_full()
        return seqs

    def try_append_many(self, records: Sequence[Record]) -> Optional[List[int]]:
        """Append ``records`` only if the lock is free right now and the
        appends cannot trip the size-triggered flush; ``None`` otherwise, and
        the caller then appends them on a worker thread."""
        if not self._lock.acquire(blocking=False):
            return None
        try:
            if len(self._pending) + len(records) >= self.batch_size:
                return None
            return self.append_many(records)
        finally:
            self._lock.release()

    # ------------------------------------------------------------- reads

    def get(self, kind: Type[R], key: Any) -> Optional[R]:
        """The current record of ``kind`` under ``key``: the only one of a
        unique kind, the latest of any other."""
        with self._lock:
            stream = self._stream(kind)
            seqs = stream.by_key.get(key)
            return cast(R, stream.records[seqs[-1]]) if seqs else None

    def history(self, kind: Type[R], key: Any) -> List[R]:
        """Every record of ``kind`` under ``key``, in append order."""
        with self._lock:
            stream = self._stream(kind)
            return [cast(R, stream.records[seq]) for seq in stream.by_key.get(key, ())]

    def current(self, kind: Type[R]) -> List[R]:
        """One current record per key, keys in order of their first record
        (for registrations: the tally's input roster)."""
        with self._lock:
            stream = self._stream(kind)
            return [cast(R, stream.records[seqs[-1]]) for seqs in stream.by_key.values()]

    def read(
        self,
        kind: Type[R],
        since: Cursor = GENESIS_CURSOR,
        limit: Optional[int] = None,
        key: Any = None,
    ) -> Page[R]:
        """Up to ``limit`` records of ``kind`` at/after cursor ``since``, only
        those under ``key`` if one is given."""
        if since < 0:
            raise LedgerError(f"cursor must be non-negative, got {since}")
        with telemetry.span("ledger.read", backend=self.backend_name, since=since), self._lock:
            stream = self._stream(kind)
            records = cast(List[R], stream.records)
            total = len(records)
            start = min(since, total)
            if key is None:
                end = total if limit is None else min(start + max(0, limit), total)
                return Page(records=records[start:end], next_cursor=end, has_more=end < total)
            seqs = stream.by_key.get(key, [])
            # First index entry with seq >= since (seqs are ascending).
            position = bisect_left(seqs, start)
            stop = len(seqs) if limit is None else min(position + max(0, limit), len(seqs))
            has_more = stop < len(seqs)
            # Advance past everything scanned: the last matched record if
            # another page remains, the end of the whole stream once the
            # filter is exhausted — and no progress at all when nothing was
            # read but matches remain (limit=0), so no record is ever skipped.
            if stop > position:
                next_cursor = (seqs[stop - 1] + 1) if has_more else total
            else:
                next_cursor = start if has_more else total
            return Page(
                records=[records[seq] for seq in seqs[position:stop]],
                next_cursor=next_cursor,
                has_more=has_more,
            )

    def count(self, kind: Type[Record]) -> int:
        """The length of ``kind``'s stream: the next sequence number."""
        with self._lock:
            return len(self._stream(kind).records)

    # ------------------------------------------------------------- chains

    def log(self, chain: Chain) -> AppendOnlyLog:
        """The hash-chained log of ``chain``, flushed first."""
        self.flush()
        return self._logs[chain]

    def chain_logs(self) -> List[Tuple[str, AppendOnlyLog]]:
        """Every chain the record kinds declare, by name, flushed first.

        The one answer to "which chains does a board have": the chain walk
        in :meth:`verify_all_chains` and the audit layer's per-chain checks
        both iterate it.
        """
        with self._lock:
            self.flush()
            return [(chain.name, log) for chain, log in self._logs.items()]

    @property
    def registration_log(self) -> AppendOnlyLog:
        return self.log(L_R)

    @property
    def envelope_log(self) -> AppendOnlyLog:
        return self.log(L_E)

    @property
    def ballot_log(self) -> AppendOnlyLog:
        return self.log(L_V)

    def verify_all_chains(self) -> bool:
        """Chain-walk every sub-ledger under the append lock; True iff all verify."""
        with self._lock:
            return all(log.verify_chain() for _, log in self.chain_logs())

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Flush, then release resources (the SQLite subclass's connection)."""
        self.flush()

    def __enter__(self) -> "MemoryBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class AsyncIngestionFrontend:
    """asyncio adapter for concurrent ballot casting against a store.

    An append that is a plain queue push runs inline on the event loop; an
    append that would wait for the lock or trip a flush is off-loaded to a
    worker thread, so the loop never blocks on hashing or I/O.
    """

    def __init__(self, store: MemoryBackend) -> None:
        self._store = store

    async def append_many(self, records: Sequence[Record]) -> List[int]:
        # try_append_many checks lock availability and the flush trigger
        # atomically, so the inline path can neither block on a running
        # flush nor start one on the event loop.
        seqs = self._store.try_append_many(records)
        if seqs is not None:
            return seqs
        return await asyncio.to_thread(self._store.append_many, records)

    async def flush(self) -> None:
        await asyncio.to_thread(self._store.flush)

    async def drain(self) -> None:
        """Flush, so every acknowledged record is on its chain (and persisted)."""
        await self.flush()
