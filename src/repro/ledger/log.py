"""A tamper-evident, hash-chained append-only log.

Each entry commits to its payload and to the previous entry's hash, so the
head hash commits to the entire history.  Any attempt to delete, modify or
reorder entries changes every later head, which an auditor holding an earlier
head detects immediately — the "tamper-evident log" abstraction the paper's
ledger idealization relies on (Crosby–Wallach style, simplified to a hash
chain with Merkle-free linear inclusion proofs, which is sufficient at the
scales we simulate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.crypto.hashing import sha256
from repro.errors import LedgerError

_GENESIS = b"\x00" * 32


@dataclass(frozen=True)
class LogEntry:
    """One appended record: sequence number, payload, and chained hash."""

    index: int
    payload: bytes
    previous_hash: bytes
    entry_hash: bytes

    @staticmethod
    def compute_hash(index: int, payload: bytes, previous_hash: bytes) -> bytes:
        return sha256(b"log-entry", index.to_bytes(8, "big"), payload, previous_hash)


@dataclass(frozen=True)
class LogHead:
    """A signed-off snapshot of the log: its size and the latest entry hash."""

    size: int
    head_hash: bytes


@dataclass(frozen=True)
class InclusionProof:
    """Proof that an entry is included under a (later) head.

    For the hash chain this is the list of subsequent entries' (index,
    payload) pairs, enough to recompute the head from the claimed entry.
    """

    entry: LogEntry
    subsequent: List[LogEntry]
    head: LogHead


class AppendOnlyLog:
    """An append-only log with hash chaining and audit helpers."""

    def __init__(self, name: str = "ledger") -> None:
        self.name = name
        self._entries: List[LogEntry] = []

    # Append / read ------------------------------------------------------------

    def append(self, payload: bytes) -> LogEntry:
        previous_hash = self._entries[-1].entry_hash if self._entries else _GENESIS
        index = len(self._entries)
        entry = LogEntry(
            index=index,
            payload=payload,
            previous_hash=previous_hash,
            entry_hash=LogEntry.compute_hash(index, payload, previous_hash),
        )
        self._entries.append(entry)
        return entry

    def append_many(self, payloads: Iterable[bytes]) -> List[LogEntry]:
        """Append ``payloads`` in order, producing the same entries (and the
        same head) as repeated :meth:`append` calls — the bulk path write-behind
        flushes take, kept tight by hoisting the chain state into locals."""
        entries = self._entries
        previous_hash = entries[-1].entry_hash if entries else _GENESIS
        index = len(entries)
        appended: List[LogEntry] = []
        compute = LogEntry.compute_hash
        for payload in payloads:
            entry_hash = compute(index, payload, previous_hash)
            entry = LogEntry(
                index=index, payload=payload, previous_hash=previous_hash, entry_hash=entry_hash
            )
            entries.append(entry)
            appended.append(entry)
            previous_hash = entry_hash
            index += 1
        return appended

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self._entries)

    def entry(self, index: int) -> LogEntry:
        if not 0 <= index < len(self._entries):
            raise LedgerError(f"no entry at index {index}")
        return self._entries[index]

    def entries(self) -> List[LogEntry]:
        return list(self._entries)

    def head(self) -> LogHead:
        head_hash = self._entries[-1].entry_hash if self._entries else _GENESIS
        return LogHead(size=len(self._entries), head_hash=head_hash)

    # Audit ----------------------------------------------------------------------

    def verify_chain(self) -> bool:
        """Recompute every hash in the chain; True iff the log is internally consistent."""
        return AppendOnlyLog.verify_entries(self._entries)

    @staticmethod
    def verify_entries(entries: Sequence[LogEntry]) -> bool:
        """Chain-walk a snapshot of entries (what :meth:`verify_chain` checks).

        Static so auditors can verify an exported entry list — e.g. an audit
        ``Check`` carrying a ledger snapshot — without holding the live log.
        """
        previous_hash = _GENESIS
        for index, entry in enumerate(entries):
            if entry.index != index or entry.previous_hash != previous_hash:
                return False
            if entry.entry_hash != LogEntry.compute_hash(index, entry.payload, previous_hash):
                return False
            previous_hash = entry.entry_hash
        return True

    def inclusion_proof(self, index: int, head: Optional[LogHead] = None) -> InclusionProof:
        """Produce an inclusion proof for ``index`` under ``head`` (default: current head)."""
        head = head if head is not None else self.head()
        if head.size > len(self._entries):
            raise LedgerError("head is ahead of the log")
        entry = self.entry(index)
        if index >= head.size:
            raise LedgerError("entry is newer than the head")
        return InclusionProof(entry=entry, subsequent=self._entries[index + 1 : head.size], head=head)

    @staticmethod
    def verify_inclusion(proof: InclusionProof) -> bool:
        """Check an inclusion proof without access to the full log."""
        entry = proof.entry
        if entry.entry_hash != LogEntry.compute_hash(entry.index, entry.payload, entry.previous_hash):
            return False
        running = entry.entry_hash
        expected_index = entry.index + 1
        for later in proof.subsequent:
            if later.index != expected_index or later.previous_hash != running:
                return False
            if later.entry_hash != LogEntry.compute_hash(later.index, later.payload, later.previous_hash):
                return False
            running = later.entry_hash
            expected_index += 1
        return running == proof.head.head_hash and expected_index == proof.head.size

    @staticmethod
    def verify_consistency(older: LogHead, newer: LogHead, entries: List[LogEntry]) -> bool:
        """Check that ``newer`` extends ``older`` given the intermediate entries."""
        if newer.size < older.size:
            return False
        running = older.head_hash
        index = older.size
        for entry in entries:
            if entry.index != index or entry.previous_hash != running:
                return False
            if entry.entry_hash != LogEntry.compute_hash(entry.index, entry.payload, entry.previous_hash):
                return False
            running = entry.entry_hash
            index += 1
        return running == newer.head_hash and index == newer.size
