"""A persistent ledger backend on SQLite.

Write-through design: every accepted append command lands in the in-memory
store (inherited from :class:`~repro.ledger.backends.memory.MemoryBackend`,
so reads stay index-fast and semantics stay bit-identical) *and* in a SQLite
row inside the same lock, committed before the append returns.  Reopening a
database replays the persisted commands through the in-memory store, which
rebuilds the exact same hash chains — an auditor who kept an earlier head can
check consistency across restarts.

``path=":memory:"`` gives a private, non-persistent database — useful for
exercising the full SQL path in tests without touching disk.
"""

from __future__ import annotations

import sqlite3
from operator import itemgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Type, TypeVar

from repro.crypto.group import Group
from repro.errors import LedgerError
from repro.ledger.backends.memory import MemoryBackend
from repro.ledger.records import (
    RECORD_TYPES,
    BallotRecord,
    EnvelopeCommitmentRecord,
    EnvelopeUsageRecord,
    LedgerRecord,
    Record,
    RegistrationRecord,
)

T = TypeVar("T", bound=Record)

# Every row carries ``commit_seq`` — the board-wide commit position — because
# the hash chains commit to the *interleaving* of streams (roll entries and
# registrations share L_R; commitments and usages share L_E).  Restore replays
# rows in commit_seq order so reopened chains are bit-identical to the
# pre-restart ones.  There are no indexes: every read is served by the
# in-memory store and SQLite is only read by full-table SELECT at restore.
_ROLL_SCHEMA = """
CREATE TABLE IF NOT EXISTS roll (
    commit_seq INTEGER PRIMARY KEY, seq INTEGER NOT NULL, voter_id TEXT NOT NULL UNIQUE
)"""
_ROLL_SELECT = "SELECT commit_seq, voter_id FROM roll"


class _Statements(NamedTuple):
    """The SQL of one record type's table, derived from ``Record.COLUMNS``."""

    create: str
    insert: str
    select: str


def _statements(record_type: Type[Record]) -> _Statements:
    table = record_type.TABLE
    names = ", ".join(name for name, _ in record_type.COLUMNS)
    columns = "".join(f", {name} {sql} NOT NULL" for name, sql in record_type.COLUMNS)
    return _Statements(
        f"CREATE TABLE IF NOT EXISTS {table} (commit_seq INTEGER PRIMARY KEY, seq INTEGER NOT NULL{columns})",
        f"INSERT INTO {table} (commit_seq, seq, {names}) VALUES (?, ?{', ?' * len(record_type.COLUMNS)})",
        f"SELECT commit_seq, {names} FROM {table}",
    )


_SQL: Dict[Type[Record], _Statements] = {kind: _statements(kind) for kind in RECORD_TYPES}


class SQLiteBackend(MemoryBackend):
    """Write-through persistence over the in-memory reference semantics."""

    #: Attributes the inherited ledger.read / ledger.append telemetry series
    #: to this backend instead of the in-memory parent.
    backend_name = "sqlite"

    def __init__(self, path: str = ":memory:", group: Optional[Group] = None) -> None:
        super().__init__()
        self._path = path
        self._group = group
        # The backend lock (not SQLite's) serializes access; the connection
        # may then be shared across ingestion threads safely.
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._restoring = False
        self._commit_seq = 0
        self._restore()

    def _next_commit_seq(self) -> int:
        seq = self._commit_seq
        self._commit_seq = seq + 1
        return seq

    # ------------------------------------------------------------- restore

    def _restore(self) -> None:
        """Create missing tables, then replay every persisted command in commit order.

        Anything unreadable — a damaged file, a row that is not the strict
        encoding of a record — is a :class:`LedgerError` naming the table
        (and the row's ``commit_seq``), never a silently different board.
        """
        sources: List[Tuple[Optional[Type[LedgerRecord]], str, str, str]] = [(None, "roll", _ROLL_SCHEMA, _ROLL_SELECT)]
        sources += [(kind, kind.TABLE, _SQL[kind].create, _SQL[kind].select) for kind in RECORD_TYPES]
        commands: List[Tuple[int, Optional[Type[LedgerRecord]], str, Tuple[Any, ...]]] = []
        for kind, table, create, select in sources:
            try:
                self._conn.execute(create)
                commands += [(row[0], kind, table, row[1:]) for row in self._conn.execute(select)]
            except sqlite3.Error as error:
                raise LedgerError(f"board database {self._path!r}: table {table} is unreadable: {error}") from error
        self._conn.commit()
        if not commands:
            return
        if self._group is None:
            raise LedgerError(
                f"board database {self._path!r} holds records; pass the election group so they can be decoded"
            )
        group = self._group
        commands.sort(key=itemgetter(0))
        self._restoring = True
        try:
            for commit_seq, kind, table, row in commands:
                try:
                    if kind is None:
                        if not isinstance(row[0], str):
                            raise LedgerError("voter_id: expected str")
                        self.publish_electoral_roll(row)
                    else:
                        self.append(kind.from_row(group, row))
                except LedgerError as error:
                    raise LedgerError(
                        f"board database {self._path!r}: table {table}, commit_seq {commit_seq}: {error}"
                    ) from None
        finally:
            self._restoring = False
        self._commit_seq = commands[-1][0] + 1

    # ------------------------------------------------------------- writes

    def publish_electoral_roll(self, voter_ids: Sequence[str]) -> None:
        with self._lock:
            base = len(self.eligible_voters())
            super().publish_electoral_roll(voter_ids)
            if self._restoring:
                return
            self._conn.executemany(
                "INSERT INTO roll (commit_seq, seq, voter_id) VALUES (?, ?, ?)",
                [(self._next_commit_seq(), base + offset, voter_id) for offset, voter_id in enumerate(voter_ids)],
            )
            self._conn.commit()

    def _persist(self, seqs: Sequence[int], records: Sequence[Record]) -> None:
        """Write records the in-memory store just accepted (all of one type)
        through to their table; replayed records are already there."""
        if self._restoring:
            return
        self._conn.executemany(
            _SQL[type(records[0])].insert,
            [(self._next_commit_seq(), seq) + record.to_row() for seq, record in zip(seqs, records)],
        )
        self._conn.commit()

    def _through(self, append: Callable[[T], int], record: T) -> int:
        with self._lock:
            seq = append(record)
            self._persist((seq,), (record,))
            return seq

    def append_registration(self, record: RegistrationRecord) -> int:
        return self._through(super().append_registration, record)

    def append_envelope_commitment(self, record: EnvelopeCommitmentRecord) -> int:
        return self._through(super().append_envelope_commitment, record)

    def append_envelope_usage(self, record: EnvelopeUsageRecord) -> int:
        return self._through(super().append_envelope_usage, record)

    def append_ballot(self, record: BallotRecord) -> int:
        return self._through(super().append_ballot, record)

    def append_ballots(
        self, records: Sequence[BallotRecord], payloads: Optional[Sequence[bytes]] = None
    ) -> List[int]:
        if not records:
            return []
        with self._lock:
            seqs = super().append_ballots(records, payloads=payloads)
            self._persist(seqs, records)
            return seqs

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        with self._lock:
            # sqlite3 connections close idempotently, so repeated close()
            # calls (the LedgerBackend contract) need no sentinel dance.
            self._conn.close()
