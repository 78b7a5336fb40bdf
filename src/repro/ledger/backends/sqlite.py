"""A persistent ledger backend on SQLite.

The in-memory store (inherited from
:class:`~repro.ledger.backends.memory.MemoryBackend`) serves every read and
builds the hash chains; this subclass overrides only the flush's
:meth:`~repro.ledger.backends.memory.MemoryBackend._persist`, which writes the
flushed appends as rows in one transaction before the chains commit to them.
At ``batch_size=1`` every append is committed before it returns; at a larger
batch size appends are durable once flushed.  Reopening a database replays
the persisted commands through the in-memory store, which rebuilds the exact
same hash chains — an auditor who kept an earlier head can check consistency
across restarts.

``path=":memory:"`` gives a private, non-persistent database — useful for
exercising the full SQL path in tests without touching disk.
"""

from __future__ import annotations

import sqlite3
from functools import lru_cache
from itertools import groupby
from operator import itemgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple, Type

from repro.crypto.group import Group
from repro.errors import LedgerError
from repro.ledger.backends.memory import MemoryBackend, Pending
from repro.ledger.records import RECORD_TYPES, Record

# Every row carries ``commit_seq`` — the board-wide commit position — because
# the hash chains commit to the *interleaving* of streams (roll entries and
# registrations share L_R; commitments and usages share L_E).  Restore replays
# rows in commit_seq order so reopened chains are bit-identical to the
# pre-restart ones.  A unique kind's key column is UNIQUE in a new table; there
# are no other indexes: every read is served by the in-memory store and SQLite
# is only read by full-table SELECT at restore.


class _Statements(NamedTuple):
    """The SQL of one record type's table, derived from ``Record.COLUMNS``."""

    create: str
    insert: str
    select: str


@lru_cache(maxsize=None)
def _statements(record_type: Type[Record]) -> _Statements:
    table = record_type.TABLE
    names = ", ".join(name for name, _ in record_type.COLUMNS)
    columns = "".join(
        f", {name} {sql} NOT NULL" + (" UNIQUE" if record_type.UNIQUE and name == record_type.KEY else "")
        for name, sql in record_type.COLUMNS
    )
    return _Statements(
        f"CREATE TABLE IF NOT EXISTS {table} (commit_seq INTEGER PRIMARY KEY, seq INTEGER NOT NULL{columns})",
        f"INSERT INTO {table} (commit_seq, seq, {names}) VALUES (?, ?{', ?' * len(record_type.COLUMNS)})",
        f"SELECT commit_seq, {names} FROM {table}",
    )


class SQLiteBackend(MemoryBackend):
    """Persistence under the in-memory reference semantics."""

    #: Attributes the inherited ledger.read / ledger.append telemetry series
    #: to this backend instead of the in-memory parent.
    backend_name = "sqlite"

    def __init__(self, path: str = ":memory:", group: Optional[Group] = None, batch_size: int = 1) -> None:
        super().__init__(batch_size)
        self._path = path
        self._group = group
        # The backend lock (not SQLite's) serializes access; the connection
        # may then be shared across ingestion threads safely.
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._restoring = False
        self._commit_seq = 0
        self._restore()

    # ------------------------------------------------------------- restore

    def _restore(self) -> None:
        """Create missing tables, then replay every persisted command in commit order.

        Anything unreadable — a damaged file, a row that is not the strict
        encoding of a record — is a :class:`LedgerError` naming the table
        (and the row's ``commit_seq``), never a silently different board.
        """
        commands: List[Tuple[int, Type[Record], Tuple[object, ...]]] = []
        for kind in RECORD_TYPES:
            statements = _statements(kind)
            try:
                self._conn.execute(statements.create)
                commands += [(row[0], kind, row[1:]) for row in self._conn.execute(statements.select)]
            except sqlite3.Error as error:
                raise LedgerError(
                    f"board database {self._path!r}: table {kind.TABLE} is unreadable: {error}"
                ) from error
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
            for commit_seq, kind, row in commands:
                try:
                    self.append(kind.from_row(group, row))
                except LedgerError as error:
                    raise LedgerError(
                        f"board database {self._path!r}: table {kind.TABLE}, commit_seq {commit_seq}: {error}"
                    ) from None
            self.flush()
        finally:
            self._restoring = False
        self._commit_seq = commands[-1][0] + 1

    # ------------------------------------------------------------- writes

    def _persist(self, pending: Sequence[Pending]) -> None:
        """Write a flush's appends as rows, in commit order, in one transaction;
        replayed appends are already there.  On any error the transaction is
        rolled back, so a retried flush writes each row once."""
        if self._restoring:
            return
        commit_seq = self._commit_seq
        try:
            # One executemany per run of appends bound for the same table.
            for kind, run in groupby(pending, key=lambda entry: type(entry[1])):
                rows = [(commit_seq + offset, seq) + record.to_row() for offset, (seq, record) in enumerate(run)]
                self._conn.executemany(_statements(kind).insert, rows)
                commit_seq += len(rows)
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            raise
        self._commit_seq = commit_seq

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        with self._lock:
            super().close()
            # sqlite3 connections close idempotently, so repeated close()
            # calls need no sentinel dance.
            self._conn.close()
