"""Building a ledger store, and the read-only view stages hold.

* **Cursor-based reads.**  ``store.read(BallotRecord, since=cursor,
  limit=n)`` returns a :class:`~repro.ledger.backends.memory.Page`; tally
  stages stream shards instead of materializing the full ballot list.  A
  cursor is just the next unread sequence number, so resuming a read is
  ``read(BallotRecord, since=page.next_cursor)``.
* **A read facade.**  :class:`BoardView` is the store's reads with its
  appends refused — what the tally pipeline, universal verification and the
  coercion adversary hold.
* **Pluggable storage.**  :func:`board_from_spec` builds the thread-safe
  in-process store or the persistent SQLite one from a ``board_spec``
  string (forms: :data:`repro.spec.BOARD`); ``batched[:N][:inner]`` builds
  the inner store write-behind, flushing every ``N`` appends.

Every store is observationally equivalent: the same sequence of accepted
appends yields bit-identical hash chains and identical read results.  The
concurrency tests in ``tests/ledger`` pin this down for threaded and asyncio
ingestion.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.errors import LedgerError
from repro.ledger.backends import memory, sqlite
from repro.ledger.backends.memory import GENESIS_CURSOR, Cursor, MemoryBackend, Page
from repro.ledger.bulletin_board import BulletinBoard
from repro.ledger.records import BallotRecord
from repro.spec import BOARD

#: Appends a ``batched`` board spec holds pending before it flushes, when the
#: spec names no size.
DEFAULT_BATCH_SIZE = 256

#: The store's writes, which a view refuses.
_WRITES = frozenset({"append", "append_many", "try_append_many", "close"})


class BoardView:
    """The store's reads, with its writes refused.

    Every read name is the store's own (:class:`~repro.ledger.backends.memory.
    MemoryBackend`), so a stage that holds a view reads exactly what the
    store serves and provably cannot write.  Constructed via
    :func:`as_board_view`, which is idempotent.
    """

    __slots__ = ("_store",)

    def __init__(self, store: MemoryBackend) -> None:
        self._store = store

    def __getattr__(self, name: str) -> Any:
        if name in _WRITES:
            raise AttributeError(f"a board view cannot {name}: it only reads")
        return getattr(self._store, name)

    def iter_ballot_pages(
        self,
        election_id: Optional[str] = None,
        page_size: int = 1024,
        since: Cursor = GENESIS_CURSOR,
    ) -> Iterator[Page[BallotRecord]]:
        """Stream the ballot ledger as shards of at most ``page_size`` records."""
        cursor = since
        while True:
            page = self._store.read(BallotRecord, since=cursor, limit=page_size, key=election_id)
            if page.records:
                yield page
            cursor = page.next_cursor
            if not page.has_more:
                return


def as_board_view(board: object) -> BoardView:
    """The view of a store, of a :class:`BulletinBoard`'s store, or the view itself."""
    if isinstance(board, BoardView):
        return board
    store = board.store if isinstance(board, BulletinBoard) else board
    if not isinstance(store, MemoryBackend):
        raise LedgerError(f"cannot derive a BoardView from {type(board).__name__}")
    return BoardView(store)


def board_from_spec(spec: str, group: Optional[Any] = None) -> MemoryBackend:
    """Build a ledger store from a ``board_spec`` (forms: :data:`repro.spec.BOARD`).

    ``batched[:N][:inner]`` builds the inner store with ``batch_size=N``
    (default :data:`DEFAULT_BATCH_SIZE`); a batched inner spec is refused.
    ``group`` is the election group, required by the SQLite backend to
    decode persisted records when reopening an existing database.
    """
    # The classes are looked up on their modules per call, so a substituted
    # store class (a test's deliberately slow one) is what the spec builds.
    head, given = BOARD.parse(spec)
    batch_size = 1
    if head == "batched":
        batch_size = given.get("batch_size", DEFAULT_BATCH_SIZE)
        head, given = BOARD.parse(given.get("inner", "memory"))
        if head == "batched":
            raise LedgerError(f"board_spec: a batched board cannot wrap another in {spec!r}")
    if head == "sqlite":
        return sqlite.SQLiteBackend(group=group, batch_size=batch_size, **given)
    return memory.MemoryBackend(batch_size)
