"""The public bulletin board (ledger) substrate.

Votegral's backend includes a ledger ``L`` — an append-only, always-available,
publicly-readable data structure — split into three sub-ledgers (Appendix D.1):

* ``L_R`` the **registration ledger** (the electoral roll, and one active
  record per voter identity),
* ``L_E`` the **envelope commitment ledger** (hashes of envelope challenges
  published by the printers, plus challenges consumed at activation),
* ``L_V`` the **ballot ledger** (encrypted ballots).

The paper idealizes the ledger as tamper-evident with a globally consistent
view.  We implement it as hash-chained append-only logs with inclusion
proofs, under one store (:class:`~repro.ledger.backends.memory.MemoryBackend`,
thread-safe in memory or SQLite-persistent, either of them write-behind
batched, selected with :func:`~repro.ledger.api.board_from_spec`).  Each
record class (:mod:`repro.ledger.records`) declares its chain, its key and
its rule; the store appends any of them through ``append`` /
``append_many`` and reads them with ``get`` / ``history`` / ``current`` /
``read`` / ``count``.  Consumers hold a read-only
:class:`~repro.ledger.api.BoardView`.
"""

from repro.ledger.api import BoardView, as_board_view, board_from_spec
from repro.ledger.backends import AsyncIngestionFrontend, MemoryBackend, SQLiteBackend
from repro.ledger.backends.memory import GENESIS_CURSOR, Cursor, Page
from repro.ledger.bulletin_board import BulletinBoard
from repro.ledger.log import AppendOnlyLog, InclusionProof, LogEntry, LogHead
from repro.ledger.records import (
    BallotRecord,
    EnvelopeCommitmentRecord,
    EnvelopeUsageRecord,
    RegistrationRecord,
    RollEntry,
)

__all__ = [
    "AppendOnlyLog",
    "LogEntry",
    "LogHead",
    "InclusionProof",
    "BulletinBoard",
    "RollEntry",
    "RegistrationRecord",
    "EnvelopeCommitmentRecord",
    "EnvelopeUsageRecord",
    "BallotRecord",
    "BoardView",
    "Page",
    "Cursor",
    "GENESIS_CURSOR",
    "as_board_view",
    "board_from_spec",
    "MemoryBackend",
    "SQLiteBackend",
    "AsyncIngestionFrontend",
]
