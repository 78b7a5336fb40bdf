"""The public bulletin board (ledger) substrate.

Votegral's backend includes a ledger ``L`` — an append-only, always-available,
publicly-readable data structure — split into three sub-ledgers (Appendix D.1):

* ``L_R`` the **registration ledger** (one active record per voter identity),
* ``L_E`` the **envelope commitment ledger** (hashes of envelope challenges
  published by the printers, plus challenges consumed at activation),
* ``L_V`` the **ballot ledger** (encrypted ballots).

The paper idealizes the ledger as tamper-evident with a globally consistent
view.  We implement it as a hash-chained append-only log with inclusion
proofs, behind the versioned :class:`~repro.ledger.api.LedgerBackend`
contract (:mod:`repro.ledger.api`): producers issue typed append commands,
consumers stream cursor-based reads through a
:class:`~repro.ledger.api.BoardView`, and the storage backend — thread-safe
in-memory or SQLite-persistent, either of them write-behind batched — is
selected with :func:`~repro.ledger.api.board_from_spec`.
"""

from repro.ledger.api import (
    BallotPage,
    BoardView,
    Cursor,
    GENESIS_CURSOR,
    LEDGER_API_VERSION,
    LedgerBackend,
    as_board_view,
    board_from_spec,
    chain_logs,
    verify_chained_logs,
)
from repro.ledger.backends import AsyncIngestionFrontend, MemoryBackend, SQLiteBackend
from repro.ledger.bulletin_board import BulletinBoard
from repro.ledger.log import AppendOnlyLog, InclusionProof, LogEntry, LogHead
from repro.ledger.records import (
    BallotRecord,
    EnvelopeCommitmentRecord,
    EnvelopeUsageRecord,
    RegistrationRecord,
)

__all__ = [
    "AppendOnlyLog",
    "LogEntry",
    "LogHead",
    "InclusionProof",
    "BulletinBoard",
    "RegistrationRecord",
    "EnvelopeCommitmentRecord",
    "EnvelopeUsageRecord",
    "BallotRecord",
    "LEDGER_API_VERSION",
    "LedgerBackend",
    "BoardView",
    "BallotPage",
    "Cursor",
    "GENESIS_CURSOR",
    "as_board_view",
    "board_from_spec",
    "chain_logs",
    "verify_chained_logs",
    "MemoryBackend",
    "SQLiteBackend",
    "AsyncIngestionFrontend",
]
