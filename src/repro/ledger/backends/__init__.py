"""The ledger store and its SQLite persistence.

* :mod:`~repro.ledger.backends.memory` — the thread-safe in-process store
  (the reference semantics persistence must reproduce bit-for-bit),
  write-behind at ``batch_size > 1``, with an asyncio front-end;
* :mod:`~repro.ledger.backends.sqlite` — the same store, persisting each
  flush to SQLite in one transaction.
"""

from repro.ledger.backends.memory import AsyncIngestionFrontend, MemoryBackend
from repro.ledger.backends.sqlite import SQLiteBackend

__all__ = [
    "AsyncIngestionFrontend",
    "MemoryBackend",
    "SQLiteBackend",
]
