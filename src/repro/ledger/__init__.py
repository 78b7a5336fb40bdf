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
