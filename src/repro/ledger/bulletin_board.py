"""The Votegral bulletin board: a handle on the ledger store.

The board stores structured records for:

* **the electoral roll and registration sessions** — ``L_R[V_id] = (c_pc,
  K_pk, σ_kot, O_pk, σ_o)`` (Fig. 10); a new record for the same voter
  identity supersedes all prior ones, so there is at most one *active*
  registration per voter;
* **envelope commitments** — ``(P_pk, H(e), σ_p)`` published by the envelope
  printers at setup (Fig. 7), plus the challenges revealed at activation so
  duplicate-envelope attacks are detectable (Appendix F.3.5);
* **ballots** — encrypted ballots signed by a credential key pair.

All of it lives in the store (:class:`~repro.ledger.backends.memory.
MemoryBackend`, SQLite-persistent or write-behind via
``ElectionConfig.board_spec`` / :func:`repro.ledger.api.board_from_spec`).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.ledger.backends.memory import MemoryBackend
from repro.ledger.records import BallotRecord, RegistrationRecord, RollEntry


class BulletinBoard:
    """A handle that forwards every name to its :attr:`store`.

    It keeps the names the end-to-end benchmark builds and traces boards by
    — ``publish_electoral_roll``, ``post_registration``, ``post_ballot`` and
    the read ``num_ballots`` — and goes with ROADMAP item 1(b), when the
    benchmark calls the store's ``append`` / ``append_many`` and ``count``
    itself.  Constructing one with no arguments gives a fresh in-memory store.
    """

    __slots__ = ("store",)

    def __init__(self, store: Optional[MemoryBackend] = None) -> None:
        self.store = store if store is not None else MemoryBackend()

    def __getattr__(self, name: str) -> Any:
        if name == "num_ballots":
            return self.store.count(BallotRecord)
        return getattr(self.store, name)

    def publish_electoral_roll(self, voter_ids: Sequence[str]) -> None:
        self.store.append_many([RollEntry(voter_id) for voter_id in voter_ids])

    def post_registration(self, record: RegistrationRecord) -> int:
        return self.store.append(record)

    def post_ballot(self, record: BallotRecord) -> int:
        return self.store.append(record)
