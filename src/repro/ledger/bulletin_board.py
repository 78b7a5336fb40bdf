"""The Votegral bulletin board: the typed facade over a pluggable backend.

The bulletin board stores structured records for:

* **registration sessions** — ``L_R[V_id] = (c_pc, K_pk, σ_kot, O_pk, σ_o)``
  (Fig. 10); a new record for the same voter identity supersedes all prior
  ones, so there is at most one *active* registration per voter;
* **envelope commitments** — ``(P_pk, H(e), σ_p)`` published by the envelope
  printers at setup (Fig. 7), plus the challenges revealed at activation so
  duplicate-envelope attacks are detectable (Appendix F.3.5);
* **ballots** — encrypted ballots signed by a credential key pair.

Storage lives behind the versioned :class:`repro.ledger.api.LedgerBackend`
contract — thread-safe in-memory by default, SQLite-persistent or
write-behind batched via ``ElectionConfig.board_spec`` /
:func:`repro.ledger.api.board_from_spec`.  Records are serialized and
appended to hash-chained logs, so all the tamper-evidence and
inclusion-proof machinery of :class:`repro.ledger.log.AppendOnlyLog` applies
identically on every backend.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.ledger.api import (
    BallotPage,
    BoardView,
    Cursor,
    GENESIS_CURSOR,
    LedgerBackend,
)
from repro.ledger.log import AppendOnlyLog

# Re-exported for compatibility: these records historically lived here and
# most of the codebase imports them from this module.
from repro.ledger.records import (
    BallotRecord,
    EnvelopeCommitmentRecord,
    EnvelopeUsageRecord,
    RegistrationRecord,
)

__all__ = [
    "BulletinBoard",
    "RegistrationRecord",
    "EnvelopeCommitmentRecord",
    "EnvelopeUsageRecord",
    "BallotRecord",
]


class BulletinBoard:
    """The ledger ``L`` with its three sub-ledgers and typed accessors.

    A thin facade: every method is a typed append command or read delegated
    to the configured :class:`~repro.ledger.api.LedgerBackend`.  Constructing
    one with no arguments keeps the historical behavior (a fresh in-memory
    store).
    """

    def __init__(self, backend: Optional[LedgerBackend] = None) -> None:
        if backend is None:
            from repro.ledger.backends.memory import MemoryBackend

            backend = MemoryBackend()
        self._backend = backend

    @property
    def backend(self) -> LedgerBackend:
        return self._backend

    def view(self) -> BoardView:
        """The read-only facade tally/audit stages should hold."""
        return BoardView(self._backend)

    # Electoral roll ------------------------------------------------------------

    def publish_electoral_roll(self, voter_ids: Sequence[str]) -> None:
        """Populate ``L_R`` with the eligible voters' identifiers (Fig. 7, line 4)."""
        self._backend.publish_electoral_roll(voter_ids)

    @property
    def eligible_voters(self) -> List[str]:
        return self._backend.eligible_voters()

    def is_eligible(self, voter_id: str) -> bool:
        return self._backend.is_eligible(voter_id)

    # Registration ledger L_R ----------------------------------------------------

    def post_registration(self, record: RegistrationRecord) -> int:
        """Record a completed check-out; supersedes any prior record for the voter."""
        return self._backend.append_registration(record)

    def registration_for(self, voter_id: str) -> Optional[RegistrationRecord]:
        """The currently-active registration record for ``voter_id``, if any."""
        return self._backend.registration_for(voter_id)

    def registration_history(self, voter_id: str) -> List[RegistrationRecord]:
        return self._backend.registration_history(voter_id)

    def active_registrations(self) -> List[RegistrationRecord]:
        """One active record per registered voter (the tally input roster)."""
        return self._backend.active_registrations()

    @property
    def num_registered(self) -> int:
        return self._backend.num_registered

    # Envelope ledger L_E ----------------------------------------------------------

    def post_envelope_commitment(self, record: EnvelopeCommitmentRecord) -> int:
        return self._backend.append_envelope_commitment(record)

    def envelope_commitment(self, challenge_hash: bytes) -> Optional[EnvelopeCommitmentRecord]:
        return self._backend.envelope_commitment(challenge_hash)

    def post_envelope_usage(self, record: EnvelopeUsageRecord) -> int:
        """Reveal a consumed challenge at activation time.

        Raises :class:`repro.errors.LedgerError` if the same challenge was
        already revealed — the duplicate-envelope detection of Appendix F.3.5.
        """
        return self._backend.append_envelope_usage(record)

    def is_challenge_used(self, challenge_hash: bytes) -> bool:
        return self._backend.is_challenge_used(challenge_hash)

    @property
    def num_envelope_commitments(self) -> int:
        return self._backend.num_envelope_commitments

    @property
    def num_challenges_used(self) -> int:
        """Aggregate count of activated credentials (what a coercer can see)."""
        return self._backend.num_challenges_used

    # Ballot ledger L_V -------------------------------------------------------------

    def post_ballot(self, record: BallotRecord) -> int:
        return self._backend.append_ballot(record)

    def post_ballots(self, records: Sequence[BallotRecord]) -> List[int]:
        return self._backend.append_ballots(records)

    def read_ballots(
        self,
        since: Cursor = GENESIS_CURSOR,
        limit: Optional[int] = None,
        election_id: Optional[str] = None,
    ) -> BallotPage:
        """Cursor-based range read over the ballot stream (see :mod:`repro.ledger.api`)."""
        return self._backend.read_ballots(since=since, limit=limit, election_id=election_id)

    def ballots(self, election_id: Optional[str] = None) -> List[BallotRecord]:
        return self.view().ballots(election_id)

    @property
    def num_ballots(self) -> int:
        return self._backend.num_ballots

    # Logs ----------------------------------------------------------------------------

    @property
    def registration_log(self) -> AppendOnlyLog:
        return self._backend.registration_log

    @property
    def envelope_log(self) -> AppendOnlyLog:
        return self._backend.envelope_log

    @property
    def ballot_log(self) -> AppendOnlyLog:
        return self._backend.ballot_log

    # Audit ----------------------------------------------------------------------------

    def verify_all_chains(self) -> bool:
        """Verify the hash chains of all three sub-ledgers."""
        return self._backend.verify_all_chains()

    # Lifecycle ------------------------------------------------------------------------

    def flush(self) -> None:
        """Force any write-behind buffers down to the backend chains."""
        self._backend.flush()

    def close(self) -> None:
        """Release backend resources (flusher threads, database connections)."""
        self._backend.close()

    def __enter__(self) -> "BulletinBoard":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
