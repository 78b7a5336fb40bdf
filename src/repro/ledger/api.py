"""The versioned, backend-pluggable bulletin-board API.

The paper idealizes the ledger ``L`` as an append-only, always-available,
publicly-readable structure.  This module makes that idealization an explicit
contract — :class:`LedgerBackend` — so ballot ingestion can scale
independently of tallying:

* **Typed append commands.**  Every write is one of the four record types in
  :mod:`repro.ledger.records`; ``append_*`` returns the record's monotonic
  **sequence number** in its stream (0, 1, 2, … in commit order).
* **Cursor-based reads.**  ``read_ballots(since=cursor, limit=n)`` returns a
  :class:`BallotPage`; tally stages stream shards instead of materializing
  the full ballot list.  A cursor is just the next unread sequence number,
  so resuming a read is ``read_ballots(since=page.next_cursor)``.
* **A read facade.**  :class:`BoardView` exposes exactly the read surface
  the tally pipeline, universal verification and the coercion adversary
  consume — no append methods, no backend internals.
* **Pluggable backends.**  :func:`board_from_spec` builds the thread-safe
  in-process store or the persistent SQLite backend from a ``board_spec``
  string (forms: :data:`repro.spec.BOARD`); ``batched[:N][:inner]`` builds
  the inner store write-behind, flushing every ``N`` appends
  (:class:`repro.ledger.backends.memory.MemoryBackend`).

Every backend must be observationally equivalent: the same sequence of
accepted append commands yields bit-identical hash chains and identical read
results.  The concurrency tests in ``tests/ledger`` pin this down for
threaded and asyncio ingestion.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:
    from repro.audit.api import AuditReport
    from repro.ledger.backends.memory import MemoryBackend

from repro.errors import LedgerError
from repro.ledger.log import AppendOnlyLog
from repro.ledger.records import (
    BallotRecord,
    EnvelopeCommitmentRecord,
    EnvelopeUsageRecord,
    LedgerRecord,
    RegistrationRecord,
)
from repro.spec import BOARD

#: The ledger API version this module defines.  Backends advertise the
#: version they implement via :attr:`LedgerBackend.api_version`; consumers
#: that need a newer surface can check before use instead of failing deep
#: inside a phase.
LEDGER_API_VERSION = 1

#: A cursor into the ballot stream: the sequence number of the next unread
#: record.  ``GENESIS_CURSOR`` starts a read at the beginning of the stream.
Cursor = int
GENESIS_CURSOR: Cursor = 0

#: Appends a ``batched`` board spec holds pending before it flushes, when the
#: spec names no size.
DEFAULT_BATCH_SIZE = 256


@dataclass(frozen=True)
class BallotPage:
    """One shard of a cursor-based ballot read.

    ``records`` holds the matching ballots in ledger order; ``next_cursor``
    resumes the read after the region this page covered (it advances past
    non-matching records too, so filtered reads make progress); ``has_more``
    says whether another page would return records.
    """

    records: List[BallotRecord]
    next_cursor: Cursor
    has_more: bool


class LedgerBackend(abc.ABC):
    """The bulletin board's storage contract (version :data:`LEDGER_API_VERSION`).

    Implementations must be thread-safe: appends may arrive concurrently from
    casting clients while tally stages read.  Appends are totally ordered per
    stream (the returned sequence numbers are exactly 0, 1, 2, … in commit
    order) and the underlying hash chains commit to that order.
    """

    api_version: int = LEDGER_API_VERSION

    # ------------------------------------------------------------- electoral roll

    @abc.abstractmethod
    def publish_electoral_roll(self, voter_ids: Sequence[str]) -> None:
        """Populate ``L_R`` with the eligible voters' identifiers (Fig. 7, line 4)."""

    @abc.abstractmethod
    def eligible_voters(self) -> List[str]: ...

    @abc.abstractmethod
    def is_eligible(self, voter_id: str) -> bool: ...

    # ------------------------------------------------------------- append commands

    @abc.abstractmethod
    def append_registration(self, record: RegistrationRecord) -> int:
        """Record a completed check-out; supersedes any prior record for the voter."""

    @abc.abstractmethod
    def append_envelope_commitment(self, record: EnvelopeCommitmentRecord) -> int: ...

    @abc.abstractmethod
    def append_envelope_usage(self, record: EnvelopeUsageRecord) -> int:
        """Reveal a consumed challenge; raises :class:`LedgerError` on reuse."""

    @abc.abstractmethod
    def append_ballot(self, record: BallotRecord) -> int: ...

    def append(self, record: LedgerRecord) -> int:
        """Issue the typed append command of ``record``'s type."""
        if isinstance(record, BallotRecord):
            return self.append_ballot(record)
        if isinstance(record, RegistrationRecord):
            return self.append_registration(record)
        if isinstance(record, EnvelopeCommitmentRecord):
            return self.append_envelope_commitment(record)
        return self.append_envelope_usage(record)

    def append_ballots(self, records: Sequence[BallotRecord]) -> List[int]:
        """Bulk ballot append; backends may override with a batched fast path."""
        return [self.append_ballot(record) for record in records]

    @abc.abstractmethod
    def try_append_ballots(self, records: Sequence[BallotRecord]) -> Optional[List[int]]:
        """Append ``records`` only if that cannot block the caller; ``None`` if
        it might, and the caller then appends them on a worker thread."""

    # ------------------------------------------------------------- registration reads

    @abc.abstractmethod
    def registration_for(self, voter_id: str) -> Optional[RegistrationRecord]: ...

    @abc.abstractmethod
    def registration_history(self, voter_id: str) -> List[RegistrationRecord]: ...

    @abc.abstractmethod
    def registration_records(self) -> List[RegistrationRecord]:
        """Every registration record ever posted, superseded ones included."""

    @abc.abstractmethod
    def active_registrations(self) -> List[RegistrationRecord]:
        """One active record per registered voter (the tally input roster)."""

    @property
    @abc.abstractmethod
    def num_registered(self) -> int: ...

    # ------------------------------------------------------------- envelope reads

    @abc.abstractmethod
    def envelope_commitment(self, challenge_hash: bytes) -> Optional[EnvelopeCommitmentRecord]: ...

    @abc.abstractmethod
    def envelope_commitments(self) -> Dict[bytes, EnvelopeCommitmentRecord]: ...

    @abc.abstractmethod
    def is_challenge_used(self, challenge_hash: bytes) -> bool: ...

    @abc.abstractmethod
    def used_challenges(self) -> Dict[bytes, EnvelopeUsageRecord]: ...

    @property
    @abc.abstractmethod
    def num_envelope_commitments(self) -> int: ...

    @property
    @abc.abstractmethod
    def num_challenges_used(self) -> int: ...

    # ------------------------------------------------------------- ballot reads

    @abc.abstractmethod
    def read_ballots(
        self,
        since: Cursor = GENESIS_CURSOR,
        limit: Optional[int] = None,
        election_id: Optional[str] = None,
    ) -> BallotPage:
        """Read up to ``limit`` ballots at/after ``since``, optionally filtered."""

    @property
    @abc.abstractmethod
    def num_ballots(self) -> int: ...

    # ------------------------------------------------------------- logs + audit

    @property
    @abc.abstractmethod
    def registration_log(self) -> AppendOnlyLog: ...

    @property
    @abc.abstractmethod
    def envelope_log(self) -> AppendOnlyLog: ...

    @property
    @abc.abstractmethod
    def ballot_log(self) -> AppendOnlyLog: ...

    def verify_all_chains(self) -> bool:
        """Verify the hash chains of all three sub-ledgers.

        The default walks :func:`chain_logs`; backends override only to add
        locking, and they reuse :func:`verify_chained_logs` rather than
        re-implementing the walk.
        """
        return verify_chained_logs(self)

    # ------------------------------------------------------------- lifecycle

    def flush(self) -> None:
        """Force pending write-behind appends down to durable/chained storage."""

    def close(self) -> None:
        """Flush, then release backend resources (connections)."""

    def __enter__(self) -> "LedgerBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def chain_logs(backend: "LedgerBackend") -> List[Tuple[str, AppendOnlyLog]]:
    """The named hash-chained sub-ledgers every backend exposes.

    The single source of truth for "which chains does a board have" — the
    chain-walk in :func:`verify_chained_logs`, every backend's
    ``verify_all_chains`` and the audit layer's per-chain ``Check`` builders
    all iterate this list instead of hand-rolling their own walk.
    """
    return [
        ("registration", backend.registration_log),
        ("envelope", backend.envelope_log),
        ("ballot", backend.ballot_log),
    ]


def verify_chained_logs(backend: "LedgerBackend") -> bool:
    """Chain-walk all sub-ledgers of ``backend``; True iff every chain verifies."""
    return all(log.verify_chain() for _, log in chain_logs(backend))


class BoardView:
    """The read-only facade tally and audit stages consume.

    Wraps any :class:`LedgerBackend` (or a :class:`~repro.ledger.bulletin_board.
    BulletinBoard` facade) and exposes reads only, so a stage that holds a
    view provably cannot write.  Constructed via :func:`as_board_view`, which
    is idempotent — pipeline entry points accept boards, backends or views.
    """

    __slots__ = ("_backend",)

    def __init__(self, backend: LedgerBackend) -> None:
        if backend.api_version > LEDGER_API_VERSION:
            raise LedgerError(
                f"backend speaks ledger API v{backend.api_version}, "
                f"this build understands v{LEDGER_API_VERSION}"
            )
        self._backend = backend

    # Roll / registration ------------------------------------------------------

    def eligible_voters(self) -> List[str]:
        return self._backend.eligible_voters()

    def is_eligible(self, voter_id: str) -> bool:
        return self._backend.is_eligible(voter_id)

    def registration_for(self, voter_id: str) -> Optional[RegistrationRecord]:
        return self._backend.registration_for(voter_id)

    def registration_history(self, voter_id: str) -> List[RegistrationRecord]:
        return self._backend.registration_history(voter_id)

    def active_registrations(self) -> List[RegistrationRecord]:
        return self._backend.active_registrations()

    @property
    def num_registered(self) -> int:
        return self._backend.num_registered

    # Envelope aggregates (what a coercer can see) ------------------------------

    @property
    def num_envelope_commitments(self) -> int:
        return self._backend.num_envelope_commitments

    @property
    def num_challenges_used(self) -> int:
        return self._backend.num_challenges_used

    # Ballots ------------------------------------------------------------------

    def read_ballots(
        self,
        since: Cursor = GENESIS_CURSOR,
        limit: Optional[int] = None,
        election_id: Optional[str] = None,
    ) -> BallotPage:
        return self._backend.read_ballots(since=since, limit=limit, election_id=election_id)

    def iter_ballot_pages(
        self,
        election_id: Optional[str] = None,
        page_size: int = 1024,
        since: Cursor = GENESIS_CURSOR,
    ) -> Iterator[BallotPage]:
        """Stream the ballot ledger as shards of at most ``page_size`` records."""
        cursor = since
        while True:
            page = self.read_ballots(since=cursor, limit=page_size, election_id=election_id)
            if page.records:
                yield page
            cursor = page.next_cursor
            if not page.has_more:
                return

    def ballots(self, election_id: Optional[str] = None) -> List[BallotRecord]:
        """Materialize the (filtered) ballot list via cursor pagination."""
        records: List[BallotRecord] = []
        for page in self.iter_ballot_pages(election_id=election_id):
            records.extend(page.records)
        return records

    @property
    def num_ballots(self) -> int:
        return self._backend.num_ballots

    # Audit --------------------------------------------------------------------

    @property
    def registration_log(self) -> AppendOnlyLog:
        return self._backend.registration_log

    @property
    def envelope_log(self) -> AppendOnlyLog:
        return self._backend.envelope_log

    @property
    def ballot_log(self) -> AppendOnlyLog:
        return self._backend.ballot_log

    def audit_chains(self) -> "AuditReport":
        """Audit every hash chain; returns an :class:`~repro.audit.api.AuditReport`.

        One ``ledger-chain`` check per sub-ledger, each named so a broken
        chain reports its locus (e.g. ``ledger.ballot-chain``) instead of a
        bare ``False``.
        """
        from repro.audit.api import AuditPlan, EagerVerifier
        from repro.audit.checks import chain_checks

        return EagerVerifier().run(AuditPlan(chain_checks(self)))

    def verify_all_chains(self) -> bool:
        """Verify the hash chains of all sub-ledgers (bool shim over the audit API)."""
        return self.audit_chains().ok


def as_board_view(board: Union["BoardView", LedgerBackend, object]) -> BoardView:
    """Normalize a board-ish object (view, backend or facade) to a :class:`BoardView`."""
    if isinstance(board, BoardView):
        return board
    if isinstance(board, LedgerBackend):
        return BoardView(board)
    backend = getattr(board, "backend", None)
    if isinstance(backend, LedgerBackend):
        return BoardView(backend)
    raise LedgerError(f"cannot derive a BoardView from {type(board).__name__}")


def board_from_spec(spec: str, group: Optional[Any] = None) -> "MemoryBackend":
    """Build a ledger backend from a ``board_spec`` (forms: :data:`repro.spec.BOARD`).

    ``batched[:N][:inner]`` builds the inner store with ``batch_size=N``
    (default :data:`DEFAULT_BATCH_SIZE`); a batched inner spec is refused.
    ``group`` is the election group, required by the SQLite backend to
    decode persisted records when reopening an existing database.
    """
    from repro.ledger.backends.memory import MemoryBackend
    from repro.ledger.backends.sqlite import SQLiteBackend

    head, given = BOARD.parse(spec)
    batch_size = 1
    if head == "batched":
        batch_size = given.get("batch_size", DEFAULT_BATCH_SIZE)
        head, given = BOARD.parse(given.get("inner", "memory"))
        if head == "batched":
            raise LedgerError(f"board_spec: a batched board cannot wrap another in {spec!r}")
    if head == "sqlite":
        return SQLiteBackend(group=group, batch_size=batch_size, **given)
    return MemoryBackend(batch_size)
