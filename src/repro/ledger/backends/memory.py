"""The thread-safe in-memory ledger backend.

This is the refactored descendant of the original concrete ``BulletinBoard``
store: the same three hash-chained logs and typed record collections, now

* behind the :class:`~repro.ledger.api.LedgerBackend` contract,
* guarded by a re-entrant lock so casting clients can append concurrently
  (appends are totally ordered by lock acquisition; the hash chains commit
  to that order), and
* indexed — ballots by ``election_id`` and registrations by voter — so the
  cursor reads and `registration_history()` the tally/verify paths hammer
  stop rescanning full lists.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Set

from repro import telemetry
from repro.crypto.hashing import sha256
from repro.errors import LedgerError
from repro.ledger.api import (
    BallotPage,
    Cursor,
    GENESIS_CURSOR,
    LedgerBackend,
    verify_chained_logs,
)
from repro.ledger.log import AppendOnlyLog
from repro.ledger.records import (
    BallotRecord,
    EnvelopeCommitmentRecord,
    EnvelopeUsageRecord,
    RegistrationRecord,
)


class MemoryBackend(LedgerBackend):
    """The ledger ``L`` with its three sub-ledgers, held in process memory."""

    #: Telemetry label; subclasses (sqlite) override so the shared read/append
    #: instrumentation below attributes latency to the right backend.
    backend_name = "memory"

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._registration_log = AppendOnlyLog("L_R")
        self._envelope_log = AppendOnlyLog("L_E")
        self._ballot_log = AppendOnlyLog("L_V")

        self._eligible: List[str] = []
        self._eligible_set: Set[str] = set()

        self._registrations: List[RegistrationRecord] = []
        self._registrations_by_voter: Dict[str, List[RegistrationRecord]] = {}
        self._active_registration: Dict[str, RegistrationRecord] = {}

        self._envelope_commitments: Dict[bytes, EnvelopeCommitmentRecord] = {}
        self._used_challenges: Dict[bytes, EnvelopeUsageRecord] = {}

        self._ballots: List[BallotRecord] = []
        # Per-election parallel lists of (ascending seq, record), so filtered
        # cursor reads bisect instead of scanning the full ballot list.
        self._ballots_by_election: Dict[str, List[BallotRecord]] = {}
        self._ballot_seqs_by_election: Dict[str, List[int]] = {}

    # ------------------------------------------------------------- electoral roll

    def publish_electoral_roll(self, voter_ids: Sequence[str]) -> None:
        with self._lock:
            # Validate the whole batch before mutating anything, so a
            # duplicate cannot leave a half-applied roll (or, in persistent
            # subclasses, a memory/database divergence).
            seen = set(self._eligible_set)
            for voter_id in voter_ids:
                if voter_id in seen:
                    raise LedgerError(f"duplicate voter identifier on the roll: {voter_id}")
                seen.add(voter_id)
            for voter_id in voter_ids:
                self._eligible.append(voter_id)
                self._eligible_set.add(voter_id)
                self._registration_log.append(sha256(b"eligible-voter", voter_id.encode()))

    def eligible_voters(self) -> List[str]:
        with self._lock:
            return list(self._eligible)

    def is_eligible(self, voter_id: str) -> bool:
        with self._lock:
            return voter_id in self._eligible_set

    # ------------------------------------------------------------- append commands

    def append_registration(self, record: RegistrationRecord) -> int:
        with self._lock:
            if record.voter_id not in self._eligible_set:
                raise LedgerError(f"voter {record.voter_id} is not on the electoral roll")
            seq = len(self._registrations)
            self._registrations.append(record)
            self._registrations_by_voter.setdefault(record.voter_id, []).append(record)
            self._active_registration[record.voter_id] = record
            # Last: the log's observers (a voter's device watching for
            # registrations in its name) look the record up by voter.
            self._registration_log.append(record.payload())
            return seq

    def append_envelope_commitment(self, record: EnvelopeCommitmentRecord) -> int:
        with self._lock:
            seq = len(self._envelope_commitments)
            self._envelope_log.append(record.payload())
            self._envelope_commitments[record.challenge_hash] = record
            return seq

    def append_envelope_usage(self, record: EnvelopeUsageRecord) -> int:
        with self._lock:
            if record.challenge_hash in self._used_challenges:
                raise LedgerError("envelope challenge already used: possible duplicate envelopes")
            seq = len(self._used_challenges)
            self._envelope_log.append(record.payload())
            self._used_challenges[record.challenge_hash] = record
            return seq

    def _index_ballot(self, seq: int, record: BallotRecord) -> None:
        self._ballots.append(record)
        self._ballots_by_election.setdefault(record.election_id, []).append(record)
        self._ballot_seqs_by_election.setdefault(record.election_id, []).append(seq)

    def append_ballot(self, record: BallotRecord) -> int:
        with self._lock:
            seq = len(self._ballots)
            self._ballot_log.append(record.payload())
            self._index_ballot(seq, record)
        # Counter only (no span object) on the single-append hot path: this
        # is the casting client's per-ballot ingestion latency.
        telemetry.counter("ledger.append.ballots", backend=self.backend_name)
        return seq

    def append_ballots(
        self, records: Sequence[BallotRecord], payloads: Optional[Sequence[bytes]] = None
    ) -> List[int]:
        """Bulk append under one lock acquisition and one chain walk."""
        if not records:
            return []
        if payloads is None:
            payloads = [record.payload() for record in records]
        with telemetry.span("ledger.append", backend=self.backend_name, items=len(records)):
            with self._lock:
                first = len(self._ballots)
                self._ballot_log.append_many(payloads)
                for offset, record in enumerate(records):
                    self._index_ballot(first + offset, record)
                seqs = list(range(first, first + len(records)))
        telemetry.counter("ledger.append.ballots", len(records), backend=self.backend_name)
        return seqs

    # ------------------------------------------------------------- registration reads

    def registration_for(self, voter_id: str) -> Optional[RegistrationRecord]:
        with self._lock:
            return self._active_registration.get(voter_id)

    def registration_history(self, voter_id: str) -> List[RegistrationRecord]:
        with self._lock:
            return list(self._registrations_by_voter.get(voter_id, []))

    def registration_records(self) -> List[RegistrationRecord]:
        with self._lock:
            return list(self._registrations)

    def active_registrations(self) -> List[RegistrationRecord]:
        with self._lock:
            return list(self._active_registration.values())

    @property
    def num_registered(self) -> int:
        with self._lock:
            return len(self._active_registration)

    # ------------------------------------------------------------- envelope reads

    def envelope_commitment(self, challenge_hash: bytes) -> Optional[EnvelopeCommitmentRecord]:
        with self._lock:
            return self._envelope_commitments.get(challenge_hash)

    def envelope_commitments(self) -> Dict[bytes, EnvelopeCommitmentRecord]:
        with self._lock:
            return dict(self._envelope_commitments)

    def is_challenge_used(self, challenge_hash: bytes) -> bool:
        with self._lock:
            return challenge_hash in self._used_challenges

    def used_challenges(self) -> Dict[bytes, EnvelopeUsageRecord]:
        with self._lock:
            return dict(self._used_challenges)

    @property
    def num_envelope_commitments(self) -> int:
        with self._lock:
            return len(self._envelope_commitments)

    @property
    def num_challenges_used(self) -> int:
        with self._lock:
            return len(self._used_challenges)

    # ------------------------------------------------------------- ballot reads

    def read_ballots(
        self,
        since: Cursor = GENESIS_CURSOR,
        limit: Optional[int] = None,
        election_id: Optional[str] = None,
    ) -> BallotPage:
        if since < 0:
            raise LedgerError(f"ballot cursor must be non-negative, got {since}")
        with telemetry.span("ledger.read", backend=self.backend_name, since=since), self._lock:
            total = len(self._ballots)
            start = min(since, total)
            if election_id is None:
                end = total if limit is None else min(start + max(0, limit), total)
                records = self._ballots[start:end]
                return BallotPage(records=records, next_cursor=end, has_more=end < total)
            indexed = self._ballots_by_election.get(election_id, [])
            seqs = self._ballot_seqs_by_election.get(election_id, [])
            # First index entry with seq >= since (seqs are ascending).
            position = bisect_left(seqs, start)
            stop = len(indexed) if limit is None else min(position + max(0, limit), len(indexed))
            has_more = stop < len(indexed)
            # Advance past everything scanned: the last matched record if
            # another page remains, the end of the whole stream once the
            # filter is exhausted — and no progress at all when nothing was
            # read but matches remain (limit=0), so no ballot is ever skipped.
            if stop > position:
                next_cursor = (seqs[stop - 1] + 1) if has_more else total
            else:
                next_cursor = start if has_more else total
            return BallotPage(
                records=indexed[position:stop],
                next_cursor=next_cursor,
                has_more=has_more,
            )

    @property
    def num_ballots(self) -> int:
        with self._lock:
            return len(self._ballots)

    # ------------------------------------------------------------- logs + audit

    @property
    def registration_log(self) -> AppendOnlyLog:
        return self._registration_log

    @property
    def envelope_log(self) -> AppendOnlyLog:
        return self._envelope_log

    @property
    def ballot_log(self) -> AppendOnlyLog:
        return self._ballot_log

    def verify_all_chains(self) -> bool:
        # The shared chain walk, under this backend's append lock.
        with self._lock:
            return verify_chained_logs(self)
