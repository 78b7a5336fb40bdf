"""What one more registration costs an election that has already registered many.

A registrar site serves voters for as long as the election runs (a gateway
tenant keeps its session), so nothing a registration leaves behind may scale
with the voters before it: neither the work of the next registration nor the
memory it keeps once its outcome is dropped.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.election import ElectionConfig, VotegralElection
from repro.ledger.records import RegistrationRecord


def _election(num_voters: int) -> VotegralElection:
    election = VotegralElection(ElectionConfig(num_voters=num_voters, num_mixers=1, proof_rounds=1))
    election.run_setup()
    return election


def test_a_registration_hashes_the_same_records_however_many_came_before(monkeypatch):
    """Each registration hashes its own record once; no earlier voter's device re-hashes its own."""
    calls = []
    payload = RegistrationRecord.payload
    monkeypatch.setattr(RegistrationRecord, "payload", lambda self: calls.append(self.voter_id) or payload(self))
    with _election(40) as election:
        per_registration = []
        for voter_id in election.config.voter_ids():
            calls.clear()
            election.register_voter(voter_id)
            per_registration.append(len(calls))
    assert per_registration == [per_registration[0]] * 40


def test_retained_memory_per_registration_is_what_the_ledger_keeps():
    """50 registrations warm the site; the next 200 (outcomes dropped) keep under 4 KB a voter —
    the ledger's entries and records, not bookkeeping about how long each step took."""
    warm, measured = 50, 200
    with _election(warm + measured) as election:
        voter_ids = election.config.voter_ids()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            for voter_id in voter_ids[:warm]:
                election.register_voter(voter_id)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for voter_id in voter_ids[warm:]:
                election.register_voter(voter_id)
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
    assert growth / measured < 4096, f"{growth / measured:.0f} bytes retained per registration"
