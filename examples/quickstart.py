#!/usr/bin/env python3
"""Quickstart: one voter goes through TRIP and votes in a Votegral election.

Walks through the paper's workflow at the smallest possible scale:

1. election setup (authority DKG, registrar keys, envelope printing, ledger);
2. in-person registration — check-in, real credential (sound Σ-protocol
   order), one fake credential (simulator order), check-out;
3. activation of both credentials on the voter's device;
4. casting a real vote (and a decoy with the fake credential);
5. verifiable tally: only the real vote is counted.

Run with:  python examples/quickstart.py
"""

from repro.audit.checks import audit_tally
from repro.crypto.modp_group import testing_group
from repro.ledger import BallotRecord, RollEntry
from repro.registration import ElectionSetup, Voter, run_registration
from repro.tally.pipeline import TallyPipeline
from repro.voting.client import VotingClient


def main() -> None:
    group = testing_group()

    # --- Setup -------------------------------------------------------------
    setup = ElectionSetup.run(group, voter_ids=["alice", "bob"], num_authority_members=4)
    print(f"setup: {setup.board.count(RollEntry)} eligible voters, "
          f"{len(setup.envelope_supply)} envelopes printed")

    # --- Registration (TRIP) ------------------------------------------------
    alice = Voter("alice", num_fake_credentials=1)
    outcome = run_registration(setup, alice)
    print(f"registration: {len(alice.credentials)} paper credentials, "
          f"real-order observed sound = {alice.real_credential().observed_sound_order}")

    # The second voter keeps the election from being a trivial unanimous tally.
    bob_outcome = run_registration(setup, Voter("bob", num_fake_credentials=1))

    # --- Activation & voting -------------------------------------------------
    def client_for(registration_outcome):
        client = VotingClient(
            group=group,
            board=setup.board,
            authority_public_key=setup.authority_public_key,
        )
        for report in registration_outcome.activation_reports:
            client.add_credential(report.credential)
        return client

    alice_client = client_for(outcome)
    bob_client = client_for(bob_outcome)

    alice_client.cast_fake(0, num_options=2)   # decoy, e.g. under a coercer's eye
    alice_client.cast_real(1, num_options=2)   # the vote that counts
    bob_client.cast_real(0, num_options=2)
    print(f"voting: {setup.board.count(BallotRecord)} ballots on the ledger "
          f"(real and fake are indistinguishable)")

    # --- Tally ---------------------------------------------------------------
    pipeline = TallyPipeline(group, setup.authority, num_mixers=4, proof_rounds=8)
    result = pipeline.run(setup.board, num_options=2)
    report = audit_tally(group, setup.authority, setup.board, result, num_mixers=4, proof_rounds=8)
    print(f"tally: counts = {result.counts}, counted = {result.num_counted}, "
          f"discarded fakes = {result.num_discarded}, "
          f"universally verified = {report.ok} ({report.num_checks} checks)")


if __name__ == "__main__":
    main()
