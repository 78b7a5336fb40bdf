#!/usr/bin/env python3
"""Coercion scenario: an abusive coercer demands Alice's credentials and vote.

This example plays out §4/§5.2 of the paper concretely:

* before registration, the coercer demands that Alice create one fake
  credential and hand over "all" her credentials afterwards;
* Alice quietly creates one *extra* fake credential, hands the coercer only
  fakes, and keeps her real credential hidden;
* under the coercer's supervision she casts the demanded vote with a fake
  credential; later, in private, she casts her true vote with the real one;
* the tally counts only the real vote, and everything the coercer can see —
  the surrendered credentials, the ledger aggregates and the final counts —
  is consistent with both "she complied" and "she evaded", so the coercer
  cannot tell.

Run with:  python examples/coerced_voter.py
"""

from repro.crypto.modp_group import testing_group
from repro.registration.protocol import run_registration
from repro.registration.setup import ElectionSetup
from repro.registration.voter import Voter
from repro.security.adversary import Coercer, CoercionDemand
from repro.tally.pipeline import TallyPipeline
from repro.voting.client import VotingClient

NUM_OPTIONS = 2
COERCER_CHOICE = 0
ALICE_TRUE_CHOICE = 1


def main() -> None:
    group = testing_group()
    setup = ElectionSetup.run(group, ["alice", "bob", "carol", "dave"], num_authority_members=4)

    # The coercer's demand arrives before registration.
    coercer = Coercer(CoercionDemand(demanded_fake_credentials=1, demanded_vote=COERCER_CHOICE))
    demanded_total = coercer.demand.demanded_total_credentials
    print(f"coercer demands {demanded_total} credentials and a vote for option {COERCER_CHOICE}")

    # Alice creates one more fake than demanded so she can keep the real one.
    alice = Voter("alice", num_fake_credentials=demanded_total)
    outcome = run_registration(setup, alice)
    surrendered = coercer.collect_credentials(alice)
    print(f"alice hands over {len(surrendered)} credentials — every one is fake, "
          f"but each claims to be real and verifies on paper")

    # Build Alice's voting client from her activated credentials.
    alice_client = VotingClient(group=group, board=setup.board,
                                authority_public_key=setup.authority_public_key)
    for report in outcome.activation_reports:
        alice_client.add_credential(report.credential)

    # Supervised decoy vote, then the secret real vote.
    coercer.supervise_vote(alice_client, NUM_OPTIONS)
    alice_client.cast_real(ALICE_TRUE_CHOICE, NUM_OPTIONS)

    # Other honest voters provide statistical cover.
    for voter_id, choice in (("bob", 0), ("carol", 1), ("dave", 1)):
        other = run_registration(setup, Voter(voter_id, num_fake_credentials=1))
        client = VotingClient(group=group, board=setup.board,
                              authority_public_key=setup.authority_public_key)
        for report in other.activation_reports:
            client.add_credential(report.credential)
        client.cast_real(choice, NUM_OPTIONS)

    result = TallyPipeline(group, setup.authority, num_mixers=2, proof_rounds=4).run(
        setup.board, num_options=NUM_OPTIONS
    )

    print(f"tally: {result.counts} — alice's true vote for option {ALICE_TRUE_CHOICE} counted, "
          f"{result.num_discarded} fake ballot(s) discarded")
    print(f"coercer's ledger view (aggregates only): {coercer.ledger_view(setup.board)}")
    print("nothing in that view distinguishes compliance from evasion — coercion resistance holds")


if __name__ == "__main__":
    main()
