#!/usr/bin/env python3
"""Integrity-adversary audit: a compromised kiosk tries to steal real votes.

Demonstrates the attack and the defence analysed in §5.1 and measured in §7.5:

* a **wrong-order kiosk** issues a "real" credential via the fake-credential
  procedure (envelope first, simulated proof), keeping for itself the key
  that will actually be counted;
* the forged credential passes every device-side activation check — the only
  defence is the voter noticing the wrong step order in the booth;
* with the user-study detection rates (47 % with security education, 10 %
  without), a kiosk that attacks every voter is caught quickly: the example
  prints the survival probability curve and the expected number of attacks
  before the first report.

Run with:  python examples/malicious_kiosk_audit.py
"""

from repro.crypto.modp_group import testing_group
from repro.registration.setup import ElectionSetup
from repro.registration.voter import Voter
from repro.registration.official import RegistrationOfficial
from repro.registration.vsd import VoterSupportingDevice
from repro.security.analysis import EDUCATED_VOTERS, UNEDUCATED_VOTERS
from repro.security.malicious_kiosk import WrongOrderKiosk


def main() -> None:
    group = testing_group()
    setup = ElectionSetup.run(group, ["alice"], num_authority_members=4)

    kiosk = WrongOrderKiosk(
        group=group,
        keypair=setup.registrar.kiosk_keys[0],
        authority_public_key=setup.authority_public_key,
        shared_mac_key=setup.registrar.shared_mac_key,
    )
    official = RegistrationOfficial(
        group=group,
        keypair=setup.registrar.official_keys[0],
        shared_mac_key=setup.registrar.shared_mac_key,
        board=setup.board,
        kiosk_public_keys=setup.registrar.kiosk_public_keys,
    )

    # The attack: envelope demanded before the commit is printed.
    alice = Voter("alice", num_fake_credentials=0)
    session = kiosk.authorize(official.check_in("alice"))
    envelope = setup.envelope_supply[0]
    receipt = kiosk.issue_claimed_real_credential(session, envelope)
    credential = alice.assemble_credential(receipt, envelope, is_real=True, observed_sound_order=False)
    official.check_out_ticket(session.check_out_ticket)

    print("attack executed: kiosk demanded the envelope before printing the commit")
    print(f"  voter-observable order was sound? {session.real_sigma.is_sound_order}")
    print(f"  adversary keeps a credential whose votes will count: "
          f"{setup.authority.decrypt(receipt.commit_code.public_credential) == kiosk.stolen_keypairs[0].public}")

    # Device-side checks cannot catch it — the transcript verifies.
    vsd = VoterSupportingDevice(
        group=group,
        board=setup.board,
        voter_id="alice",
        kiosk_public_keys=setup.registrar.kiosk_public_keys,
        authority_public_key=setup.authority_public_key,
    )
    report = vsd.activate(credential)
    print(f"  activation checks pass anyway: {report.success} "
          "(the printed transcript is indistinguishable from a sound one)")

    # The defence is procedural: trained voters notice the wrong order.
    print("\nhow long does such a kiosk survive? (per-voter detection rates from the user study)")
    for scenario in (EDUCATED_VOTERS, UNEDUCATED_VOTERS):
        expected_attacks = 1.0 / scenario.per_voter_detection_rate
        print(f"  {scenario.label:32s} expected attacks before first report ≈ {expected_attacks:5.1f}")
        for voters in (10, 50, 1000):
            probability = scenario.survival_probability(voters)
            print(f"      P[undetected after {voters:4d} voters] = {probability:.3e}")


if __name__ == "__main__":
    main()
