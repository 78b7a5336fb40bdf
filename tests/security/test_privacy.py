"""Privacy adversary (Appendix F.2) and multi-registrar deployments.

The privacy adversary can compromise all but one election-authority member
and read the whole ledger, but cannot touch the voter's device.  Its goal is
to learn a voter's real vote.  These tests exercise the three places a ballot
is electronically visible — the device, the ballot ledger and the final tally
— and check that partial-authority compromise reveals nothing, plus the
multi-kiosk / multi-official deployment shape the threat model assumes.
"""

import pytest

from repro.crypto.elgamal import ElGamal, ElGamalCiphertext
from repro.registration.kiosk import Kiosk
from repro.registration.official import RegistrationOfficial
from repro.registration.protocol import RegistrationSession, run_registration
from repro.registration.setup import ElectionSetup
from repro.registration.voter import Voter
from repro.tally.pipeline import TallyPipeline
from repro.voting.client import VotingClient
from repro.ledger.records import BallotRecord, RegistrationRecord


def _client(setup, outcome) -> VotingClient:
    client = VotingClient(
        group=setup.group, board=setup.board, authority_public_key=setup.authority_public_key
    )
    for report in outcome.activation_reports:
        client.add_credential(report.credential)
    return client


class TestPrivacyAdversary:
    def test_ballot_on_ledger_is_not_decryptable_by_partial_authority(self, small_setup):
        """All-but-one authority members together cannot decrypt a posted ballot."""
        group = small_setup.group
        outcome = run_registration(small_setup, Voter("alice", num_fake_credentials=0))
        _client(small_setup, outcome).cast_real(1, 2)

        record = small_setup.board.read(BallotRecord).records[0]
        ciphertext = ElGamalCiphertext(record.ciphertext_c1, record.ciphertext_c2)
        elgamal = ElGamal(group)
        compromised = small_setup.authority.members[:-1]
        partial_secret = sum(member.secret for member in compromised) % group.order
        plaintext_guess = elgamal.decrypt(partial_secret, ciphertext)
        assert plaintext_guess != group.encode_int(1)
        assert plaintext_guess != group.encode_int(0)

    def test_registration_tag_is_not_decryptable_by_partial_authority(self, small_setup):
        """The public credential tag (ledger) hides the real credential key."""
        group = small_setup.group
        outcome = run_registration(small_setup, Voter("alice", num_fake_credentials=1))
        record = small_setup.board.get(RegistrationRecord, "alice")
        tag = ElGamalCiphertext(record.public_credential_c1, record.public_credential_c2)
        real_key = outcome.vsd.real_credentials()[0].public_key
        elgamal = ElGamal(group)
        partial_secret = sum(m.secret for m in small_setup.authority.members[:-1]) % group.order
        assert elgamal.decrypt(partial_secret, tag) != real_key

    def test_coercer_cannot_confirm_a_credential_by_reencrypting(self, small_setup):
        """§5.2: encrypting a surrendered credential's key under A_pk does not
        reproduce the tag on the ledger (encryption is randomized)."""
        group = small_setup.group
        outcome = run_registration(small_setup, Voter("alice", num_fake_credentials=1))
        record = small_setup.board.get(RegistrationRecord, "alice")
        tag = ElGamalCiphertext(record.public_credential_c1, record.public_credential_c2)
        surrendered = outcome.voter.surrender_credentials_to_coercer()[0]
        fake_key = group.power(surrendered.receipt.response_code.credential_secret)
        elgamal = ElGamal(group)
        recomputed = elgamal.encrypt(small_setup.authority_public_key, fake_key)
        assert recomputed != tag

    def test_mixed_tally_unlinks_ballots_from_submission_order(self, small_setup):
        """After the mix cascade the counted ciphertexts differ from every
        ledger ciphertext, so position-based linking fails."""
        votes = {"alice": 1, "bob": 0, "carol": 1}
        session = RegistrationSession(setup=small_setup)
        for voter_id, choice in votes.items():
            outcome = session.register(Voter(voter_id, num_fake_credentials=0))
            _client(small_setup, outcome).cast_real(choice, 2)
        pipeline = TallyPipeline(small_setup.group, small_setup.authority, num_mixers=2, proof_rounds=2)
        result = pipeline.run(small_setup.board, num_options=2)
        ledger_ciphertexts = {
            (record.ciphertext_c1, record.ciphertext_c2) for record in small_setup.board.read(BallotRecord).records
        }
        for counted in result.filter_result.counted:
            assert (counted.c1, counted.c2) not in ledger_ciphertexts


class TestMultiRegistrarDeployment:
    def test_multiple_kiosks_and_officials(self, group):
        """Voters registered at different kiosks/officials all tally correctly."""
        setup = ElectionSetup.run(
            group,
            ["v1", "v2", "v3", "v4"],
            num_authority_members=3,
            num_officials=2,
            num_kiosks=2,
        )
        clients = {}
        for index, voter_id in enumerate(["v1", "v2", "v3", "v4"]):
            kiosk = Kiosk(
                group=group,
                keypair=setup.registrar.kiosk_keys[index % 2],
                authority_public_key=setup.authority_public_key,
                shared_mac_key=setup.registrar.shared_mac_key,
            )
            official = RegistrationOfficial(
                group=group,
                keypair=setup.registrar.official_keys[index % 2],
                shared_mac_key=setup.registrar.shared_mac_key,
                board=setup.board,
                kiosk_public_keys=setup.registrar.kiosk_public_keys,
            )
            session = RegistrationSession(setup=setup, kiosk=kiosk, official=official)
            outcome = session.register(Voter(voter_id, num_fake_credentials=0))
            clients[voter_id] = _client(setup, outcome)
        for voter_id, choice in zip(clients, (0, 1, 1, 1)):
            clients[voter_id].cast_real(choice, 2)
        result = TallyPipeline(group, setup.authority, num_mixers=2, proof_rounds=2).run(
            setup.board, num_options=2
        )
        assert result.counts == {0: 1, 1: 3}

    def test_credential_from_one_kiosk_rejected_by_official_with_other_roster(self, group):
        """A check-out ticket signed by a kiosk outside the registrar's
        authorized set is rejected (credential-signing defence, §4.5)."""
        setup = ElectionSetup.run(group, ["v1"], num_authority_members=2, num_kiosks=1)
        foreign = ElectionSetup.run(group, ["v1"], num_authority_members=2, num_kiosks=1)
        foreign_kiosk = Kiosk(
            group=group,
            keypair=foreign.registrar.kiosk_keys[0],
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
        session = foreign_kiosk.authorize(official.check_in("v1"))
        foreign_kiosk.begin_real_credential(session)
        envelope = Voter.pick_envelope(setup.envelope_supply, symbol=session.pending_symbol)
        foreign_kiosk.complete_real_credential(session, envelope)
        from repro.errors import RegistrationError

        with pytest.raises(RegistrationError):
            official.check_out_ticket(session.check_out_ticket)
