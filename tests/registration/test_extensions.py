"""Optional extensions: credential rotation, in-booth delegation, renewal."""

import pytest

from repro.audit.checks import audit_tally
from repro.crypto.schnorr import SigningKeyPair, schnorr_keygen
from repro.errors import ProtocolError, VerificationError
from repro.registration.extensions import (
    DelegationReceipt,
    RotationRecord,
    RotationRegistry,
    audit_rotation,
    delegate_in_booth,
    renew_credential,
    rotate_credential,
)
from repro.registration.kiosk import Kiosk
from repro.registration.official import RegistrationOfficial
from repro.registration.protocol import RegistrationSession, run_registration
from repro.registration.voter import Voter
from repro.tally.pipeline import TallyPipeline
from repro.voting.ballot import make_ballot
from repro.voting.client import VotingClient
from repro.ledger.records import RegistrationRecord


def _client(setup, outcome) -> VotingClient:
    client = VotingClient(
        group=setup.group, board=setup.board, authority_public_key=setup.authority_public_key
    )
    for report in outcome.activation_reports:
        client.add_credential(report.credential)
    return client


class TestCredentialRotation:
    def test_rotation_record_verifies(self, small_setup):
        outcome = run_registration(small_setup, Voter("alice", num_fake_credentials=0))
        credential = outcome.vsd.real_credentials()[0]
        new_keypair, record = rotate_credential(small_setup.group, credential)
        assert audit_rotation(record).ok
        assert record.new_public_key == new_keypair.public
        assert record.old_public_key == credential.public_key

    def test_forged_rotation_rejected(self, small_setup):
        outcome = run_registration(small_setup, Voter("alice", num_fake_credentials=0))
        credential = outcome.vsd.real_credentials()[0]
        _, record = rotate_credential(small_setup.group, credential)
        rogue = schnorr_keygen(small_setup.group)
        forged = RotationRecord(record.old_public_key, rogue.public, record.signature)
        assert not audit_rotation(forged).ok
        registry = RotationRegistry()
        with pytest.raises(VerificationError):
            registry.publish(forged)

    def test_registry_resolves_chains(self, small_setup):
        outcome = run_registration(small_setup, Voter("alice", num_fake_credentials=0))
        credential = outcome.vsd.real_credentials()[0]
        registry = RotationRegistry()
        first_keypair, first_record = rotate_credential(small_setup.group, credential)
        registry.publish(first_record)
        # Port to a second device: rotate again from the device key.
        from repro.registration.materials import ActivatedCredential

        ported = ActivatedCredential(
            voter_id=credential.voter_id,
            secret_key=first_keypair.secret,
            public_key=first_keypair.public,
            public_credential=credential.public_credential,
            transcript=credential.transcript,
            kiosk_public_key=credential.kiosk_public_key,
            is_real=True,
        )
        second_keypair, second_record = rotate_credential(small_setup.group, ported)
        registry.publish(second_record)
        assert registry.resolve(second_keypair.public) == credential.public_key
        assert registry.is_retired(credential.public_key)
        assert registry.is_retired(first_keypair.public)
        assert not registry.is_retired(second_keypair.public)

    def test_rotated_credential_votes_and_old_key_is_dead(self, small_setup):
        """After rotation, only the device key's ballot counts (Appendix C.2)."""
        outcome = run_registration(small_setup, Voter("alice", num_fake_credentials=0))
        credential = outcome.vsd.real_credentials()[0]
        registry = RotationRegistry()
        device_keypair, record = rotate_credential(small_setup.group, credential)
        registry.publish(record)

        group = small_setup.group
        # A thief who copied the receipt votes with the kiosk-issued key...
        stolen = make_ballot(
            group,
            small_setup.authority_public_key,
            SigningKeyPair(secret=credential.secret_key, public=credential.public_key),
            0,
            2,
        )
        small_setup.board.append(stolen.to_record())
        # ... while the voter votes with the rotated device key.
        honest = make_ballot(group, small_setup.authority_public_key, device_keypair, 1, 2)
        small_setup.board.append(honest.to_record())

        pipeline = TallyPipeline(group, small_setup.authority, num_mixers=2, proof_rounds=2)
        result = pipeline.run(small_setup.board, num_options=2, rotations=registry)
        assert result.counts == {0: 0, 1: 1}
        assert audit_tally(group, small_setup.authority, small_setup.board, result, rotations=registry).ok

    def test_fake_credentials_rotate_identically(self, small_setup):
        """Rotation must not leak realness: fake credentials rotate the same way."""
        outcome = run_registration(small_setup, Voter("alice", num_fake_credentials=1))
        fake = [c for c in outcome.vsd.credentials if not c.is_real][0]
        _, record = rotate_credential(small_setup.group, fake)
        assert audit_rotation(record).ok

    def test_double_registration_of_device_key_rejected(self, small_setup):
        outcome = run_registration(small_setup, Voter("alice", num_fake_credentials=0))
        credential = outcome.vsd.real_credentials()[0]
        registry = RotationRegistry()
        _, record = rotate_credential(small_setup.group, credential)
        registry.publish(record)
        with pytest.raises(ProtocolError):
            registry.publish(record)


class TestDelegation:
    def _kiosk_and_official(self, setup):
        kiosk = Kiosk(
            group=setup.group,
            keypair=setup.registrar.kiosk_keys[0],
            authority_public_key=setup.authority_public_key,
            shared_mac_key=setup.registrar.shared_mac_key,
        )
        official = RegistrationOfficial(
            group=setup.group,
            keypair=setup.registrar.official_keys[0],
            shared_mac_key=setup.registrar.shared_mac_key,
            board=setup.board,
            kiosk_public_keys=setup.registrar.kiosk_public_keys,
        )
        return kiosk, official

    def test_delegated_vote_counts_for_the_party(self, small_setup):
        """Appendix C.3: the voter leaves with only fakes; the party's ballot
        is counted once on the voter's behalf."""
        group = small_setup.group
        party = schnorr_keygen(group)
        kiosk, official = self._kiosk_and_official(small_setup)

        session = kiosk.authorize(official.check_in("alice"))
        receipt = delegate_in_booth(kiosk, session, party.public, delegate_label="Party A")
        assert isinstance(receipt, DelegationReceipt)
        # The voter can still create fake credentials to satisfy a coercer.
        fake = kiosk.create_fake_credential(session, small_setup.envelope_supply[0])
        assert fake.check_out_ticket == receipt.check_out_ticket
        official.check_out_ticket(receipt.check_out_ticket)

        # The party casts its ballot; the voter's tag matches it.
        party_ballot = make_ballot(group, small_setup.authority_public_key, party, 1, 2)
        small_setup.board.append(party_ballot.to_record())

        pipeline = TallyPipeline(group, small_setup.authority, num_mixers=2, proof_rounds=2)
        result = pipeline.run(small_setup.board, num_options=2)
        assert result.counts == {0: 0, 1: 1}

    def test_fake_ballots_of_delegating_voter_do_not_count(self, small_setup):
        group = small_setup.group
        party = schnorr_keygen(group)
        kiosk, official = self._kiosk_and_official(small_setup)
        session = kiosk.authorize(official.check_in("alice"))
        receipt = delegate_in_booth(kiosk, session, party.public)
        fake_receipt = kiosk.create_fake_credential(session, small_setup.envelope_supply[0])
        official.check_out_ticket(receipt.check_out_ticket)

        fake_keypair = SigningKeyPair(
            secret=fake_receipt.response_code.credential_secret,
            public=group.power(fake_receipt.response_code.credential_secret),
        )
        coerced = make_ballot(group, small_setup.authority_public_key, fake_keypair, 0, 2)
        small_setup.board.append(coerced.to_record())

        pipeline = TallyPipeline(group, small_setup.authority, num_mixers=2, proof_rounds=2)
        result = pipeline.run(small_setup.board, num_options=2)
        assert result.counts == {0: 0, 1: 0}
        assert result.num_discarded == 1

    def test_delegation_after_real_credential_rejected(self, small_setup):
        group = small_setup.group
        party = schnorr_keygen(group)
        kiosk, official = self._kiosk_and_official(small_setup)
        session = kiosk.authorize(official.check_in("alice"))
        kiosk.begin_real_credential(session)
        envelope = Voter.pick_envelope(small_setup.envelope_supply, symbol=session.pending_symbol)
        kiosk.complete_real_credential(session, envelope)
        with pytest.raises(ProtocolError):
            delegate_in_booth(kiosk, session, party.public)


class TestRenewal:
    def test_renewal_supersedes_and_old_votes_stop_counting(self, small_setup):
        session = RegistrationSession(setup=small_setup)
        first = session.register(Voter("alice", num_fake_credentials=0))
        old_client = _client(small_setup, first)

        renewed = renew_credential(session, "alice", num_fake_credentials=0)
        new_client = _client(small_setup, renewed)

        old_client.cast_real(0, 2)
        new_client.cast_real(1, 2)

        pipeline = TallyPipeline(small_setup.group, small_setup.authority, num_mixers=2, proof_rounds=2)
        result = pipeline.run(small_setup.board, num_options=2)
        assert result.counts == {0: 0, 1: 1}
        assert len(small_setup.board.current(RegistrationRecord)) == 1
        assert len(small_setup.board.history(RegistrationRecord, "alice")) == 2
