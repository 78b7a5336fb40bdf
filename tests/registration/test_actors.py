"""Registrar actors: envelope printer, official, kiosk."""

import pytest

from repro.crypto.chaum_pedersen import ChaumPedersenTranscript, chaum_pedersen_verify
from repro.crypto.mac import mac_sign
from repro.crypto.schnorr import schnorr_verify
from repro.errors import ProtocolError, RegistrationError
from repro.registration.kiosk import Kiosk
from repro.registration.materials import CheckInTicket, EnvelopeSymbol
from repro.registration.official import RegistrationOfficial
from repro.registration.voter import Voter


@pytest.fixture()
def kiosk(small_setup):
    return Kiosk(
        group=small_setup.group,
        keypair=small_setup.registrar.kiosk_keys[0],
        authority_public_key=small_setup.authority_public_key,
        shared_mac_key=small_setup.registrar.shared_mac_key,
    )


@pytest.fixture()
def official(small_setup):
    return RegistrationOfficial(
        group=small_setup.group,
        keypair=small_setup.registrar.official_keys[0],
        shared_mac_key=small_setup.registrar.shared_mac_key,
        board=small_setup.board,
        kiosk_public_keys=small_setup.registrar.kiosk_public_keys,
    )


class TestEnvelopePrinter:
    def test_envelopes_have_unique_challenges(self, small_setup):
        challenges = [envelope.challenge for envelope in small_setup.envelope_supply]
        assert len(challenges) == len(set(challenges))

    def test_envelope_signatures_verify(self, small_setup):
        for envelope in small_setup.envelope_supply[:5]:
            assert schnorr_verify(
                envelope.printer_public_key, envelope.challenge_hash, envelope.printer_signature
            )

    def test_commitments_published_on_ledger(self, small_setup):
        envelope = small_setup.envelope_supply[0]
        assert small_setup.board.envelope_commitment(envelope.challenge_hash) is not None

    def test_supply_sized_for_voters_and_booths(self, small_setup):
        # n_E > c·|V| + λ_E·|K| with c=4, λ_E=20, one kiosk, three voters.
        assert len(small_setup.envelope_supply) >= 4 * 3 + 20

    def test_duplicate_envelope_attack_produces_shared_challenge(self, small_setup):
        printer = small_setup.envelope_printers[0]
        duplicates = printer.print_duplicate_envelopes(5)
        assert len({envelope.challenge for envelope in duplicates}) == 1

    def test_restock(self, small_setup):
        before = len(small_setup.envelope_supply)
        small_setup.restock_envelopes(7)
        assert len(small_setup.envelope_supply) == before + 7


class TestOfficialCheckIn:
    def test_check_in_issues_valid_mac(self, small_setup, official):
        ticket = official.check_in("alice")
        assert ticket.voter_id == "alice"
        assert mac_sign(small_setup.registrar.shared_mac_key, b"alice", length=16) == ticket.mac_tag

    def test_ineligible_voter_rejected(self, official):
        with pytest.raises(RegistrationError):
            official.check_in("mallory")

    def test_check_in_is_traced_with_its_printed_ticket(self, official, traced_spans):
        official.check_in("alice")
        phase, printed = traced_spans()[::-1]
        assert (phase["name"], phase["attrs"]) == ("registration.phase", {"phase": "CheckIn"})
        assert printed["name"] == "registration.print" and printed["parent_id"] == phase["span_id"]
        assert printed["attrs"] == {"qr_codes": 0, "qr_version_sum": 0, "barcodes": 1, "text_lines": 1}


class TestKioskAuthorization:
    def test_valid_ticket_authorized(self, kiosk, official):
        ticket = official.check_in("alice")
        session = kiosk.authorize(ticket)
        assert session.voter_id == "alice"

    def test_forged_ticket_rejected(self, kiosk):
        forged = CheckInTicket(voter_id="alice", mac_tag=b"\x00" * 16)
        with pytest.raises(RegistrationError):
            kiosk.authorize(forged)

    def test_ticket_for_other_voter_id_rejected(self, small_setup, kiosk):
        # A tag computed over a different identity must not authorize "alice".
        tag = mac_sign(small_setup.registrar.shared_mac_key, b"bob", length=16)
        with pytest.raises(RegistrationError):
            kiosk.authorize(CheckInTicket(voter_id="alice", mac_tag=tag))


class TestKioskCredentialIssuance:
    def _authorized_session(self, kiosk, official, voter_id="alice"):
        return kiosk.authorize(official.check_in(voter_id))

    def test_real_credential_flow(self, small_setup, kiosk, official):
        session = self._authorized_session(kiosk, official)
        commit_code = kiosk.begin_real_credential(session)
        assert commit_code.voter_id == "alice"
        envelope = Voter.pick_envelope(small_setup.envelope_supply, symbol=session.pending_symbol)
        receipt = kiosk.complete_real_credential(session, envelope)
        assert receipt.check_out_ticket.kiosk_public_key == kiosk.public_key
        assert session.real_sigma.is_sound_order

    def test_real_credential_zkp_is_sound_transcript(self, small_setup, kiosk, official):
        session = self._authorized_session(kiosk, official)
        kiosk.begin_real_credential(session)
        envelope = Voter.pick_envelope(small_setup.envelope_supply, symbol=session.pending_symbol)
        receipt = kiosk.complete_real_credential(session, envelope)
        group = small_setup.group
        credential_public = group.power(receipt.response_code.credential_secret)
        statement = kiosk._statement(receipt.commit_code.public_credential, credential_public)
        transcript = ChaumPedersenTranscript(
            statement=statement,
            commit=receipt.commit_code.commit,
            challenge=envelope.challenge,
            response=receipt.response_code.zkp_response,
        )
        assert chaum_pedersen_verify(transcript)
        # And the tag really encrypts the credential's public key.
        assert small_setup.authority.decrypt(receipt.commit_code.public_credential) == credential_public

    def test_envelope_with_wrong_symbol_rejected(self, small_setup, kiosk, official):
        session = self._authorized_session(kiosk, official)
        kiosk.begin_real_credential(session)
        wrong_symbol = next(s for s in EnvelopeSymbol if s != session.pending_symbol)
        try:
            envelope = Voter.pick_envelope(small_setup.envelope_supply, symbol=wrong_symbol)
        except ProtocolError:
            pytest.skip("no envelope with a mismatching symbol in this supply draw")
        with pytest.raises(RegistrationError):
            kiosk.complete_real_credential(session, envelope)

    def test_envelope_before_commit_rejected(self, small_setup, kiosk, official):
        session = self._authorized_session(kiosk, official)
        envelope = small_setup.envelope_supply[0]
        with pytest.raises(ProtocolError):
            kiosk.complete_real_credential(session, envelope)

    def test_fake_requires_real_first(self, small_setup, kiosk, official):
        session = self._authorized_session(kiosk, official)
        with pytest.raises(ProtocolError):
            kiosk.create_fake_credential(session, small_setup.envelope_supply[0])

    def test_fake_credential_flow_and_unsound_order(self, small_setup, kiosk, official):
        session = self._authorized_session(kiosk, official)
        kiosk.begin_real_credential(session)
        real_envelope = Voter.pick_envelope(small_setup.envelope_supply, symbol=session.pending_symbol)
        kiosk.complete_real_credential(session, real_envelope)
        remaining = [e for e in small_setup.envelope_supply if e.challenge != real_envelope.challenge]
        fake_receipt = kiosk.create_fake_credential(session, remaining[0])
        assert not session.fake_sigmas[0].is_sound_order
        # The fake receipt shares the real credential's public tag and check-out ticket.
        assert fake_receipt.check_out_ticket == session.check_out_ticket
        assert fake_receipt.commit_code.public_credential == session.public_credential
        # But the tag does NOT encrypt the fake credential's key.
        group = small_setup.group
        fake_public = group.power(fake_receipt.response_code.credential_secret)
        assert small_setup.authority.decrypt(fake_receipt.commit_code.public_credential) != fake_public

    def test_fake_transcript_still_verifies(self, small_setup, kiosk, official):
        session = self._authorized_session(kiosk, official)
        kiosk.begin_real_credential(session)
        real_envelope = Voter.pick_envelope(small_setup.envelope_supply, symbol=session.pending_symbol)
        kiosk.complete_real_credential(session, real_envelope)
        remaining = [e for e in small_setup.envelope_supply if e.challenge != real_envelope.challenge]
        fake_receipt = kiosk.create_fake_credential(session, remaining[0])
        group = small_setup.group
        fake_public = group.power(fake_receipt.response_code.credential_secret)
        statement = kiosk._statement(fake_receipt.commit_code.public_credential, fake_public)
        transcript = ChaumPedersenTranscript(
            statement=statement,
            commit=fake_receipt.commit_code.commit,
            challenge=remaining[0].challenge,
            response=fake_receipt.response_code.zkp_response,
        )
        assert chaum_pedersen_verify(transcript)

    def test_envelope_reuse_within_session_rejected(self, small_setup, kiosk, official):
        session = self._authorized_session(kiosk, official)
        kiosk.begin_real_credential(session)
        envelope = Voter.pick_envelope(small_setup.envelope_supply, symbol=session.pending_symbol)
        kiosk.complete_real_credential(session, envelope)
        with pytest.raises(RegistrationError):
            kiosk.create_fake_credential(session, envelope)

    def test_second_real_credential_rejected(self, small_setup, kiosk, official):
        session = self._authorized_session(kiosk, official)
        kiosk.begin_real_credential(session)
        envelope = Voter.pick_envelope(small_setup.envelope_supply, symbol=session.pending_symbol)
        kiosk.complete_real_credential(session, envelope)
        with pytest.raises(ProtocolError):
            kiosk.begin_real_credential(session)


class TestOfficialCheckOut:
    def test_check_out_posts_record(self, small_setup, kiosk, official):
        session = kiosk.authorize(official.check_in("alice"))
        kiosk.begin_real_credential(session)
        envelope = Voter.pick_envelope(small_setup.envelope_supply, symbol=session.pending_symbol)
        kiosk.complete_real_credential(session, envelope)
        record = official.check_out_ticket(session.check_out_ticket)
        assert small_setup.board.registration_for("alice") == record
        assert RegistrationOfficial.audit_record(record, small_setup.registrar.kiosk_public_keys).ok
        assert official.notifications == ["alice"]

    def test_unauthorized_kiosk_rejected(self, small_setup, official, kiosk):
        from repro.crypto.schnorr import schnorr_keygen, schnorr_sign
        from repro.registration.materials import CheckOutTicket, check_out_message
        from repro.crypto.elgamal import ElGamal

        rogue = schnorr_keygen(small_setup.group)
        tag = ElGamal(small_setup.group).encrypt(small_setup.authority_public_key, small_setup.group.power(1))
        forged = CheckOutTicket(
            voter_id="alice",
            public_credential=tag,
            kiosk_public_key=rogue.public,
            kiosk_signature=schnorr_sign(rogue, check_out_message("alice", tag)),
        )
        with pytest.raises(RegistrationError):
            official.check_out_ticket(forged)

    def test_bad_kiosk_signature_rejected(self, small_setup, official, kiosk):
        from repro.crypto.schnorr import schnorr_sign
        from repro.registration.materials import CheckOutTicket
        from repro.crypto.elgamal import ElGamal

        tag = ElGamal(small_setup.group).encrypt(small_setup.authority_public_key, small_setup.group.power(1))
        forged = CheckOutTicket(
            voter_id="alice",
            public_credential=tag,
            kiosk_public_key=kiosk.public_key,
            kiosk_signature=schnorr_sign(small_setup.registrar.kiosk_keys[0], b"wrong message"),
        )
        with pytest.raises(RegistrationError):
            official.check_out_ticket(forged)
