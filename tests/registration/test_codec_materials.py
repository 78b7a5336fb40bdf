"""Serialization codec and the physical registration artefacts."""

import pytest

from repro.crypto.chaum_pedersen import ChaumPedersenCommit
from repro.crypto.elgamal import ElGamal
from repro.crypto.group import ElementEncoding
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign, schnorr_verify
from repro.errors import ProtocolError
from repro.registration.codec import Decoder, Encoder, scalar_bytes
from repro.registration.materials import (
    CheckInTicket,
    CheckOutTicket,
    CommitCode,
    CredentialState,
    Envelope,
    EnvelopeSymbol,
    PaperCredential,
    Receipt,
    ResponseCode,
)


class TestCodec:
    def test_roundtrip_all_field_types(self, group):
        keys = schnorr_keygen(group)
        signature = schnorr_sign(keys, b"m")
        encoded = (
            Encoder()
            .put_str("alice")
            .put_bytes(b"\x01\x02")
            .put_int(12345, group)
            .put_element(keys.public)
            .put_signature(signature, group)
            .bytes()
        )
        decoder = Decoder(encoded)
        assert decoder.get_str() == "alice"
        assert decoder.get_bytes() == b"\x01\x02"
        assert decoder.get_int() == 12345
        assert decoder.get_element(group) == keys.public
        decoded = decoder.get_signature(group)
        # R stays its bytes until a verifier recomputes it.
        assert decoded.to_bytes() == signature.to_bytes()
        assert decoded.commitment == ElementEncoding(group, signature.commitment.to_bytes())
        assert schnorr_verify(keys.public, b"m", decoded)
        assert decoder.exhausted

    def test_truncated_payload_detected(self, group):
        encoded = Encoder().put_str("alice").bytes()
        decoder = Decoder(encoded[:-2])
        with pytest.raises(ProtocolError):
            decoder.get_str()

    def test_scalar_bytes_matches_group_order(self, group):
        assert scalar_bytes(group) == (group.order.bit_length() + 7) // 8

    def test_oversized_field_rejected(self):
        with pytest.raises(ProtocolError):
            Encoder().put_bytes(b"x" * 70000)


@pytest.fixture()
def sample_receipt(group):
    elgamal = ElGamal(group)
    kiosk = schnorr_keygen(group)
    credential = schnorr_keygen(group)
    tag = elgamal.encrypt(group.power(7), credential.public)
    commit = ChaumPedersenCommit(group.power(3), group.power(4))
    commit_code = CommitCode("alice", tag, commit, schnorr_sign(kiosk, b"c"))
    checkout = CheckOutTicket("alice", tag, kiosk.public, schnorr_sign(kiosk, b"t"))
    response = ResponseCode(credential.secret, 99, kiosk.public, schnorr_sign(kiosk, b"r"))
    return Receipt(EnvelopeSymbol.STAR, commit_code, checkout, response)


@pytest.fixture()
def sample_envelope(group):
    printer = schnorr_keygen(group)
    challenge = group.random_scalar()
    return Envelope(
        symbol=EnvelopeSymbol.STAR,
        challenge=challenge,
        printer_public_key=printer.public,
        printer_signature=schnorr_sign(printer, b"h"),
        serial=1,
    )


class TestQrSerialization:
    def test_check_in_ticket_barcode_roundtrip(self):
        ticket = CheckInTicket("alice", b"\xaa" * 16)
        assert CheckInTicket.from_barcode(ticket.to_barcode()) == ticket

    # A decoded code keeps its R (and Y1, Y2) as bytes, so a round trip is
    # judged on what it re-encodes to.

    def test_envelope_qr_roundtrip(self, group, sample_envelope):
        qr = sample_envelope.to_qr(group)
        decoded = Envelope.from_qr(qr, group, serial=1)
        assert decoded.to_qr(group).payload == qr.payload
        assert (decoded.symbol, decoded.challenge, decoded.printer_public_key, decoded.serial) == (
            sample_envelope.symbol, sample_envelope.challenge, sample_envelope.printer_public_key, 1,
        )

    def test_commit_code_qr_roundtrip(self, group, sample_receipt):
        code = sample_receipt.commit_code
        qr = code.to_qr(group)
        decoded = CommitCode.from_qr(qr, group)
        assert decoded.to_qr(group).payload == qr.payload
        assert decoded.public_credential == code.public_credential
        assert isinstance(decoded.commit.commit_g, ElementEncoding)
        assert decoded.signed_message() == code.signed_message()

    def test_check_out_ticket_qr_roundtrip(self, group, sample_receipt):
        ticket = sample_receipt.check_out_ticket
        qr = ticket.to_qr(group)
        decoded = CheckOutTicket.from_qr(qr, group)
        assert decoded.to_qr(group).payload == qr.payload
        assert (decoded.public_credential, decoded.kiosk_public_key) == (
            ticket.public_credential, ticket.kiosk_public_key,
        )

    def test_response_code_qr_roundtrip(self, group, sample_receipt):
        response = sample_receipt.response_code
        qr = response.to_qr(group)
        decoded = ResponseCode.from_qr(qr, group)
        assert decoded.to_qr(group).payload == qr.payload
        assert decoded.kiosk_public_key == response.kiosk_public_key

    def test_qr_payload_sizes_within_paper_range_on_toy_group(self, group, sample_receipt, sample_envelope):
        for qr in (
            sample_receipt.commit_code.to_qr(group),
            sample_receipt.check_out_ticket.to_qr(group),
            sample_receipt.response_code.to_qr(group),
            sample_envelope.to_qr(group),
        ):
            assert len(qr.payload) <= 356


class TestPaperCredential:
    def test_state_machine(self, group, sample_receipt, sample_envelope):
        credential = PaperCredential(receipt=sample_receipt, envelope=sample_envelope, is_real=True)
        assert credential.state is CredentialState.IN_BOOTH
        credential.insert_for_transport()
        assert credential.state is CredentialState.TRANSPORT
        credential.lift_for_activation()
        assert credential.state is CredentialState.ACTIVATE

    def test_activation_requires_transport_first(self, group, sample_receipt, sample_envelope):
        credential = PaperCredential(receipt=sample_receipt, envelope=sample_envelope, is_real=True)
        with pytest.raises(ProtocolError):
            credential.lift_for_activation()

    def test_check_out_qr_only_visible_in_transport(self, group, sample_receipt, sample_envelope):
        credential = PaperCredential(receipt=sample_receipt, envelope=sample_envelope, is_real=True)
        with pytest.raises(ProtocolError):
            credential.visible_check_out_qr(group)
        credential.insert_for_transport()
        assert credential.visible_check_out_qr(group).payload

    def test_activation_qrs_only_visible_in_activate_state(self, group, sample_receipt, sample_envelope):
        credential = PaperCredential(receipt=sample_receipt, envelope=sample_envelope, is_real=True)
        credential.insert_for_transport()
        with pytest.raises(ProtocolError):
            credential.visible_activation_qrs(group)
        credential.lift_for_activation()
        assert len(credential.visible_activation_qrs(group)) == 3

    def test_real_credential_symbol_mismatch_rejected(self, group, sample_receipt):
        printer = schnorr_keygen(group)
        mismatched = Envelope(
            symbol=EnvelopeSymbol.CIRCLE,
            challenge=5,
            printer_public_key=printer.public,
            printer_signature=schnorr_sign(printer, b"h"),
        )
        with pytest.raises(ProtocolError):
            PaperCredential(receipt=sample_receipt, envelope=mismatched, is_real=True)

    def test_coercer_view_hides_the_realness_bit(self, group, sample_receipt, sample_envelope):
        credential = PaperCredential(
            receipt=sample_receipt,
            envelope=sample_envelope,
            is_real=False,
            voter_marking="F1",
            observed_sound_order=False,
        )
        view = credential.coercer_view()
        assert view.is_real is True          # the coercer is told it is real
        assert view.voter_marking == ""      # private marking withheld
        assert view.observed_sound_order is None
        assert view.receipt == credential.receipt

    def test_marking(self, group, sample_receipt, sample_envelope):
        credential = PaperCredential(receipt=sample_receipt, envelope=sample_envelope, is_real=True)
        credential.mark("RR")
        assert credential.voter_marking == "RR"


class TestEnvelopeSymbols:
    def test_random_symbol_is_member(self):
        assert EnvelopeSymbol.random() in list(EnvelopeSymbol)

    def test_five_distinct_symbols(self):
        assert len(list(EnvelopeSymbol)) == 5

    def test_challenge_hash_is_stable(self, group, sample_envelope):
        assert sample_envelope.challenge_hash == sample_envelope.challenge_hash
