"""The printed codes' layouts, their strict readers, and the physical registration artefacts."""

import pytest

from repro.crypto.chaum_pedersen import ChaumPedersenCommit
from repro.crypto.elgamal import ElGamal
from repro.crypto.encoding import scalar_width
from repro.crypto.group import ElementEncoding
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign, schnorr_verify
from repro.errors import ProtocolError
from repro.registration.materials import (
    CheckInTicket,
    CheckOutTicket,
    CommitCode,
    CredentialState,
    Envelope,
    EnvelopeSymbol,
    MalformedCode,
    PaperCredential,
    Receipt,
    ResponseCode,
)


def _split(payload: bytes):
    """The length-prefixed fields of a printed payload."""
    fields = []
    while payload:
        length = int.from_bytes(payload[:2], "big")
        fields.append(payload[2 : 2 + length])
        payload = payload[2 + length :]
    return fields


def _join(fields) -> bytes:
    return b"".join(len(field).to_bytes(2, "big") + field for field in fields)


def _printed_codes(group):
    """One honest code of each of the five kinds, keyed by label."""
    kiosk, printer, credential = schnorr_keygen(group), schnorr_keygen(group), schnorr_keygen(group)
    tag = ElGamal(group).encrypt(group.power(7), credential.public)
    commit = ChaumPedersenCommit(group.power(3), group.power(4))
    challenge = group.random_scalar()
    codes = [
        CheckInTicket("alice", b"\xaa" * 16),
        Envelope.signed(printer, EnvelopeSymbol.STAR, challenge),
        CommitCode.signed(kiosk, "alice", tag, commit),
        CheckOutTicket.signed(kiosk, "alice", tag),
        ResponseCode.signed(kiosk, credential, challenge, 99),
    ]
    return {code.LABEL: code for code in codes}


def _padded(group, data):
    return b"\x00" + data


def _at_order(group, data):
    return group.order.to_bytes(scalar_width(group), "big")


def _not_utf8(group, data):
    return b"\xff" + data


def _unknown_symbol(group, data):
    return b"hexagon"


def _undecodable(group, data):
    return bytes(len(data))  # zero: outside the field


#: ``(code, row, framing rewrite, what the refusal says)``: the payload as a whole is wrong.
FRAMING_ROWS = [
    (code, row, rewrite, problem)
    for code in ("check-in", "envelope", "commit", "check-out", "response")
    for row, rewrite, problem in (
        ("truncated", lambda payload: payload[:-1], "truncated field"),
        ("extra field", lambda payload: payload + b"\x00\x01x", "expected"),
        ("trailing bytes", lambda payload: payload + b"\x00", "truncated field"),
    )
]

#: ``(code, row, printed field index, rewrite, the field MalformedCode names)``.
FIELD_ROWS = [
    ("check-in", "non-UTF-8 text", 0, _not_utf8, "voter_id"),
    ("envelope", "unknown symbol", 0, _unknown_symbol, "symbol"),
    ("envelope", "non-UTF-8 text", 0, _not_utf8, "symbol"),
    ("envelope", "padded scalar", 1, _padded, "challenge"),
    ("envelope", "scalar >= q", 1, _at_order, "challenge"),
    ("envelope", "undecodable element", 2, _undecodable, "printer_public_key"),
    ("envelope", "padded scalar", 4, _padded, "printer_signature"),
    ("commit", "non-UTF-8 text", 0, _not_utf8, "voter_id"),
    ("commit", "undecodable element", 1, _undecodable, "public_credential"),
    ("commit", "undecodable element", 2, _undecodable, "public_credential"),
    ("commit", "scalar >= q", 6, _at_order, "kiosk_signature"),
    ("check-out", "non-UTF-8 text", 0, _not_utf8, "voter_id"),
    ("check-out", "undecodable element", 3, _undecodable, "kiosk_public_key"),
    ("check-out", "padded scalar", 5, _padded, "kiosk_signature"),
    ("response", "padded scalar", 0, _padded, "credential_secret"),
    ("response", "scalar >= q", 1, _at_order, "zkp_response"),
    ("response", "undecodable element", 2, _undecodable, "kiosk_public_key"),
    ("response", "scalar >= q", 4, _at_order, "kiosk_signature"),
]


def _refusal(group, code, payload) -> MalformedCode:
    printed = _printed_codes(group)[code]
    with pytest.raises(MalformedCode) as refused:
        type(printed).read(payload, group)
    error = refused.value
    assert isinstance(error, ProtocolError) and isinstance(error, ValueError)
    assert error.code == code and str(error).startswith(f"{code}.{error.field}: ")
    return error


class TestCodec:
    def test_roundtrip_all_field_types(self, group):
        for code in _printed_codes(group).values():
            assert type(code).read(code.payload(group), group).payload(group) == code.payload(group)

    @pytest.mark.parametrize(
        "code, row, rewrite, problem", FRAMING_ROWS, ids=[f"{c}-{r}" for c, r, _, _ in FRAMING_ROWS]
    )
    def test_a_misframed_payload_is_refused(self, group, code, row, rewrite, problem):
        refused = _refusal(group, code, rewrite(_printed_codes(group)[code].payload(group)))
        assert refused.field == "payload" and refused.problem.startswith(problem)

    @pytest.mark.parametrize(
        "code, row, index, rewrite, field", FIELD_ROWS, ids=[f"{c}-{r}-{i}" for c, r, i, _, _ in FIELD_ROWS]
    )
    def test_a_hostile_field_is_refused_by_name(self, group, code, row, index, rewrite, field):
        fields = _split(_printed_codes(group)[code].payload(group))
        fields[index] = rewrite(group, fields[index])
        assert _refusal(group, code, _join(fields)).field == field

    def test_an_off_width_encoding_is_kept_for_its_check(self, group):
        code = _printed_codes(group)["commit"]
        fields = _split(code.payload(group))
        for index in (3, 4, 5):  # Y1, Y2 and the signature's R
            fields[index] = b"\x00" + fields[index]
        decoded = CommitCode.read(_join(fields), group)
        y1, y2, r = (ElementEncoding(group, fields[index]) for index in (3, 4, 5))
        assert decoded.commit == ChaumPedersenCommit(y1, y2) and decoded.kiosk_signature.commitment == r

    def test_scalar_width_matches_group_order(self, group):
        assert scalar_width(group) == (group.order.bit_length() + 7) // 8

    def test_oversized_field_rejected(self):
        with pytest.raises(ProtocolError):
            CheckInTicket("x" * 70000, b"").payload()

    def test_each_signed_code_verifies_under_its_one_message(self, group):
        codes = _printed_codes(group)
        envelope, commit, check_out, response = (codes[n] for n in ("envelope", "commit", "check-out", "response"))
        kiosk_key, credential_public = check_out.kiosk_public_key, group.power(response.credential_secret)
        response_message = response.signed_message(credential_public, envelope.challenge, response.zkp_response)
        assert schnorr_verify(envelope.printer_public_key, envelope.challenge_hash, envelope.printer_signature)
        assert schnorr_verify(kiosk_key, commit.signed_message(), commit.kiosk_signature)
        assert schnorr_verify(kiosk_key, check_out.signed_message(), check_out.kiosk_signature)
        assert schnorr_verify(kiosk_key, response_message, response.kiosk_signature)


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
