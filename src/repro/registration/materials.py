"""Physical registration artefacts: envelopes, receipts, tickets, credentials.

These classes model exactly the paper objects of Fig. 2 and Appendix E:

* :class:`Envelope` — pre-printed by an envelope printer with a symbol, a QR
  code carrying the ZKP challenge ``e``, the printer's public key and a
  signature on ``H(e)``; the envelope has a transparent window and an opaque
  lower portion used by the transport/activate states.
* :class:`CheckInTicket` — a barcode with the voter id and a MAC tag issued
  by the official at check-in.
* :class:`CommitCode` / :class:`CheckOutTicket` / :class:`ResponseCode` — the
  three QR codes the kiosk prints on the receipt.
* :class:`Receipt` — the printed receipt (symbol + the three QR codes).
* :class:`PaperCredential` — a receipt inserted into an envelope, with the
  state machine (in-booth → transport → activate) that controls which codes
  are visible, plus the voter's private marking.
"""

from __future__ import annotations

import enum
import secrets
from dataclasses import dataclass
from typing import List, Optional

from repro.crypto.chaum_pedersen import (
    ChaumPedersenCommit,
    ChaumPedersenStatement,
    ChaumPedersenTranscript,
)
from repro.crypto.elgamal import ElGamalCiphertext
from repro.crypto.group import Group, GroupElement
from repro.crypto.hashing import scalar_bytes, sha256
from repro.crypto.schnorr import SchnorrSignature
from repro.errors import ProtocolError
from repro.registration.codec import Decoder, Encoder
from repro.registration.qr import Barcode, QRCode


class EnvelopeSymbol(enum.Enum):
    """The small set of symbols printed on envelopes and commit codes (§4.4).

    The kiosk prints a randomly chosen symbol above the commit QR; the voter
    must pick an envelope bearing the same symbol, which trains voters to wait
    for the commit before presenting an envelope.
    """

    CIRCLE = "circle"
    SQUARE = "square"
    TRIANGLE = "triangle"
    STAR = "star"
    DIAMOND = "diamond"

    @classmethod
    def random(cls) -> "EnvelopeSymbol":
        members = list(cls)
        return members[secrets.randbelow(len(members))]


class CredentialState(enum.Enum):
    """The physical state of a paper credential (Fig. 2c / 2d)."""

    IN_BOOTH = "in_booth"          # receipt not yet inserted into the envelope
    TRANSPORT = "transport"        # fully inserted: only the check-out QR is visible
    ACTIVATE = "activate"          # lifted one third: commit, response and envelope QRs visible


# ---------------------------------------------------------------------------
# Check-in ticket
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckInTicket:
    """``t_in = (V_id, τ_r)`` — a barcode handed to the voter at check-in."""

    voter_id: str
    mac_tag: bytes

    def to_barcode(self) -> Barcode:
        return Barcode(payload=Encoder().put_str(self.voter_id).put_bytes(self.mac_tag).bytes(), label="check-in")

    @classmethod
    def from_barcode(cls, barcode: Barcode) -> "CheckInTicket":
        decoder = Decoder(barcode.payload)
        return cls(voter_id=decoder.get_str(), mac_tag=decoder.get_bytes())


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """A pre-printed envelope carrying the ZKP challenge (Fig. 2a)."""

    symbol: EnvelopeSymbol
    challenge: int
    printer_public_key: GroupElement
    printer_signature: SchnorrSignature
    serial: int = 0

    @property
    def challenge_hash(self) -> bytes:
        return sha256(b"envelope-challenge", scalar_bytes(self.challenge))

    def to_qr(self, group: Group) -> QRCode:
        payload = (
            Encoder()
            .put_str(self.symbol.value)
            .put_int(self.challenge, group)
            .put_element(self.printer_public_key)
            .put_signature(self.printer_signature, group)
            .bytes()
        )
        return QRCode(payload=payload, label="envelope")

    @classmethod
    def from_qr(cls, qr: QRCode, group: Group, serial: int = 0) -> "Envelope":
        decoder = Decoder(qr.payload)
        return cls(
            symbol=EnvelopeSymbol(decoder.get_str()),
            challenge=decoder.get_int(),
            printer_public_key=decoder.get_element(group),
            printer_signature=decoder.get_signature(group),
            serial=serial,
        )


# ---------------------------------------------------------------------------
# Receipt QR codes
# ---------------------------------------------------------------------------


def commit_message(voter_id: str, public_credential: ElGamalCiphertext, commit: ChaumPedersenCommit) -> bytes:
    """The message the kiosk signs on a commit code: ``V_id ∥ c_pc ∥ Y_c``."""
    return sha256(b"commit-code", voter_id.encode(), public_credential.to_bytes(), commit.to_bytes())


def check_out_message(voter_id: str, public_credential: ElGamalCiphertext) -> bytes:
    """The message the kiosk signs on a check-out ticket: ``V_id ∥ c_pc``."""
    return sha256(b"check-out-ticket", voter_id.encode(), public_credential.to_bytes())


def response_message(credential_public: GroupElement, challenge: int, response: int) -> bytes:
    """The message the kiosk signs on a response code: ``c_pk ∥ H(e ∥ r)``."""
    return sha256(
        b"response-code",
        credential_public.to_bytes(),
        sha256(scalar_bytes(challenge), scalar_bytes(response)),
    )


@dataclass(frozen=True)
class CommitCode:
    """``q_c = (V_id, c_pc, Y_c, σ_kc)`` — the first printed QR (Fig. 9a, line 7).

    Read back with :meth:`from_qr`, ``Y_c`` and ``σ_kc``'s ``R`` stay
    encodings: the device checks them by recomputation, never by decoding.
    """

    voter_id: str
    public_credential: ElGamalCiphertext
    commit: ChaumPedersenCommit
    kiosk_signature: SchnorrSignature

    def signed_message(self) -> bytes:
        return commit_message(self.voter_id, self.public_credential, self.commit)

    def to_qr(self, group: Group) -> QRCode:
        payload = (
            Encoder()
            .put_str(self.voter_id)
            .put_element(self.public_credential.c1)
            .put_element(self.public_credential.c2)
            .put_element(self.commit.commit_g)
            .put_element(self.commit.commit_h)
            .put_signature(self.kiosk_signature, group)
            .bytes()
        )
        return QRCode(payload=payload, label="commit")

    @classmethod
    def from_qr(cls, qr: QRCode, group: Group) -> "CommitCode":
        decoder = Decoder(qr.payload)
        return cls(
            voter_id=decoder.get_str(),
            public_credential=ElGamalCiphertext(decoder.get_element(group), decoder.get_element(group)),
            commit=ChaumPedersenCommit(decoder.get_encoding(group), decoder.get_encoding(group)),
            kiosk_signature=decoder.get_signature(group),
        )


@dataclass(frozen=True)
class CheckOutTicket:
    """``t_ot = (V_id, c_pc, K_pk, σ_kot)`` — the middle QR, visible in transport state."""

    voter_id: str
    public_credential: ElGamalCiphertext
    kiosk_public_key: GroupElement
    kiosk_signature: SchnorrSignature

    def signed_message(self) -> bytes:
        return check_out_message(self.voter_id, self.public_credential)

    def to_qr(self, group: Group) -> QRCode:
        payload = (
            Encoder()
            .put_str(self.voter_id)
            .put_element(self.public_credential.c1)
            .put_element(self.public_credential.c2)
            .put_element(self.kiosk_public_key)
            .put_signature(self.kiosk_signature, group)
            .bytes()
        )
        return QRCode(payload=payload, label="check-out")

    @classmethod
    def from_qr(cls, qr: QRCode, group: Group) -> "CheckOutTicket":
        decoder = Decoder(qr.payload)
        return cls(
            voter_id=decoder.get_str(),
            public_credential=ElGamalCiphertext(decoder.get_element(group), decoder.get_element(group)),
            kiosk_public_key=decoder.get_element(group),
            kiosk_signature=decoder.get_signature(group),
        )


@dataclass(frozen=True)
class ResponseCode:
    """``q_r = (c_sk, r, K_pk, σ_kr)`` — the bottom QR, containing the credential secret."""

    credential_secret: int
    zkp_response: int
    kiosk_public_key: GroupElement
    kiosk_signature: SchnorrSignature

    @staticmethod
    def signed_message(credential_public: GroupElement, challenge: int, response: int) -> bytes:
        return response_message(credential_public, challenge, response)

    def to_qr(self, group: Group) -> QRCode:
        payload = (
            Encoder()
            .put_int(self.credential_secret, group)
            .put_int(self.zkp_response, group)
            .put_element(self.kiosk_public_key)
            .put_signature(self.kiosk_signature, group)
            .bytes()
        )
        return QRCode(payload=payload, label="response")

    @classmethod
    def from_qr(cls, qr: QRCode, group: Group) -> "ResponseCode":
        decoder = Decoder(qr.payload)
        return cls(
            credential_secret=decoder.get_int(),
            zkp_response=decoder.get_int(),
            kiosk_public_key=decoder.get_element(group),
            kiosk_signature=decoder.get_signature(group),
        )


# ---------------------------------------------------------------------------
# Receipt and paper credential
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Receipt:
    """The printed receipt: symbol plus the three QR codes (Fig. 2b)."""

    symbol: EnvelopeSymbol
    commit_code: CommitCode
    check_out_ticket: CheckOutTicket
    response_code: ResponseCode


@dataclass
class PaperCredential:
    """A receipt paired with the envelope it was inserted into.

    The credential is what the voter physically carries.  Its state machine
    mirrors the paper's envelope design: in the *transport* state only the
    check-out QR is visible (through the window); in the *activate* state the
    commit and response QRs plus the envelope's own QR are visible, while the
    check-out QR is covered.
    """

    receipt: Receipt
    envelope: Envelope
    is_real: bool
    state: CredentialState = CredentialState.IN_BOOTH
    voter_marking: str = ""
    observed_sound_order: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.receipt.symbol != self.envelope.symbol and self.is_real:
            raise ProtocolError("real-credential receipt symbol must match the envelope symbol")

    # State machine -------------------------------------------------------------

    def insert_for_transport(self) -> "PaperCredential":
        """Fully insert the receipt into the envelope (Fig. 2c)."""
        self.state = CredentialState.TRANSPORT
        return self

    def lift_for_activation(self) -> "PaperCredential":
        """Lift the receipt a third of the way out (Fig. 2d)."""
        if self.state is CredentialState.IN_BOOTH:
            raise ProtocolError("credential must be transported (inserted) before activation")
        self.state = CredentialState.ACTIVATE
        return self

    def mark(self, marking: str) -> "PaperCredential":
        """The voter's private marking that distinguishes real from fake."""
        self.voter_marking = marking
        return self

    # Visibility ------------------------------------------------------------------

    def visible_check_out_qr(self, group: Group) -> QRCode:
        """The QR the official can scan through the window (transport state only)."""
        if self.state is not CredentialState.TRANSPORT:
            raise ProtocolError("check-out QR is only visible in the transport state")
        return self.receipt.check_out_ticket.to_qr(group)

    def visible_activation_qrs(self, group: Group) -> List[QRCode]:
        """The three QR codes visible in the activate state."""
        if self.state is not CredentialState.ACTIVATE:
            raise ProtocolError("activation QRs are only visible in the activate state")
        return [
            self.receipt.commit_code.to_qr(group),
            self.receipt.response_code.to_qr(group),
            self.envelope.to_qr(group),
        ]

    # What a coercer can see --------------------------------------------------------

    def coercer_view(self) -> "PaperCredential":
        """The credential as handed to a coercer: identical paper, no realness bit.

        The returned object deliberately drops ``is_real`` (set to True — the
        coercer is told every credential is "the real one") and the voter's
        private observation of the printing order.
        """
        view = PaperCredential(
            receipt=self.receipt,
            envelope=self.envelope,
            is_real=True,
            state=self.state,
            voter_marking="",
            observed_sound_order=None,
        )
        return view


@dataclass(frozen=True)
class ActivatedCredential:
    """The credential as stored on the voter's device after activation.

    Every field is a group element: the transcript's commit is the
    ``(Y1', Y2')`` the device recomputed, whose bytes are the printed ones.
    """

    voter_id: str
    secret_key: int
    public_key: GroupElement
    public_credential: ElGamalCiphertext
    transcript: ChaumPedersenTranscript
    kiosk_public_key: GroupElement
    is_real: bool

    def statement(self) -> ChaumPedersenStatement:
        return self.transcript.statement
