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

The five printed codes are each declared once.  A code's ``LAYOUT`` lists its
printed fields in order as ``(attribute, kind)`` pairs over the one table of
value kinds (:mod:`repro.crypto.encoding`; :data:`SYMBOL` is declared here),
and :class:`PrintedCode` derives from it both the printing (every field
behind a 2-byte length) and a strict, total reader: any payload that is not
the printing of exactly one code raises :class:`MalformedCode` naming the
field.  A field that a verification equation determines — a signature's
``R``, the commit's ``Y1``, ``Y2`` — is read as an ``ElementEncoding`` and
stays bytes until its check recomputes the element.  A signed code is built
by its one ``signed`` constructor, over its one message.
"""

from __future__ import annotations

import enum
import secrets
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, ClassVar, List, Optional, Tuple, Type, TypeVar

from repro.crypto.chaum_pedersen import (
    ChaumPedersenCommit,
    ChaumPedersenStatement,
    ChaumPedersenTranscript,
)
from repro.crypto.elgamal import ElGamalCiphertext
from repro.crypto.encoding import BYTES, CIPHERTEXT, COMMIT, ELEMENT, ENCODED_SIGNATURE, SCALAR, TEXT, Kind, textual
from repro.crypto.group import Group, GroupElement
from repro.crypto.hashing import scalar_bytes, sha256
from repro.crypto.schnorr import SchnorrSignature, SigningKeyPair, schnorr_sign
from repro.errors import ProtocolError
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
# Printed-code layouts
# ---------------------------------------------------------------------------


class MalformedCode(ProtocolError, ValueError):
    """A strict reader refused a printed code: ``code`` names it, ``field`` the
    field (``payload`` for the framing), ``problem`` says why."""

    def __init__(self, code: str, field: str, problem: str) -> None:
        super().__init__(f"{code}.{field}: {problem}")
        self.code = code
        self.field = field
        self.problem = problem


#: The envelope symbol, spelled by its name.
SYMBOL = textual("symbol", attrgetter("value"), EnvelopeSymbol)

C = TypeVar("C", bound="PrintedCode")


class PrintedCode:
    """Base of the five printed codes: the printing and its strict inverse, from ``LAYOUT``."""

    LABEL: ClassVar[str]  # the code's name on paper and in a MalformedCode
    LAYOUT: ClassVar[Tuple[Tuple[str, Kind], ...]]  # the printed fields, in order

    def payload(self, group: Optional[Group] = None) -> bytes:
        printed: List[bytes] = []
        for name, kind in self.LAYOUT:
            for field in kind.printed(group, getattr(self, name)):
                if len(field) > 0xFFFF:
                    raise ProtocolError(f"{self.LABEL}.{name}: field too large for a printed code")
                printed += (len(field).to_bytes(2, "big"), field)
        return b"".join(printed)

    @classmethod
    def read(cls: Type[C], payload: bytes, group: Optional[Group] = None, **unprinted: Any) -> C:
        """Strict inverse of :meth:`payload`; ``unprinted`` holds the fields paper does not carry."""
        fields, offset, size = [], 0, len(payload)
        while offset < size:
            start = offset + 2
            offset = start + int.from_bytes(payload[offset:start], "big")
            if offset > size:
                raise MalformedCode(cls.LABEL, "payload", "truncated field")
            fields.append(payload[start:offset])
        expected = sum(len(kind.members) for _, kind in cls.LAYOUT)
        if len(fields) != expected:
            raise MalformedCode(cls.LABEL, "payload", f"expected {expected} fields, got {len(fields)}")
        values, start = {}, 0
        for name, kind in cls.LAYOUT:
            parts = len(kind.members)
            try:
                values[name] = kind.read_printed(group, *fields[start : start + parts])
            except ValueError as exc:
                raise MalformedCode(cls.LABEL, name, str(exc)) from None
            start += parts
        return cls(**values, **unprinted)

    def to_qr(self, group: Group) -> QRCode:
        return QRCode(payload=self.payload(group), label=self.LABEL)

    @classmethod
    def from_qr(cls: Type[C], qr: QRCode, group: Group, **unprinted: Any) -> C:
        return cls.read(qr.payload, group, **unprinted)


# ---------------------------------------------------------------------------
# Check-in ticket
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckInTicket(PrintedCode):
    """``t_in = (V_id, τ_r)`` — a barcode handed to the voter at check-in."""

    LABEL = "check-in"
    LAYOUT = (("voter_id", TEXT), ("mac_tag", BYTES))

    voter_id: str
    mac_tag: bytes

    def to_barcode(self) -> Barcode:
        return Barcode(payload=self.payload(), label=self.LABEL)

    @classmethod
    def from_barcode(cls, barcode: Barcode) -> "CheckInTicket":
        return cls.read(barcode.payload)


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------


def challenge_message(challenge: int) -> bytes:
    """The message the printer signs on an envelope: ``H(e)``."""
    return sha256(b"envelope-challenge", scalar_bytes(challenge))


@dataclass(frozen=True)
class Envelope(PrintedCode):
    """A pre-printed envelope carrying the ZKP challenge (Fig. 2a).

    ``serial`` is not printed: :meth:`from_qr` takes it from the caller.
    """

    LABEL = "envelope"
    LAYOUT = (
        ("symbol", SYMBOL),
        ("challenge", SCALAR),
        ("printer_public_key", ELEMENT),
        ("printer_signature", ENCODED_SIGNATURE),
    )

    symbol: EnvelopeSymbol
    challenge: int
    printer_public_key: GroupElement
    printer_signature: SchnorrSignature
    serial: int = 0

    @classmethod
    def signed(cls, printer: SigningKeyPair, symbol: EnvelopeSymbol, challenge: int, serial: int = 0) -> "Envelope":
        return cls(symbol, challenge, printer.public, schnorr_sign(printer, challenge_message(challenge)), serial)

    @property
    def challenge_hash(self) -> bytes:
        return challenge_message(self.challenge)


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
class CommitCode(PrintedCode):
    """``q_c = (V_id, c_pc, Y_c, σ_kc)`` — the first printed QR (Fig. 9a, line 7).

    Read back with :meth:`from_qr`, ``Y_c`` and ``σ_kc``'s ``R`` stay
    encodings: the device checks them by recomputation, never by decoding.
    """

    LABEL = "commit"
    LAYOUT = (
        ("voter_id", TEXT),
        ("public_credential", CIPHERTEXT),
        ("commit", COMMIT),
        ("kiosk_signature", ENCODED_SIGNATURE),
    )

    voter_id: str
    public_credential: ElGamalCiphertext
    commit: ChaumPedersenCommit
    kiosk_signature: SchnorrSignature

    @classmethod
    def signed(
        cls, kiosk: SigningKeyPair, voter_id: str, public_credential: ElGamalCiphertext, commit: ChaumPedersenCommit
    ) -> "CommitCode":
        signature = schnorr_sign(kiosk, commit_message(voter_id, public_credential, commit))
        return cls(voter_id, public_credential, commit, signature)

    def signed_message(self) -> bytes:
        return commit_message(self.voter_id, self.public_credential, self.commit)


@dataclass(frozen=True)
class CheckOutTicket(PrintedCode):
    """``t_ot = (V_id, c_pc, K_pk, σ_kot)`` — the middle QR, visible in transport state."""

    LABEL = "check-out"
    LAYOUT = (
        ("voter_id", TEXT),
        ("public_credential", CIPHERTEXT),
        ("kiosk_public_key", ELEMENT),
        ("kiosk_signature", ENCODED_SIGNATURE),
    )

    voter_id: str
    public_credential: ElGamalCiphertext
    kiosk_public_key: GroupElement
    kiosk_signature: SchnorrSignature

    @classmethod
    def signed(cls, kiosk: SigningKeyPair, voter_id: str, public_credential: ElGamalCiphertext) -> "CheckOutTicket":
        signature = schnorr_sign(kiosk, check_out_message(voter_id, public_credential))
        return cls(voter_id, public_credential, kiosk.public, signature)

    def signed_message(self) -> bytes:
        return check_out_message(self.voter_id, self.public_credential)


@dataclass(frozen=True)
class ResponseCode(PrintedCode):
    """``q_r = (c_sk, r, K_pk, σ_kr)`` — the bottom QR, containing the credential secret."""

    LABEL = "response"
    LAYOUT = (
        ("credential_secret", SCALAR),
        ("zkp_response", SCALAR),
        ("kiosk_public_key", ELEMENT),
        ("kiosk_signature", ENCODED_SIGNATURE),
    )

    credential_secret: int
    zkp_response: int
    kiosk_public_key: GroupElement
    kiosk_signature: SchnorrSignature

    @classmethod
    def signed(cls, kiosk: SigningKeyPair, credential: SigningKeyPair, challenge: int, response: int) -> "ResponseCode":
        signature = schnorr_sign(kiosk, response_message(credential.public, challenge, response))
        return cls(credential.secret, response, kiosk.public, signature)

    @staticmethod
    def signed_message(credential_public: GroupElement, challenge: int, response: int) -> bytes:
        return response_message(credential_public, challenge, response)


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
