"""The privacy-booth kiosk — issues real and fake credentials (Appendix E.4/E.5).

The kiosk is the only registrar component a voter directly interacts with.
For a **real** credential it follows the sound Σ-protocol order:

1. authorize the session from the check-in ticket's MAC;
2. generate the credential key pair, encrypt its public key under the
   authority key to form the public credential tag ``c_pc``, compute the
   Chaum–Pedersen *commit*, pick a random envelope symbol and print the
   commit QR;
3. only then accept an envelope (with the matching symbol) whose QR supplies
   the *challenge*;
4. compute the *response*, and print the check-out and response QRs.

For a **fake** credential the kiosk accepts the envelope first and runs the
honest-verifier simulator, printing the whole receipt in one go.  The printed
artefacts are cryptographically indistinguishable; only the order of steps —
which the voter observes — differs.

All peripheral interactions are routed through the simulated printer and
scanner so the latency ledger captures the Fig. 4 decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.crypto.chaum_pedersen import (
    ChaumPedersenProver,
    ChaumPedersenStatement,
    simulate_chaum_pedersen,
)
from repro.crypto.elgamal import ElGamal, ElGamalCiphertext
from repro.crypto.group import Group, GroupElement
from repro.crypto.mac import mac_verify
from repro.crypto.schnorr import SigningKeyPair, schnorr_keygen, schnorr_sign
from repro.crypto.sigma import Move, SigmaSession
from repro.errors import ProtocolError, RegistrationError
from repro.peripherals.clock import Component, LatencyLedger
from repro.peripherals.hardware import HardwareProfile, hardware_profile
from repro.peripherals.printer import ReceiptPrinter
from repro.peripherals.scanner import CodeScanner
from repro.registration.materials import (
    CheckInTicket,
    CheckOutTicket,
    CommitCode,
    Envelope,
    EnvelopeSymbol,
    Receipt,
    ResponseCode,
    check_out_message,
    commit_message,
    response_message,
)


@dataclass
class KioskSession:
    """Per-voter state held by the kiosk between check-in and check-out."""

    voter_id: str
    real_secret: Optional[int] = None
    real_public: Optional[GroupElement] = None
    public_credential: Optional[ElGamalCiphertext] = None
    encryption_randomness: Optional[int] = None
    prover: Optional[ChaumPedersenProver] = None
    pending_commit: Optional[CommitCode] = None
    pending_symbol: Optional[EnvelopeSymbol] = None
    check_out_ticket: Optional[CheckOutTicket] = None
    used_challenges: Set[int] = field(default_factory=set)
    real_sigma: SigmaSession = field(default_factory=SigmaSession)
    fake_sigmas: List[SigmaSession] = field(default_factory=list)
    credentials_issued: int = 0

    @property
    def real_credential_issued(self) -> bool:
        return self.check_out_ticket is not None


@dataclass
class Kiosk:
    """An honest TRIP kiosk."""

    group: Group
    keypair: SigningKeyPair
    authority_public_key: GroupElement
    shared_mac_key: bytes
    profile: HardwareProfile = field(default_factory=lambda: hardware_profile("H1"))
    latency: LatencyLedger = field(default_factory=LatencyLedger)

    def __post_init__(self) -> None:
        self.elgamal = ElGamal(self.group)
        self.printer = ReceiptPrinter(profile=self.profile, ledger=self.latency)
        self.scanner = CodeScanner(profile=self.profile, ledger=self.latency)

    # ------------------------------------------------------------------ helpers

    @property
    def public_key(self) -> GroupElement:
        return self.keypair.public

    def _statement(
        self, public_credential: ElGamalCiphertext, credential_public: GroupElement
    ) -> ChaumPedersenStatement:
        """The ZKPoE statement: ``C1 = g^x`` and ``X = A_pk^x`` with ``X = C2 / c_pk``."""
        return ChaumPedersenStatement(
            base_g=self.group.generator,
            base_h=self.authority_public_key,
            value_g=public_credential.c1,
            value_h=public_credential.c2 * credential_public.inverse(),
        )

    # --------------------------------------------------------------- authorization

    def authorize(self, ticket: CheckInTicket) -> KioskSession:
        """Scan and verify the check-in ticket, opening a kiosk session (Fig. 8)."""
        with self.latency.phase("Authorization"):
            scanned_barcode = self.scanner.scan(ticket.to_barcode(), label="check-in ticket")
            with self.latency.measure(Component.CRYPTO, label="authorize", cpu_scale=self.profile.crypto_scale()):
                decoded = CheckInTicket.from_barcode(scanned_barcode)
                if not mac_verify(self.shared_mac_key, decoded.voter_id.encode(), decoded.mac_tag):
                    raise RegistrationError("check-in ticket failed MAC verification")
        return KioskSession(voter_id=decoded.voter_id)

    # --------------------------------------------------------------- real credential

    def begin_real_credential(self, session: KioskSession) -> CommitCode:
        """Steps 1-2 of real-credential creation: generate keys and print the commit."""
        if session.pending_commit is not None:
            raise ProtocolError("a real-credential commit is already pending")
        if session.real_credential_issued:
            raise ProtocolError("the real credential was already issued in this session")
        with self.latency.phase("RealToken"):
            with self.latency.measure(Component.CRYPTO, label="real:commit", cpu_scale=self.profile.crypto_scale()):
                credential = schnorr_keygen(self.group)
                randomness = self.group.random_scalar()
                public_credential = self.elgamal.encrypt(
                    self.authority_public_key, credential.public, randomness
                )
                prover = ChaumPedersenProver(self._statement(public_credential, credential.public), randomness)
                commit = prover.commit()
                commit_code = CommitCode(
                    voter_id=session.voter_id,
                    public_credential=public_credential,
                    commit=commit,
                    kiosk_signature=schnorr_sign(
                        self.keypair, commit_message(session.voter_id, public_credential, commit)
                    ),
                )
                symbol = EnvelopeSymbol.random()

            session.real_secret = credential.secret
            session.real_public = credential.public
            session.public_credential = public_credential
            session.encryption_randomness = randomness
            session.prover = prover
            session.pending_commit = commit_code
            session.pending_symbol = symbol
            session.real_sigma.record(Move.COMMIT)

            self.printer.print_codes(commit_code.to_qr(self.group), text_lines=2, label="real:commit")
        return commit_code

    def complete_real_credential(self, session: KioskSession, envelope: Envelope) -> Receipt:
        """Steps 3-4: accept the envelope's challenge, respond, print the rest."""
        if session.pending_commit is None or session.prover is None:
            raise ProtocolError("no pending commit: the commit must be printed before an envelope is accepted")
        with self.latency.phase("RealToken"):
            scanned = self.scanner.scan(envelope.to_qr(self.group), label="real:envelope")
            with self.latency.measure(Component.CRYPTO, label="real:response", cpu_scale=self.profile.crypto_scale()):
                decoded = Envelope.from_qr(scanned, self.group, serial=envelope.serial)
                if decoded.symbol != session.pending_symbol:
                    raise RegistrationError(
                        "envelope symbol does not match the printed symbol; "
                        "pick an envelope bearing the matching symbol"
                    )
                if decoded.challenge in session.used_challenges:
                    raise RegistrationError("this envelope's challenge was already used in this session")
                session.real_sigma.record(Move.CHALLENGE)
                transcript = session.prover.respond(decoded.challenge)
                session.real_sigma.record(Move.RESPONSE)

                check_out = CheckOutTicket(
                    voter_id=session.voter_id,
                    public_credential=session.public_credential,
                    kiosk_public_key=self.keypair.public,
                    kiosk_signature=schnorr_sign(
                        self.keypair, check_out_message(session.voter_id, session.public_credential)
                    ),
                )
                response_code = ResponseCode(
                    credential_secret=session.real_secret,
                    zkp_response=transcript.response,
                    kiosk_public_key=self.keypair.public,
                    kiosk_signature=schnorr_sign(
                        self.keypair,
                        response_message(session.real_public, decoded.challenge, transcript.response),
                    ),
                )
            self.printer.print_codes(
                check_out.to_qr(self.group),
                response_code.to_qr(self.group),
                text_lines=2,
                label="real:response",
            )

        session.used_challenges.add(decoded.challenge)
        session.check_out_ticket = check_out
        session.credentials_issued += 1
        receipt = Receipt(
            symbol=session.pending_symbol,
            commit_code=session.pending_commit,
            check_out_ticket=check_out,
            response_code=response_code,
        )
        session.pending_commit = None
        session.prover = None
        return receipt

    # --------------------------------------------------------------- fake credential

    def create_fake_credential(self, session: KioskSession, envelope: Envelope) -> Receipt:
        """Issue a fake credential: envelope first, then the whole receipt (Fig. 9b)."""
        if not session.real_credential_issued:
            raise ProtocolError("the real credential must be created before any fake credential")
        sigma = SigmaSession()
        with self.latency.phase("FakeToken"):
            scanned = self.scanner.scan(envelope.to_qr(self.group), label="fake:envelope")
            with self.latency.measure(Component.CRYPTO, label="fake:simulate", cpu_scale=self.profile.crypto_scale()):
                decoded = Envelope.from_qr(scanned, self.group, serial=envelope.serial)
                if decoded.challenge in session.used_challenges:
                    raise RegistrationError("this envelope's challenge was already used in this session")
                sigma.record(Move.CHALLENGE)

                fake_credential = schnorr_keygen(self.group)
                statement = self._statement(session.public_credential, fake_credential.public)
                # The kiosk encrypted c_pc itself: C1 = g^x and
                # X = A_pk^x · g^(sk_real − sk_fake).  A session without that
                # witness (in-booth delegation) simulates from the statement.
                witness = None
                if session.encryption_randomness is not None and session.real_secret is not None:
                    witness = (session.encryption_randomness, session.real_secret - fake_credential.secret)
                transcript = simulate_chaum_pedersen(statement, decoded.challenge, witness=witness)
                sigma.record(Move.COMMIT)
                sigma.record(Move.RESPONSE)

                commit_code = CommitCode(
                    voter_id=session.voter_id,
                    public_credential=session.public_credential,
                    commit=transcript.commit,
                    kiosk_signature=schnorr_sign(
                        self.keypair,
                        commit_message(session.voter_id, session.public_credential, transcript.commit),
                    ),
                )
                response_code = ResponseCode(
                    credential_secret=fake_credential.secret,
                    zkp_response=transcript.response,
                    kiosk_public_key=self.keypair.public,
                    kiosk_signature=schnorr_sign(
                        self.keypair,
                        response_message(fake_credential.public, decoded.challenge, transcript.response),
                    ),
                )
            # The entire receipt (commit, check-out, response) prints in one go.
            self.printer.print_codes(
                commit_code.to_qr(self.group),
                session.check_out_ticket.to_qr(self.group),
                response_code.to_qr(self.group),
                text_lines=2,
                label="fake:receipt",
            )

        session.used_challenges.add(decoded.challenge)
        session.fake_sigmas.append(sigma)
        session.credentials_issued += 1
        return Receipt(
            symbol=decoded.symbol,
            commit_code=commit_code,
            check_out_ticket=session.check_out_ticket,
            response_code=response_code,
        )
