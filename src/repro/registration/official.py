"""The registration official and their official supporting device (OSD).

The official performs two tasks (Fig. 8 and Fig. 10):

* **Check-in** — after authenticating the voter against the electoral roll,
  the OSD issues a check-in ticket ``t_in = (V_id, τ_r)`` where ``τ_r`` is a
  MAC over the voter identity under the key shared with the kiosks.
* **Check-out** — the official scans the check-out QR visible through the
  envelope window, verifies the kiosk's signature and authorization, signs
  the record and posts it to the registration ledger.  The voter's device is
  subsequently notified of the registration event (impersonation defence,
  Appendix J).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.crypto.group import Group, GroupElement
from repro.crypto.hashing import sha256
from repro.crypto.mac import mac_sign
from repro.crypto.schnorr import SigningKeyPair, schnorr_sign, schnorr_verify
from repro.errors import RegistrationError
from repro.ledger.bulletin_board import BulletinBoard
from repro.ledger.records import RegistrationRecord
from repro.peripherals.clock import Component, LatencyLedger
from repro.peripherals.hardware import HardwareProfile, hardware_profile
from repro.peripherals.scanner import CodeScanner
from repro.registration.materials import CheckInTicket, CheckOutTicket, PaperCredential


def check_out_ticket_message(record: RegistrationRecord) -> bytes:
    """The bytes the kiosk signed for this record's check-out ticket."""
    from repro.crypto.elgamal import ElGamalCiphertext

    return sha256(
        b"check-out-ticket",
        record.voter_id.encode(),
        ElGamalCiphertext(record.public_credential_c1, record.public_credential_c2).to_bytes(),
    )


def official_approval_message(record: RegistrationRecord) -> bytes:
    """The bytes the official signed when approving this record."""
    from repro.crypto.elgamal import ElGamalCiphertext

    return sha256(
        b"official-approval",
        record.voter_id.encode(),
        ElGamalCiphertext(record.public_credential_c1, record.public_credential_c2).to_bytes(),
        record.kiosk_signature.to_bytes(),
    )


@dataclass
class RegistrationOfficial:
    """A registration official with their OSD."""

    group: Group
    keypair: SigningKeyPair
    shared_mac_key: bytes
    board: BulletinBoard
    kiosk_public_keys: List[GroupElement]
    profile: HardwareProfile = field(default_factory=lambda: hardware_profile("H1"))
    latency: LatencyLedger = field(default_factory=LatencyLedger)
    issued_tickets: List[CheckInTicket] = field(default_factory=list)
    notifications: List[str] = field(default_factory=list)
    #: The sequence number the registration ledger gave the latest check-out.
    last_ledger_seq: int = -1

    def __post_init__(self) -> None:
        self._scanner = CodeScanner(profile=self.profile, ledger=self.latency)

    # Check-in -------------------------------------------------------------------

    def check_in(self, voter_id: str) -> CheckInTicket:
        """Verify eligibility and issue the check-in ticket (Fig. 8)."""
        with self.latency.phase("CheckIn"):
            with self.latency.measure(Component.CRYPTO, label="check-in", cpu_scale=self.profile.crypto_scale()):
                if not self.board.is_eligible(voter_id):
                    raise RegistrationError(f"voter {voter_id!r} is not on the electoral roll")
                tag = mac_sign(self.shared_mac_key, voter_id.encode(), length=16)
                ticket = CheckInTicket(voter_id=voter_id, mac_tag=tag)
            # Printing the barcode ticket.
            render_cpu = self.profile.print_cpu_seconds(3)
            self.latency.record(
                Component.QR_PRINT,
                wall_seconds=self.profile.print_seconds(3) + render_cpu,
                cpu_user_seconds=render_cpu,
                label="check-in ticket",
            )
        self.issued_tickets.append(ticket)
        return ticket

    # Check-out -------------------------------------------------------------------

    def check_out(self, credential: PaperCredential) -> RegistrationRecord:
        """Scan the presented credential and post the registration record (Fig. 10)."""
        with self.latency.phase("CheckOut"):
            qr = credential.visible_check_out_qr(self.group)
            scanned = self._scanner.scan(qr, label="check-out ticket")
            with self.latency.measure(Component.CRYPTO, label="check-out", cpu_scale=self.profile.crypto_scale()):
                ticket = CheckOutTicket.from_qr(scanned, self.group)
                record = self._verify_and_record(ticket)
        self._notify(ticket.voter_id)
        return record

    def check_out_ticket(self, ticket: CheckOutTicket) -> RegistrationRecord:
        """Check-out from an already-decoded ticket (used by the security games)."""
        with self.latency.phase("CheckOut"):
            with self.latency.measure(Component.CRYPTO, label="check-out", cpu_scale=self.profile.crypto_scale()):
                record = self._verify_and_record(ticket)
        self._notify(ticket.voter_id)
        return record

    def _verify_and_record(self, ticket: CheckOutTicket) -> RegistrationRecord:
        if ticket.kiosk_public_key not in self.kiosk_public_keys:
            raise RegistrationError("check-out ticket was not produced by an authorized kiosk")
        if not schnorr_verify(ticket.kiosk_public_key, ticket.signed_message(), ticket.kiosk_signature):
            raise RegistrationError("invalid kiosk signature on the check-out ticket")
        if not self.board.is_eligible(ticket.voter_id):
            raise RegistrationError(f"voter {ticket.voter_id!r} is not on the electoral roll")

        approval_message = sha256(
            b"official-approval",
            ticket.voter_id.encode(),
            ticket.public_credential.to_bytes(),
            ticket.kiosk_signature.to_bytes(),
        )
        official_signature = schnorr_sign(self.keypair, approval_message)
        record = RegistrationRecord(
            voter_id=ticket.voter_id,
            public_credential_c1=ticket.public_credential.c1,
            public_credential_c2=ticket.public_credential.c2,
            kiosk_public_key=ticket.kiosk_public_key,
            kiosk_signature=ticket.kiosk_signature,
            official_public_key=self.keypair.public,
            official_signature=official_signature,
        )
        self.last_ledger_seq = self.board.post_registration(record)
        return record

    def _notify(self, voter_id: str) -> None:
        """Notify the voter of the registration event (Appendix J)."""
        self.notifications.append(voter_id)

    # Auditing ---------------------------------------------------------------------

    @staticmethod
    def audit_record(record: RegistrationRecord, kiosk_public_keys: List[GroupElement]):
        """Audit one registration record; the report names the failing predicate.

        Three checks — kiosk authorization, kiosk signature, official
        signature — each reported with a locus like
        ``registration[voter-0042].kiosk-signature`` instead of collapsing
        to an opaque ``False``.
        """
        from repro.audit.api import AuditPlan, EagerVerifier
        from repro.audit.checks import registration_record_checks

        plan = AuditPlan(registration_record_checks(record, kiosk_public_keys))
        return EagerVerifier().run(plan)

    @staticmethod
    def verify_record(record: RegistrationRecord, kiosk_public_keys: List[GroupElement]) -> bool:
        """Public verification of a registration record (bool shim over audit)."""
        return RegistrationOfficial.audit_record(record, kiosk_public_keys).ok
