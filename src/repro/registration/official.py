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

from repro import telemetry
from repro.crypto.elgamal import ElGamalCiphertext
from repro.crypto.group import Group, GroupElement
from repro.crypto.hashing import sha256
from repro.crypto.mac import mac_sign
from repro.crypto.schnorr import SchnorrSignature, SigningKeyPair, schnorr_commitment, schnorr_sign
from repro.errors import RegistrationError
from repro.ledger.bulletin_board import BulletinBoard
from repro.ledger.records import RegistrationRecord, RollEntry
from repro.registration.materials import CheckInTicket, CheckOutTicket, PaperCredential
from repro.registration.qr import print_codes, scan


def official_approval_message(
    voter_id: str, public_credential: ElGamalCiphertext, kiosk_signature: SchnorrSignature
) -> bytes:
    """The message the official signs when approving a check-out: ``V_id ∥ c_pc ∥ σ_kot``."""
    return sha256(b"official-approval", voter_id.encode(), public_credential.to_bytes(), kiosk_signature.to_bytes())


@dataclass
class RegistrationOfficial:
    """A registration official with their OSD."""

    group: Group
    keypair: SigningKeyPair
    shared_mac_key: bytes
    board: BulletinBoard
    kiosk_public_keys: List[GroupElement]
    notifications: List[str] = field(default_factory=list)
    #: The sequence number the registration ledger gave the latest check-out.
    last_ledger_seq: int = -1

    # Check-in -------------------------------------------------------------------

    def check_in(self, voter_id: str) -> CheckInTicket:
        """Verify eligibility and issue the check-in ticket (Fig. 8)."""
        with telemetry.span("registration.phase", phase="CheckIn"):
            if self.board.get(RollEntry, voter_id) is None:
                raise RegistrationError(f"voter {voter_id!r} is not on the electoral roll")
            tag = mac_sign(self.shared_mac_key, voter_id.encode(), length=16)
            ticket = CheckInTicket(voter_id=voter_id, mac_tag=tag)
            print_codes(ticket.to_barcode(), text_lines=1)
        return ticket

    # Check-out -------------------------------------------------------------------

    def check_out(self, credential: PaperCredential) -> RegistrationRecord:
        """Scan the presented credential and post the registration record (Fig. 10)."""
        with telemetry.span("registration.phase", phase="CheckOut"):
            ticket = CheckOutTicket.from_qr(scan(credential.visible_check_out_qr(self.group)), self.group)
            record = self._verify_and_record(ticket)
        self._notify(ticket.voter_id)
        return record

    def check_out_ticket(self, ticket: CheckOutTicket) -> RegistrationRecord:
        """Check-out from an already-decoded ticket (used by the security games)."""
        with telemetry.span("registration.phase", phase="CheckOut"):
            record = self._verify_and_record(ticket)
        self._notify(ticket.voter_id)
        return record

    def _verify_and_record(self, ticket: CheckOutTicket) -> RegistrationRecord:
        if ticket.kiosk_public_key not in self.kiosk_public_keys:
            raise RegistrationError("check-out ticket was not produced by an authorized kiosk")
        # Verified by recomputation, and the recomputed R' (same bytes) is
        # what the record carries: the ledger holds elements, never encodings.
        signature = ticket.kiosk_signature
        commitment = schnorr_commitment(ticket.kiosk_public_key, ticket.signed_message(), signature)
        if commitment.to_bytes() != signature.commitment.to_bytes():
            raise RegistrationError("invalid kiosk signature on the check-out ticket")
        kiosk_signature = SchnorrSignature(commitment=commitment, response=signature.response)
        if self.board.get(RollEntry, ticket.voter_id) is None:
            raise RegistrationError(f"voter {ticket.voter_id!r} is not on the electoral roll")

        official_signature = schnorr_sign(
            self.keypair, official_approval_message(ticket.voter_id, ticket.public_credential, kiosk_signature)
        )
        record = RegistrationRecord(
            voter_id=ticket.voter_id,
            public_credential_c1=ticket.public_credential.c1,
            public_credential_c2=ticket.public_credential.c2,
            kiosk_public_key=ticket.kiosk_public_key,
            kiosk_signature=kiosk_signature,
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
