"""The voter supporting device (VSD): credential activation and monitoring.

Activation (Fig. 11) scans the three QR codes visible in the activate state
and re-verifies everything the voter could not check in the booth:

1. the kiosk's signatures on the commit and response codes;
2. the envelope printer's signature on the challenge;
3. the Chaum–Pedersen verification equations (``Y1 = g^r·C1^e``,
   ``Y2 = A^r·X^e`` with ``X = C2/c_pk``);
4. that the public credential on the receipt matches the voter's active
   registration record on the ledger, produced by the same kiosk;
5. that the envelope challenge has not been used before (duplicate-envelope
   detection), publishing it on ``L_E`` afterwards.

Checks 1–3 are an audit plan (:func:`repro.audit.checks.
registration_activation_checks`) that the device judges item by item with
the audit's own predicates, stopping at the first failure, which
:attr:`ActivationReport.failed_check` names.  No check decodes what it
verifies: each signature's ``R`` and the transcript's ``Y1``, ``Y2`` stay
the bytes the QR codes carry, and each check recomputes its element and
compares encodings.  That is also why nothing here folds: a fold needs
the commitments as elements, and decoding them is the cost this avoids.

The VSD also watches the registration ledger for events in its voter's
name — the impersonation defence of Appendix J.  It polls: what the ledger
holds for the voter now, against what it held when the device came online.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro import telemetry
from repro.crypto.chaum_pedersen import (
    ChaumPedersenStatement,
    ChaumPedersenTranscript,
    chaum_pedersen_commitment,
)
from repro.crypto.group import Group, GroupElement
from repro.errors import LedgerError, VerificationError
from repro.ledger.bulletin_board import BulletinBoard
from repro.ledger.records import EnvelopeCommitmentRecord, EnvelopeUsageRecord, RegistrationRecord
from repro.registration.materials import (
    ActivatedCredential,
    CommitCode,
    Envelope,
    PaperCredential,
    ResponseCode,
)
from repro.registration.qr import scan


#: What :attr:`ActivationReport.failed_check` reads for each check of
#: :func:`repro.audit.checks.registration_activation_checks`, by its name.
_FAILED_CHECKS = {
    "activation.kiosk-authorized": "kiosk key not authorized",
    "activation.commit-signature": "kiosk signature on commit code invalid",
    "activation.response-signature": "kiosk signature on response code invalid",
    "activation.printer-signature": "printer signature on envelope invalid",
    "activation.envelope-committed": "envelope challenge not committed on the ledger",
    "activation.zkp": "ZKP transcript failed verification",
}


@dataclass(frozen=True)
class ActivationReport:
    """The outcome of an activation attempt, with the specific check that failed."""

    success: bool
    failed_check: str = ""
    credential: Optional[ActivatedCredential] = None


@dataclass
class VoterSupportingDevice:
    """A voter's (or a trusted friend's) device."""

    group: Group
    board: BulletinBoard
    voter_id: str
    kiosk_public_keys: List[GroupElement]
    authority_public_key: GroupElement
    credentials: List[ActivatedCredential] = field(default_factory=list)

    def __post_init__(self) -> None:
        # The voter typically activates at home, after check-out: the events
        # already on the ledger fold into one catch-up notification.
        self._registrations_seen = len(self.board.history(RegistrationRecord, self.voter_id))

    # Ledger monitoring ------------------------------------------------------------

    @property
    def registration_notifications(self) -> List[str]:
        """One catch-up for the events that predate the device, then one per later event."""
        seen = self._registrations_seen
        notifications = [f"registration event recorded for {self.voter_id} (catch-up)"] if seen else []
        for index in range(seen, len(self.board.history(RegistrationRecord, self.voter_id))):
            notifications.append(f"registration event recorded for {self.voter_id} (record {index})")
        return notifications

    @property
    def has_unexpected_registration(self) -> bool:
        """True once the device has seen a registration event beyond the one it took part in."""
        return len(self.registration_notifications) > 1

    # Activation ----------------------------------------------------------------------

    def activate(self, credential: PaperCredential) -> ActivationReport:
        """Scan and verify a paper credential in the activate state (Fig. 11)."""
        with telemetry.span("registration.phase", phase="Activation"):
            qrs = credential.lift_for_activation().visible_activation_qrs(self.group)
            scanned = [scan(qr) for qr in qrs]
            commit_code = CommitCode.from_qr(scanned[0], self.group)
            response_code = ResponseCode.from_qr(scanned[1], self.group)
            envelope = Envelope.from_qr(scanned[2], self.group)
            report = self._verify(credential, commit_code, response_code, envelope)
        if report.success and report.credential is not None:
            self.credentials.append(report.credential)
        return report

    def _verify(
        self,
        credential: PaperCredential,
        commit_code: CommitCode,
        response_code: ResponseCode,
        envelope: Envelope,
    ) -> ActivationReport:
        # Imported here: ``repro.audit.checks`` imports this package.
        from repro.audit.checks import registration_activation_checks
        from repro.audit.kinds import verdict_one

        group = self.group
        credential_public = group.power(response_code.credential_secret)
        statement = ChaumPedersenStatement(
            base_g=group.generator,
            base_h=self.authority_public_key,
            value_g=commit_code.public_credential.c1,
            value_h=commit_code.public_credential.c2 * credential_public.inverse(),
        )
        # The commit the challenge and response imply, as elements; the plan
        # compares it with the printed one, and the device keeps it.
        transcript = ChaumPedersenTranscript(
            statement=statement,
            commit=chaum_pedersen_commitment(statement, envelope.challenge, response_code.zkp_response),
            challenge=envelope.challenge,
            response=response_code.zkp_response,
        )

        # (1)-(3) Receipt integrity (kiosk signatures on the commit and
        # response codes), envelope integrity (printer signature on H(e), which
        # the ledger holds) and the ZKP transcript, as one audit plan.
        checks = registration_activation_checks(
            commit_code,
            response_code,
            envelope,
            credential_public,
            transcript,
            self.kiosk_public_keys,
            self.board.get(EnvelopeCommitmentRecord, envelope.challenge_hash),
        )
        for check in checks:
            if not verdict_one(check):
                return ActivationReport(False, _FAILED_CHECKS[check.name])

        # (4) Ledger cross-check: active registration record matches.
        record = self.board.get(RegistrationRecord, commit_code.voter_id)
        if record is None:
            return ActivationReport(False, "no registration record on the ledger")
        if (
            record.public_credential_c1 != commit_code.public_credential.c1
            or record.public_credential_c2 != commit_code.public_credential.c2
        ):
            return ActivationReport(False, "public credential does not match the ledger record")
        if record.kiosk_public_key != response_code.kiosk_public_key:
            return ActivationReport(False, "kiosk key does not match the ledger record")
        if commit_code.voter_id != self.voter_id:
            return ActivationReport(False, "credential was issued to a different voter identity")

        # (5) Challenge freshness: publish the used challenge, detecting duplicates.
        try:
            self.board.append(
                EnvelopeUsageRecord(challenge=envelope.challenge, challenge_hash=envelope.challenge_hash)
            )
        except LedgerError:
            return ActivationReport(False, "envelope challenge already used (possible duplicate envelopes)")

        activated = ActivatedCredential(
            voter_id=commit_code.voter_id,
            secret_key=response_code.credential_secret,
            public_key=credential_public,
            public_credential=commit_code.public_credential,
            transcript=transcript,
            kiosk_public_key=response_code.kiosk_public_key,
            is_real=credential.is_real,
        )
        return ActivationReport(True, credential=activated)

    # Convenience --------------------------------------------------------------------

    def real_credentials(self) -> List[ActivatedCredential]:
        return [c for c in self.credentials if c.is_real]

    def activate_or_raise(self, credential: PaperCredential) -> ActivatedCredential:
        report = self.activate(credential)
        if not report.success or report.credential is None:
            raise VerificationError(f"activation failed: {report.failed_check}")
        return report.credential
