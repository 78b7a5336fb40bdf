"""Optional extensions to the base TRIP design (§4.5, Appendix C).

Three extensions are implemented here; all are optional and none is required
by the base protocol or the benchmarks:

* **Credential rotation** (Appendix C.2, "reducing the credential exposure
  window"): after activation the voter's device generates a fresh key pair
  and signs it with the kiosk-issued credential key.  The signed rotation
  record is published; from then on only ballots cast with the *device* key
  are tallied for that credential, so a thief who copied the paper receipt
  after activation can no longer vote with it, and credentials can be ported
  to a new device by rotating again.
* **In-booth delegation** (Appendix C.3, "resisting extreme coercion"): a
  voter who expects to be searched immediately after registration can ask the
  kiosk to delegate their vote to a well-known entity (e.g. a political
  party): the kiosk encrypts the *party's* public key into the public
  credential tag and the voter leaves the booth holding only fake
  credentials.  The party's ballot then counts once for each delegating
  voter; the voter must trust the kiosk, which the paper accepts as
  unavoidable for this extreme case.
* **Credential renewal** is the base design's re-registration path (a new
  registration record supersedes the old one); :func:`renew_credential` is a
  thin convenience wrapper over it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.crypto.elgamal import ElGamal
from repro.crypto.group import Group, GroupElement
from repro.crypto.hashing import sha256
from repro.crypto.schnorr import SigningKeyPair, schnorr_keygen, schnorr_sign
from repro.errors import ProtocolError, VerificationError
from repro.registration.kiosk import Kiosk, KioskSession
from repro.registration.materials import ActivatedCredential, CheckOutTicket
from repro.registration.protocol import RegistrationOutcome, RegistrationSession
from repro.registration.voter import Voter


# ---------------------------------------------------------------------------
# Appendix C.2 — credential rotation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotationRecord:
    """A signed statement transferring voting rights to a device-held key.

    ``old_public_key`` is the kiosk-issued credential key; ``new_public_key``
    is generated on the voter's device; ``signature`` is produced with the old
    key over both, so anyone can check the hand-over without learning whether
    the old key was real or fake (fake credentials rotate identically, which
    keeps coercion resistance intact).
    """

    old_public_key: GroupElement
    new_public_key: GroupElement
    signature: "object"

    def message(self) -> bytes:
        return sha256(b"credential-rotation", self.old_public_key.to_bytes(), self.new_public_key.to_bytes())


def rotate_credential(group: Group, credential: ActivatedCredential) -> tuple:
    """Generate a device key pair and the rotation record for ``credential``.

    Returns ``(new_keypair, record)``.  The caller publishes the record (e.g.
    on the ledger) and uses the new key pair for all subsequent ballots.
    """
    old_keypair = SigningKeyPair(secret=credential.secret_key, public=credential.public_key)
    new_keypair = schnorr_keygen(group)
    unsigned = RotationRecord(old_public_key=old_keypair.public, new_public_key=new_keypair.public, signature=None)
    return new_keypair, replace(unsigned, signature=schnorr_sign(old_keypair, unsigned.message()))


def audit_rotation(record: RotationRecord):
    """Audit a rotation record; the report names the offending record and predicate.

    The single check's locus embeds the rotating key (e.g.
    ``rotation[1f2e3d…].signature``), so a failed registration-extension
    audit points at the record rather than returning a bare ``False``.
    """
    from repro.audit.api import AuditPlan, EagerVerifier
    from repro.audit.checks import rotation_checks

    return EagerVerifier().run(AuditPlan(rotation_checks(record)))


class RotationRegistry:
    """The public table of credential rotations used by the tally.

    Maps the *latest* device key back to the kiosk-issued key it descends
    from, following chains of rotations (device-to-device porting).  The
    tally resolves each ballot's credential key through this registry before
    tag matching, so rotated credentials keep exactly one counting vote.
    """

    def __init__(self) -> None:
        self._parent: Dict[bytes, RotationRecord] = {}

    def publish(self, record: RotationRecord) -> None:
        if not audit_rotation(record).ok:
            raise VerificationError("rotation record signature invalid")
        key = record.new_public_key.to_bytes()
        if key in self._parent:
            raise ProtocolError("this device key was already registered by a rotation")
        self._parent[key] = record

    def records(self) -> List[RotationRecord]:
        return list(self._parent.values())

    def resolve(self, public_key: GroupElement, max_depth: int = 16) -> GroupElement:
        """Follow rotation records back to the original kiosk-issued key."""
        current = public_key
        for _ in range(max_depth):
            record = self._parent.get(current.to_bytes())
            if record is None:
                return current
            current = record.old_public_key
        raise ProtocolError("rotation chain too deep (cycle?)")

    def is_retired(self, public_key: GroupElement) -> bool:
        """True if ``public_key`` was rotated away from (its ballots no longer count)."""
        return any(
            record.old_public_key == public_key for record in self._parent.values()
        )


# ---------------------------------------------------------------------------
# Appendix C.3 — in-booth delegation under extreme coercion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DelegationReceipt:
    """What the voter leaves the booth with after delegating: nothing sensitive.

    The check-out ticket is still needed so the official can complete the
    visit; the delegate's identity is *not* recorded on it.
    """

    check_out_ticket: CheckOutTicket
    delegate_label: str


def delegate_in_booth(
    kiosk: Kiosk,
    session: KioskSession,
    delegate_public_key: GroupElement,
    delegate_label: str = "",
) -> DelegationReceipt:
    """Delegate the voter's counting vote to ``delegate_public_key`` (Appendix C.3).

    The kiosk encrypts the delegate's public key as this voter's public
    credential tag, so the delegate's own ballot is counted once on behalf of
    the voter.  The voter then creates only fake credentials, and a coercer
    who searches them immediately after registration finds nothing real.
    The kiosk never needs the delegate's private key.
    """
    if session.real_credential_issued:
        raise ProtocolError("cannot delegate after the real credential was issued")
    elgamal = ElGamal(kiosk.group)
    public_credential = elgamal.encrypt(kiosk.authority_public_key, delegate_public_key)
    check_out = CheckOutTicket.signed(kiosk.keypair, session.voter_id, public_credential)
    session.public_credential = public_credential
    session.check_out_ticket = check_out
    # The voter holds no real credential at all; mark the session accordingly.
    session.real_secret = None
    session.real_public = delegate_public_key
    return DelegationReceipt(check_out_ticket=check_out, delegate_label=delegate_label)


# ---------------------------------------------------------------------------
# Credential renewal (re-registration)
# ---------------------------------------------------------------------------


def renew_credential(
    session: RegistrationSession,
    voter_id: str,
    num_fake_credentials: int = 1,
) -> RegistrationOutcome:
    """Re-register ``voter_id``: the new record supersedes all previous ones.

    Used when credentials expire, a device is lost, or an impersonation
    notification arrives (Appendix J): ballots cast with the superseded
    credential no longer match any active registration tag and are discarded
    by the tally.
    """
    return session.register(Voter(voter_id, num_fake_credentials=num_fake_credentials))
