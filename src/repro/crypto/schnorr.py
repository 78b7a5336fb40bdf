"""Schnorr signatures over an abstract prime-order group.

The paper's prototype uses Schnorr signatures with SHA-256 on edwards25519
(§6).  Every TRIP credential is a Schnorr signing key pair; kiosks, officials
and envelope printers also hold Schnorr key pairs and sign the artefacts they
produce (commit codes, check-out tickets, envelope challenges).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.crypto.elgamal import key_power
from repro.crypto.group import ElementEncoding, Group, GroupElement
from repro.crypto.hashing import scalar_bytes


@dataclass(frozen=True)
class SigningKeyPair:
    """A Schnorr signing key pair ``(sk, pk = g^sk)``."""

    secret: int
    public: GroupElement

    @property
    def group(self) -> Group:
        return self.public.group


@dataclass(frozen=True)
class SchnorrSignature:
    """A Schnorr signature ``(R, s)`` with ``s = k + H(R, pk, m)·sk``.

    A signature read off a QR code keeps ``R`` as its bytes
    (:class:`~repro.crypto.group.ElementEncoding`): :func:`schnorr_verify`
    only ever compares them.
    """

    commitment: Union[GroupElement, ElementEncoding]
    response: int

    def to_bytes(self) -> bytes:
        return self.commitment.to_bytes() + scalar_bytes(self.response)


def schnorr_keygen(group: Group, secret: Optional[int] = None) -> SigningKeyPair:
    """Generate a Schnorr key pair over ``group``."""
    sk = secret if secret is not None else group.random_scalar()
    return SigningKeyPair(secret=sk, public=group.power(sk))


def public_key_from_secret(group: Group, secret: int) -> GroupElement:
    """Recompute the public key from a secret key (``Sig.PubKey`` in the paper)."""
    return group.power(secret)


def schnorr_challenge(
    group: Group, commitment: Union[GroupElement, ElementEncoding], public: GroupElement, message: bytes
) -> int:
    """The Fiat–Shamir challenge ``H(R, pk, m)`` (shared with batch verification)."""
    return group.hash_to_scalar(
        b"schnorr-signature",
        commitment.to_bytes(),
        public.to_bytes(),
        message,
    )


_challenge = schnorr_challenge


def schnorr_sign(keypair: SigningKeyPair, message: bytes, nonce: Optional[int] = None) -> SchnorrSignature:
    """Sign ``message`` with the key pair.

    A fresh random nonce is drawn unless one is supplied (deterministic nonces
    are only used in tests; reusing a nonce leaks the secret key).
    """
    group = keypair.group
    k = nonce if nonce is not None else group.random_scalar()
    commitment = group.power(k)
    challenge = _challenge(group, commitment, keypair.public, message)
    response = (k + challenge * keypair.secret) % group.order
    return SchnorrSignature(commitment=commitment, response=response)


def schnorr_commitment(public: GroupElement, message: bytes, signature: SchnorrSignature) -> GroupElement:
    """``R' = g^s · (pk^e)⁻¹``: the commitment the response and challenge imply.

    ``g`` comes off its table; ``pk`` goes through
    :func:`~repro.crypto.elgamal.key_power`, so a kiosk, printer or official
    key that keeps signing earns a table of its own.  The power is inverted
    rather than taken to ``q − e``: the two agree on subgroup members, and
    only the inverse keeps ``R' = R ⇔ g^s = R·pk^e`` for a mod-p key outside
    the subgroup, which that decoder lets in (ROADMAP item 2).
    """
    group = public.group
    challenge = _challenge(group, signature.commitment, public, message)
    return group.power(signature.response) * key_power(public, challenge).inverse()


def schnorr_verify(public: GroupElement, message: bytes, signature: SchnorrSignature) -> bool:
    """Verify a Schnorr signature; returns ``True`` iff it is valid.

    Recompute ``R'`` (:func:`schnorr_commitment`) and compare its encoding
    with the signature's ``R``, as libsodium and ed25519-dalek do.  ``R'`` is
    a subgroup element, so the bytes match only if they are the canonical
    encoding of one: no decode of ``R`` is needed, and none happens.
    """
    recomputed = schnorr_commitment(public, message, signature)
    return recomputed.to_bytes() == signature.commitment.to_bytes()
