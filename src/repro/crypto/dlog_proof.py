"""Non-interactive Schnorr proofs of knowledge of a discrete logarithm.

Used wherever a party must show it knows the secret behind a public value
without revealing it: ballot submitters prove knowledge of the credential
secret key they sign with, Civitas voters prove knowledge of their credential
share, and mix servers prove knowledge of re-encryption factors in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.elgamal import hot_power
from repro.crypto.group import Group, GroupElement
from repro.crypto.hashing import scalar_bytes


@dataclass(frozen=True)
class DlogProof:
    """A Fiat–Shamir Schnorr proof of knowledge of ``x`` with ``y = base^x``."""

    base: GroupElement
    value: GroupElement
    commitment: GroupElement
    response: int

    def to_bytes(self) -> bytes:
        return (
            self.base.to_bytes()
            + self.value.to_bytes()
            + self.commitment.to_bytes()
            + scalar_bytes(self.response)
        )


def _challenge(group: Group, proof_base: GroupElement, value: GroupElement, commitment: GroupElement, context: bytes) -> int:
    return group.hash_to_scalar(
        b"dlog-proof",
        context,
        proof_base.to_bytes(),
        value.to_bytes(),
        commitment.to_bytes(),
    )


def prove_dlog(
    base: GroupElement,
    witness: int,
    context: bytes = b"",
    nonce: Optional[int] = None,
) -> DlogProof:
    """Prove knowledge of ``witness`` such that ``value = base^witness``."""
    group = base.group
    value = hot_power(base, witness)
    k = nonce if nonce is not None else group.random_scalar()
    commitment = hot_power(base, k)
    challenge = _challenge(group, base, value, commitment, context)
    response = (k + challenge * witness) % group.order
    return DlogProof(base=base, value=value, commitment=commitment, response=response)


def dlog_challenge(proof: DlogProof, context: bytes = b"") -> int:
    """The Fiat–Shamir challenge a proof's transcript commits to.

    Public so batch verifiers can recompute challenges structurally and fold
    the remaining group equations into one random-linear-combination check.
    """
    return _challenge(proof.base.group, proof.base, proof.value, proof.commitment, context)


def verify_dlog(proof: DlogProof, context: bytes = b"") -> bool:
    """Verify a :class:`DlogProof`."""
    challenge = dlog_challenge(proof, context)
    lhs = proof.base ** proof.response
    rhs = proof.commitment * (proof.value ** challenge)
    return lhs == rhs
