"""Ballot formation, signing and verification.

A Votegral ballot consists of:

* an exponential-ElGamal encryption of the chosen candidate index under the
  authority's collective public key;
* a disjunctive ("OR") Chaum–Pedersen proof that the ciphertext encrypts one
  of the valid candidate indices (ballot well-formedness), so a compromised
  client cannot smuggle, say, 2^64 votes for a candidate into a homomorphic
  aggregate or stall the tally with garbage;
* a Schnorr signature over the ciphertext by the credential key pair the
  ballot is cast with, plus a proof of knowledge of that key, which is what
  ties the ballot to a (real or fake) registration-issued credential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.crypto.chaum_pedersen import simulated_commit
from repro.crypto.dlog_proof import DlogProof, prove_dlog
from repro.crypto.elgamal import ElGamal, ElGamalCiphertext, hot_power
from repro.crypto.group import Group, GroupElement
from repro.crypto.hashing import scalar_bytes, sha256
from repro.crypto.schnorr import SchnorrSignature, SigningKeyPair, schnorr_sign
from repro.ledger.records import BallotRecord


@dataclass(frozen=True)
class BallotProof:
    """A disjunctive proof that the ballot encrypts one of ``num_options`` values.

    Standard OR-composition of Chaum–Pedersen proofs: for the real option the
    prover runs the honest protocol, for every other option it runs the
    simulator, and the per-option challenges must sum to the Fiat–Shamir
    challenge of the whole statement.
    """

    commitments_g: List[GroupElement]
    commitments_h: List[GroupElement]
    challenges: List[int]
    responses: List[int]

    def to_bytes(self) -> bytes:
        parts = [e.to_bytes() for e in self.commitments_g + self.commitments_h]
        parts += [scalar_bytes(c) for c in self.challenges]
        parts += [scalar_bytes(r) for r in self.responses]
        return sha256(b"ballot-proof", *parts)


@dataclass(frozen=True)
class Ballot:
    """A complete ballot ready to post on ``L_V``."""

    ciphertext: ElGamalCiphertext
    credential_public_key: GroupElement
    signature: SchnorrSignature
    wellformedness: BallotProof
    key_proof: DlogProof
    election_id: str = "default"

    def signed_message(self) -> bytes:
        return sha256(
            b"ballot",
            self.election_id.encode(),
            self.ciphertext.to_bytes(),
            self.credential_public_key.to_bytes(),
        )

    def to_record(self) -> BallotRecord:
        return BallotRecord(
            credential_public_key=self.credential_public_key,
            ciphertext_c1=self.ciphertext.c1,
            ciphertext_c2=self.ciphertext.c2,
            signature=self.signature,
            election_id=self.election_id,
        )


def _or_proof_challenge(
    group: Group,
    ciphertext: ElGamalCiphertext,
    public_key: GroupElement,
    commitments_g: Sequence[GroupElement],
    commitments_h: Sequence[GroupElement],
) -> int:
    return group.hash_to_scalar(
        b"ballot-or-proof",
        ciphertext.to_bytes(),
        public_key.to_bytes(),
        *[c.to_bytes() for c in commitments_g],
        *[c.to_bytes() for c in commitments_h],
    )


def prove_wellformedness(
    group: Group,
    public_key: GroupElement,
    ciphertext: ElGamalCiphertext,
    choice: int,
    randomness: int,
    num_options: int,
) -> BallotProof:
    """Prove that ``ciphertext`` encrypts ``g^m`` for some ``m`` in [0, num_options).

    ``ciphertext`` is ``encrypt_int(public_key, choice, randomness)``.  The
    prover therefore knows the discrete logs every branch is about, and the
    simulated branches too are powers of ``g`` and ``public_key`` only:
    ``3·(num_options − 1) + 2`` hot powers, none on a ciphertext part.
    """
    if not 0 <= choice < num_options:
        raise ValueError("choice outside the candidate range")
    order = group.order
    commitments_g: List[Optional[GroupElement]] = [None] * num_options
    commitments_h: List[Optional[GroupElement]] = [None] * num_options
    challenges: List[Optional[int]] = [None] * num_options
    responses: List[Optional[int]] = [None] * num_options

    # Simulated branches for every option except the real one.
    for option in range(num_options):
        if option == choice:
            continue
        challenge = group.random_scalar()
        response = group.random_scalar()
        # c1 = g^randomness and c2 / g^option = pk^randomness · g^(choice − option).
        commit = simulated_commit(group.generator, public_key, randomness, choice - option, challenge, response)
        commitments_g[option] = commit.commit_g
        commitments_h[option] = commit.commit_h
        challenges[option] = challenge
        responses[option] = response

    # Honest branch for the real choice.
    nonce = group.random_scalar()
    commitments_g[choice] = group.power(nonce)
    commitments_h[choice] = hot_power(public_key, nonce)

    total = _or_proof_challenge(group, ciphertext, public_key, commitments_g, commitments_h)
    used = sum(challenges[o] for o in range(num_options) if o != choice) % order
    challenges[choice] = (total - used) % order
    responses[choice] = (nonce - challenges[choice] * randomness) % order

    return BallotProof(
        commitments_g=list(commitments_g),
        commitments_h=list(commitments_h),
        challenges=list(challenges),
        responses=list(responses),
    )


def wellformedness_ok(
    group: Group,
    public_key: GroupElement,
    ciphertext: ElGamalCiphertext,
    proof: BallotProof,
    num_options: int,
) -> bool:
    """The reference well-formedness predicate (the audit ``wellformedness`` kind)."""
    if (
        len(proof.commitments_g) != num_options
        or len(proof.commitments_h) != num_options
        or len(proof.challenges) != num_options
        or len(proof.responses) != num_options
    ):
        return False
    total = _or_proof_challenge(group, ciphertext, public_key, proof.commitments_g, proof.commitments_h)
    if sum(proof.challenges) % group.order != total:
        return False
    for option in range(num_options):
        challenge = proof.challenges[option]
        response = proof.responses[option]
        target = ciphertext.c2 * group.encode_int(option).inverse()
        lhs_g = (group.generator ** response) * (ciphertext.c1 ** challenge)
        lhs_h = (public_key ** response) * (target ** challenge)
        if lhs_g != proof.commitments_g[option] or lhs_h != proof.commitments_h[option]:
            return False
    return True


def make_ballot(
    group: Group,
    authority_public_key: GroupElement,
    credential: SigningKeyPair,
    choice: int,
    num_options: int,
    election_id: str = "default",
) -> Ballot:
    """Form, prove and sign a ballot for ``choice``."""
    elgamal = ElGamal(group)
    randomness = group.random_scalar()
    ciphertext = elgamal.encrypt_int(authority_public_key, choice, randomness)
    wellformedness = prove_wellformedness(
        group, authority_public_key, ciphertext, choice, randomness, num_options
    )
    key_proof = prove_dlog(group.generator, credential.secret, context=b"ballot-credential-key")
    ballot = Ballot(
        ciphertext=ciphertext,
        credential_public_key=credential.public,
        signature=SchnorrSignature(group.identity, 0),  # placeholder replaced below
        wellformedness=wellformedness,
        key_proof=key_proof,
        election_id=election_id,
    )
    signature = schnorr_sign(credential, ballot.signed_message())
    return Ballot(
        ciphertext=ciphertext,
        credential_public_key=credential.public,
        signature=signature,
        wellformedness=wellformedness,
        key_proof=key_proof,
        election_id=election_id,
    )


def audit_ballot(
    group: Group,
    authority_public_key: GroupElement,
    ballot: Ballot,
    num_options: int,
    label: str = "ballot",
):
    """Audit one ballot; the report names which component failed.

    Four checks — Schnorr signature, credential-key binding, the dlog proof
    of key knowledge, and disjunctive well-formedness — each an independent
    :class:`~repro.audit.api.Check`, so batches of ballots fold their
    signatures and key proofs into RLC equations under the batched strategy.
    """
    from repro.audit.api import AuditPlan, EagerVerifier
    from repro.audit.checks import ballot_checks

    plan = AuditPlan(ballot_checks(group, authority_public_key, ballot, num_options, label=label))
    return EagerVerifier().run(plan)
