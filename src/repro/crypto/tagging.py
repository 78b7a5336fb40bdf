"""Distributed deterministic tagging (linear-time credential filtering).

Votegral avoids Civitas' quadratic PET-based filtering by applying a
*deterministic blinding tag* to both sides of the match (§4.2, §7.4, and the
Weber-et-al. linear-work construction the paper cites):

* every ballot is submitted under a credential public key ``K`` (real or
  fake) — the tally service blinds it to ``K^z``;
* every active registration record carries the public credential tag
  ``c_pc = Enc_A(K_real)`` — the tally service exponentiates the ciphertext to
  obtain ``Enc_A(K_real^z)`` and then threshold-decrypts it to ``K_real^z``.

The blinding exponent ``z`` is the product of per-member secrets ``z_i``, so
no single member can link a blinded tag back to a credential, yet the same
credential always maps to the same tag — matching is a hash join, linear in
the number of ballots.  Every member's exponentiation step ships with a
Chaum–Pedersen proof of consistency so the whole filtering step is publicly
verifiable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.crypto.chaum_pedersen import (
    ChaumPedersenCommit,
    ChaumPedersenProver,
    ChaumPedersenStatement,
    ChaumPedersenTranscript,
    chaum_pedersen_verify,
    fiat_shamir_challenge,
    fiat_shamir_prove,
)
from repro.crypto.dkg import DistributedKeyGeneration
from repro.crypto.elgamal import ElGamalCiphertext
from repro.crypto.group import Group, GroupElement
from repro.errors import VerificationError

#: Fiat–Shamir domain tags for the two tagging-proof families.
TAG_CONTEXT = b"deterministic-tag"
CIPHERTEXT_TAG_CONTEXT = b"deterministic-tag-ciphertext"

#: Entries one member's step takes in :meth:`TaggingAuthority.blinding_material`.
_STEP_FIELDS = 10


@dataclass(frozen=True)
class TaggingStep:
    """One member's exponentiation step with its correctness proof.

    The proof shows the member used the same secret exponent it committed to
    (``commitment = g^{z_i}``) when transforming ``before`` into ``after``.
    """

    member_index: int
    before: GroupElement
    after: GroupElement
    commitment: GroupElement
    proof: ChaumPedersenTranscript


@dataclass(frozen=True)
class BlindedTag:
    """A fully blinded tag ``value = m^{z_1·…·z_n}`` plus the per-member steps."""

    value: GroupElement
    steps: List[TaggingStep]

    def key(self) -> bytes:
        """A canonical byte key for hash-join matching."""
        return self.value.to_bytes()


@dataclass
class TaggingAuthority:
    """The per-member tagging secrets and their public commitments.

    A fresh tagging key must be drawn for every tally run; reusing the
    exponent across elections would let observers link ballots across runs.
    """

    group: Group
    secrets: List[int]
    commitments: List[GroupElement] = field(default_factory=list)

    @classmethod
    def create(cls, group: Group, num_members: int) -> "TaggingAuthority":
        secrets = [group.random_scalar() for _ in range(num_members)]
        commitments = [group.power(z) for z in secrets]
        return cls(group=group, secrets=secrets, commitments=commitments)

    @property
    def num_members(self) -> int:
        return len(self.secrets)

    # Blinding plain group elements (ballot credential keys) -------------------

    def blind_element(self, element: GroupElement) -> BlindedTag:
        """Blind a public group element through every member in turn."""
        current = element
        steps: List[TaggingStep] = []
        for index, (secret, commitment) in enumerate(zip(self.secrets, self.commitments), start=1):
            after = current ** secret
            statement = ChaumPedersenStatement(
                base_g=current,
                base_h=self.group.generator,
                value_g=after,
                value_h=commitment,
            )
            proof = fiat_shamir_prove(statement, secret, context=TAG_CONTEXT)
            steps.append(TaggingStep(index, current, after, commitment, proof))
            current = after
        return BlindedTag(value=current, steps=steps)

    # Blinding ciphertexts (registration credential tags) ----------------------

    def blind_ciphertext(self, ciphertext: ElGamalCiphertext) -> ElGamalCiphertext:
        """Raise a ciphertext to the collective tagging exponent.

        ``Enc(m)^z = Enc(m^z)``, so the subsequent threshold decryption reveals
        only the blinded tag, never the raw credential key.
        """
        current = ciphertext
        for secret in self.secrets:
            current = current.exponentiate(secret)
        return current

    def blinding_material(self, ciphertext: ElGamalCiphertext) -> Tuple[ElGamalCiphertext, tuple]:
        """Blind ``ciphertext`` as :meth:`blind_ciphertext` does, proving every member's step.

        Per member, two Chaum–Pedersen transcripts show that *both* ciphertext
        components were raised to the same exponent the member committed to
        (``commitment = g^{z_i}``) — this is the transcript the paper's
        "publicly verifiable filtering" claim needs for the ciphertext side of
        the tag join, published as audit evidence by the tally when
        ``collect_evidence`` is on.  Returned are the blinded ciphertext and
        what the prover adds to the statement, flat — per member the blinded
        pair, then per proof its commit pair, challenge and response (ten
        entries) — so a worker ships nothing its caller holds;
        :meth:`steps_from_material` rebuilds the steps.

        Per member each ciphertext part is raised *once* for both of its
        exponents — the member's secret and that part's proof nonce come off
        one :meth:`~repro.crypto.group.Group.shared_base_powers` ladder —
        and the prover's two ``g**nonce`` come off the generator table: no
        plain exponentiation where the planner takes the ladder (the budget
        is in ``docs/performance.md``, "2b. Shared-base powers").  Nonces
        are drawn c1's first, then c2's, member by member, as
        :func:`~repro.crypto.chaum_pedersen.fiat_shamir_prove` would draw
        them, and the transcripts are that function's.  The tally runs this
        *instead of* :meth:`blind_ciphertext`, never after it.
        """
        group = self.group
        generator = group.generator
        current = ciphertext
        fields: list = []
        for secret, commitment in zip(self.secrets, self.commitments):
            parts: list = []
            proofs: list = []
            for before_part in (current.c1, current.c2):
                nonce = group.random_scalar()
                after_part, commit_g = group.shared_base_powers(before_part, (secret, nonce))
                prover = ChaumPedersenProver(
                    ChaumPedersenStatement(before_part, generator, after_part, commitment), secret
                )
                commit = prover.commit(nonce, commit_g)
                proof = prover.respond(fiat_shamir_challenge(prover.statement, commit, CIPHERTEXT_TAG_CONTEXT))
                parts.append(after_part)
                proofs += (commit.commit_g, commit.commit_h, proof.challenge, proof.response)
            fields += (*parts, *proofs)
            current = ElGamalCiphertext(*parts)
        return current, tuple(fields)

    def steps_from_material(
        self, ciphertext: ElGamalCiphertext, material: Sequence
    ) -> List["CiphertextTaggingStep"]:
        """The publishable steps behind one :meth:`blinding_material` result for ``ciphertext``."""
        generator = self.group.generator
        current = ciphertext
        steps: List[CiphertextTaggingStep] = []
        for index, commitment in enumerate(self.commitments, start=1):
            fields = material[_STEP_FIELDS * (index - 1) : _STEP_FIELDS * index]
            after = ElGamalCiphertext(fields[0], fields[1])
            proofs = [
                ChaumPedersenTranscript(
                    ChaumPedersenStatement(before_part, generator, after_part, commitment),
                    ChaumPedersenCommit(*fields[at : at + 2]),
                    *fields[at + 2 : at + 4],
                )
                for before_part, after_part, at in ((current.c1, after.c1, 2), (current.c2, after.c2, 6))
            ]
            steps.append(CiphertextTaggingStep(index, current, after, commitment, proofs[0], proofs[1]))
            current = after
        return steps

    def blind_ciphertext_with_proof(
        self, ciphertext: ElGamalCiphertext
    ) -> Tuple[ElGamalCiphertext, List["CiphertextTaggingStep"]]:
        """Like :meth:`blind_ciphertext`, but each member's step ships proofs (bit-identical output)."""
        blinded, material = self.blinding_material(ciphertext)
        return blinded, self.steps_from_material(ciphertext, material)

    def blind_and_decrypt(
        self, dkg: DistributedKeyGeneration, ciphertext: ElGamalCiphertext
    ) -> GroupElement:
        """Blind a registration tag ciphertext and threshold-decrypt it."""
        return dkg.decrypt(self.blind_ciphertext(ciphertext), verify=False)


@dataclass(frozen=True)
class CiphertextTaggingStep:
    """One member's ciphertext exponentiation step with its two proofs.

    ``proof_c1``/``proof_c2`` are Chaum–Pedersen transcripts over the two
    ciphertext components against the member's public commitment ``g^{z_i}``.
    """

    member_index: int
    before: ElGamalCiphertext
    after: ElGamalCiphertext
    commitment: GroupElement
    proof_c1: ChaumPedersenTranscript
    proof_c2: ChaumPedersenTranscript


def _step_structure_ok(
    statement: ChaumPedersenStatement,
    before: GroupElement,
    after: GroupElement,
    commitment: GroupElement,
    member_index: int,
    commitments: Optional[Sequence[GroupElement]],
) -> bool:
    """The non-cryptographic part of one tagging-step check: linkage + bases."""
    if not (statement.base_g == before and statement.value_g == after and statement.value_h == commitment):
        return False
    if commitments is not None and commitment != commitments[member_index - 1]:
        return False
    return True


def tag_chain_transcripts(
    tag: BlindedTag,
    original: GroupElement,
    commitments: Optional[Sequence[GroupElement]] = None,
) -> Optional[List[ChaumPedersenTranscript]]:
    """Structural walk of a tagging chain, separating structure from crypto.

    Returns the per-step Chaum–Pedersen transcripts (with their Fiat–Shamir
    challenges already confirmed against the hash) iff every structural check
    passes — step linkage, statement bases, commitment bindings, chain
    endpoint — otherwise ``None``.  The remaining work is exactly the two
    group equations per transcript, which the eager verifier checks
    one-by-one and :func:`repro.runtime.batch.batch_chaum_pedersen_verify`
    folds into one random-linear-combination product for whole batches of
    tag chains.
    """
    current = original
    transcripts: List[ChaumPedersenTranscript] = []
    for step in tag.steps:
        if step.before != current:
            return None
        if not _step_structure_ok(
            step.proof.statement, step.before, step.after, step.commitment, step.member_index, commitments
        ):
            return None
        expected = fiat_shamir_challenge(step.proof.statement, step.proof.commit, TAG_CONTEXT)
        if step.proof.challenge != expected:
            return None
        transcripts.append(step.proof)
        current = step.after
    if current != tag.value:
        return None
    return transcripts


def verify_blinded_tag(tag: BlindedTag, original: GroupElement, commitments: Optional[List[GroupElement]] = None) -> bool:
    """Publicly verify the chain of tagging steps from ``original`` to ``tag.value``.

    The reference (one-by-one) predicate behind the audit layer's
    ``tag-chain`` check kind; batches of chains fold their transcripts into
    the RLC batch verifier instead (see :mod:`repro.audit.kinds`).
    """
    transcripts = tag_chain_transcripts(tag, original, commitments)
    if transcripts is None:
        return False
    return all(chaum_pedersen_verify(transcript) for transcript in transcripts)


def ciphertext_tag_chain_transcripts(
    steps: Sequence[CiphertextTaggingStep],
    original: ElGamalCiphertext,
    final: ElGamalCiphertext,
    commitments: Optional[Sequence[GroupElement]] = None,
) -> Optional[List[ChaumPedersenTranscript]]:
    """Structural walk of a ciphertext tagging chain (two transcripts per step).

    Same contract as :func:`tag_chain_transcripts`: transcripts with
    confirmed challenges on structural success, ``None`` on any structural
    failure.
    """
    current = original
    transcripts: List[ChaumPedersenTranscript] = []
    for step in steps:
        if step.before != current:
            return None
        for proof, before_part, after_part in (
            (step.proof_c1, current.c1, step.after.c1),
            (step.proof_c2, current.c2, step.after.c2),
        ):
            if not _step_structure_ok(
                proof.statement, before_part, after_part, step.commitment, step.member_index, commitments
            ):
                return None
            expected = fiat_shamir_challenge(proof.statement, proof.commit, CIPHERTEXT_TAG_CONTEXT)
            if proof.challenge != expected:
                return None
            transcripts.append(proof)
        current = step.after
    if current != final:
        return None
    return transcripts


def verify_ciphertext_tag_chain(
    steps: Sequence[CiphertextTaggingStep],
    original: ElGamalCiphertext,
    final: ElGamalCiphertext,
    commitments: Optional[Sequence[GroupElement]] = None,
) -> bool:
    """Reference verification of a published ciphertext tagging chain."""
    transcripts = ciphertext_tag_chain_transcripts(steps, original, final, commitments)
    if transcripts is None:
        return False
    return all(chaum_pedersen_verify(transcript) for transcript in transcripts)


def assert_valid_tag(tag: BlindedTag, original: GroupElement, commitments: Optional[List[GroupElement]] = None) -> None:
    if not verify_blinded_tag(tag, original, commitments):
        raise VerificationError("deterministic tagging chain failed verification")
