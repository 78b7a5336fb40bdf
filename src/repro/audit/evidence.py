"""Self-describing audit evidence published alongside a tally result.

The paper's universal-verifiability story needs every tally-side secret
operation to leave a publicly checkable transcript.  The mix cascades always
publish theirs (shadow-mix proofs); this module adds the two that used to be
verified only *inside* the pipeline and then thrown away:

* :class:`DecryptionTranscript` — one threshold decryption: the ciphertext,
  every member's public share and :class:`~repro.crypto.elgamal.
  DecryptionShare` (with its Chaum–Pedersen proof).  Anyone can recombine
  the shares and re-derive the plaintext.
* :class:`TagChainEvidence` — one blinded-tag derivation: the source
  ciphertext, the per-member :class:`~repro.crypto.tagging.
  CiphertextTaggingStep` proofs, the fully blinded ciphertext, its
  decryption transcript, and the resulting tag value.

:class:`TallyEvidence` bundles these for every registration tag, ballot tag
and counted vote, plus the commitment sets that bind the transcripts to the
election (tagging commitments, authority member keys).  In the WaTZ spirit,
the bundle is *self-describing*: an auditor needs the bundle, the board and
the claimed result — no live authority objects, no secrets.

Generation is opt-in (``TallyPipeline(collect_evidence=True)`` /
``ElectionConfig.audit_evidence``) and makes the tally about 1.2x a
proof-less one: with M authority members a tag raises ciphertext parts to 6M
exponents with its proofs, 4M without (a decryption to 2M either way), and
each part is raised *once* for all of its exponents — ``2M + 1`` shared-base
ladders per tag, one per counted vote, every ``g**nonce`` off the generator
table (``docs/performance.md``, "2b. Shared-base powers", has the budget and
when the planner declines).  Every published value is computed *once, with
its proof*: the tally's
workers run :func:`tag_chain_material` / :func:`decryption_material` in place
of the proof-less derivation, the join and the vote decoding read the
plaintext (the last entry) off that result, and :func:`build_tally_evidence`
only assembles.  The material is what the caller lacks, as one flat tuple of
group elements and ints; the statement side (source ciphertext, generator,
commitments, public shares) never travels back, and elements travel as
elements — decoding an Ed25519 point the group has not seen costs a square
root and a subgroup-check multiplication (≈1.2–1.4 ms; it was 0.24 ms while
the check multiplied by zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.crypto.dkg import DistributedKeyGeneration
from repro.crypto.elgamal import DecryptionShare, ElGamal, ElGamalCiphertext
from repro.crypto.group import GroupElement
from repro.crypto.tagging import CiphertextTaggingStep, TaggingAuthority


@dataclass(frozen=True)
class DecryptionTranscript:
    """One verifiable threshold decryption: shares + proofs for a ciphertext."""

    ciphertext: ElGamalCiphertext
    public_shares: Tuple[GroupElement, ...]
    shares: Tuple[DecryptionShare, ...]

    def plaintext(self) -> GroupElement:
        """Recombine the claimed shares (correctness rests on the share proofs)."""
        group = self.ciphertext.c1.group
        factor = group.identity
        for share in self.shares:
            factor = factor * share.share
        return self.ciphertext.c2 * factor.inverse()


@dataclass(frozen=True)
class TagChainEvidence:
    """One blinded-tag derivation, end to end: blind steps, decryption, value."""

    source: ElGamalCiphertext
    steps: Tuple[CiphertextTaggingStep, ...]
    blinded: ElGamalCiphertext
    decryption: DecryptionTranscript
    tag: GroupElement


@dataclass(frozen=True)
class TallyEvidence:
    """Everything the tally proved beyond the mix cascades, in publish order.

    ``registration_tags`` / ``ballot_tags`` follow the order of the mixed
    registration outputs / mixed ballot pairs (the order the filter result
    publishes its tag byte lists in); ``decryptions`` follows
    ``filter_result.counted`` / ``result.votes``.
    """

    tagging_commitments: Tuple[GroupElement, ...]
    member_public_keys: Tuple[GroupElement, ...]
    registration_tags: Tuple[TagChainEvidence, ...]
    ballot_tags: Tuple[TagChainEvidence, ...]
    decryptions: Tuple[DecryptionTranscript, ...]


#: Entries one member's :class:`DecryptionShare` takes in proof material.
_SHARE_FIELDS = 4


def decryption_material(dkg: DistributedKeyGeneration, ciphertext: ElGamalCiphertext) -> tuple:
    """Threshold-decrypt once: every member's four share fields, then the plaintext.

    The shares are this call's own, so they are combined unchecked; judging
    them is the audit's ``decryption-share`` kind.
    """
    shares = dkg.decryption_shares(ciphertext)
    plaintext = ElGamal(dkg.group).combine_decryption_shares(
        ciphertext, dkg.member_public_keys, shares, verify=False
    )
    fields = [f for s in shares for f in (s.share, s.commitment_g, s.commitment_c1, s.response)]
    return (*fields, plaintext)


def decryption_transcript(
    dkg: DistributedKeyGeneration, ciphertext: ElGamalCiphertext, material: Optional[Sequence] = None
) -> DecryptionTranscript:
    """The publishable transcript of one threshold decryption.

    ``material`` is the :func:`decryption_material` result a worker already
    computed for ``ciphertext``; without one the decryption runs here.
    """
    if material is None:
        material = decryption_material(dkg, ciphertext)
    return DecryptionTranscript(
        ciphertext=ciphertext,
        public_shares=tuple(dkg.member_public_keys),
        shares=tuple(
            DecryptionShare(*material[at : at + _SHARE_FIELDS])
            for at in range(0, len(material) - 1, _SHARE_FIELDS)
        ),
    )


def tag_chain_material(
    dkg: DistributedKeyGeneration, tagging: TaggingAuthority, ciphertext: ElGamalCiphertext
) -> tuple:
    """Derive one blinded tag once, with its proofs: step material, then the decryption's.

    The blinded value (and hence the tag, the last entry) is bit-identical to
    the proof-less :meth:`TaggingAuthority.blind_and_decrypt` — same
    exponentiation chain, proof nonces never touch the output.
    """
    blinded, steps = tagging.blinding_material(ciphertext)
    return (*steps, *decryption_material(dkg, blinded))


def tag_chain_evidence(
    dkg: DistributedKeyGeneration,
    tagging: TaggingAuthority,
    ciphertext: ElGamalCiphertext,
    material: Optional[Sequence] = None,
) -> TagChainEvidence:
    """The publishable evidence of one blinded-tag derivation (``material`` as above)."""
    if material is None:
        material = tag_chain_material(dkg, tagging, ciphertext)
    split = len(material) - (_SHARE_FIELDS * dkg.num_members + 1)
    steps = tagging.steps_from_material(ciphertext, material[:split])
    blinded = steps[-1].after if steps else ciphertext
    return TagChainEvidence(
        source=ciphertext,
        steps=tuple(steps),
        blinded=blinded,
        decryption=decryption_transcript(dkg, blinded, material[split:]),
        tag=material[-1],
    )


def build_tally_evidence(
    dkg: DistributedKeyGeneration,
    tagging: TaggingAuthority,
    mixed_registrations: Sequence[ElGamalCiphertext],
    mixed_ballot_credentials: Sequence[ElGamalCiphertext],
    counted: Sequence[ElGamalCiphertext],
    tag_material: Sequence[Sequence],
    vote_material: Sequence[Sequence],
) -> TallyEvidence:
    """Assemble the bundle from the material the tally's workers returned.

    ``tag_material`` holds one :func:`tag_chain_material` result per mixed
    registration, then per mixed ballot credential; ``vote_material`` one
    :func:`decryption_material` result per counted vote.  Nothing is derived.
    """
    sources = [*mixed_registrations, *mixed_ballot_credentials]
    if len(tag_material) != len(sources) or len(vote_material) != len(counted):
        raise ValueError("proof material does not cover every tag and counted vote")
    chains = tuple(
        tag_chain_evidence(dkg, tagging, ciphertext, material)
        for ciphertext, material in zip(sources, tag_material)
    )
    return TallyEvidence(
        tagging_commitments=tuple(tagging.commitments),
        member_public_keys=tuple(dkg.member_public_keys),
        registration_tags=chains[: len(mixed_registrations)],
        ballot_tags=chains[len(mixed_registrations) :],
        decryptions=tuple(
            decryption_transcript(dkg, ciphertext, material)
            for ciphertext, material in zip(counted, vote_material)
        ),
    )
