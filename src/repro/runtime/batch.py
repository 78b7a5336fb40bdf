"""Random-linear-combination (small-exponent) batch verification.

Verifying ``n`` independent equations of the form ``LHS_i == RHS_i`` over a
prime-order group can be collapsed into the single check

    ∏_i LHS_i^{w_i}  ==  ∏_i RHS_i^{w_i}

for fresh random small exponents ``w_i``.  If every equation holds the
combined check always passes; if any single equation fails, the combined
check fails except with probability ``2^-|w|`` (Bellare–Garay–Rabin small
exponents test).  Because all terms land in one product, repeated bases —
the generator, the election public key, shared proof bases — collapse into a
*single* exponentiation with the summed exponent, which is where the batch
saves most of its work.

Three instantiations used by the tally hot paths:

* :func:`batch_schnorr_verify` — ballot signature checks in
  ``TallyPipeline._valid_ballots`` (one generator exponentiation for the
  whole batch instead of one per signature);
* :func:`batch_chaum_pedersen_verify` — Chaum–Pedersen transcripts
  (decryption-share and tagging-step proofs) in auditing paths;
* :func:`batch_reencryption_verify` — the shadow-mix openings of the shuffle
  proofs, where the per-item work drops from two full-width exponentiations
  to two ``|w|``-bit ones.

Batch checks are probabilistic accept/reject for the *whole* batch; callers
that need per-item verdicts use :func:`verify_signatures` which falls back to
a bisecting search only when a batch fails (the common all-valid case stays
on the fast path).
"""

from __future__ import annotations

import secrets
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.chaum_pedersen import (
    ChaumPedersenCommit,
    ChaumPedersenStatement,
    ChaumPedersenTranscript,
    fiat_shamir_challenge,
)
from repro.crypto.dlog_proof import DlogProof, dlog_challenge
from repro.crypto.elgamal import DecryptionShare, ElGamal, ElGamalCiphertext
from repro.crypto.group import Group, GroupElement
from repro.crypto.schnorr import SchnorrSignature, schnorr_challenge, schnorr_verify
from repro.runtime.executor import Executor, chunk_evenly, resolve_executor
from repro.runtime.precompute import multi_element_power

DEFAULT_WEIGHT_BITS = 128
DEFAULT_SIGNATURE_CHUNK = 64

SignatureItem = Tuple[GroupElement, bytes, SchnorrSignature]
ReencryptionItem = Tuple[ElGamalCiphertext, ElGamalCiphertext, int]


def _weight_bits(group: Group, weight_bits: int) -> int:
    # Weights must stay below the group order; for the toy test group this
    # degrades soundness to ~2^-60, which is still far beyond test flakiness.
    return max(8, min(weight_bits, group.order.bit_length() - 2))


def _random_weights(group: Group, count: int, weight_bits: int) -> List[int]:
    bits = _weight_bits(group, weight_bits)
    return [secrets.randbits(bits) | 1 for _ in range(count)]


class ProductAccumulator:
    """Accumulates ``∏ base^exponent`` terms, collapsing repeated bases.

    :meth:`value` evaluates the whole product in **one** multi-exponentiation
    (:func:`repro.runtime.precompute.multi_element_power`): hot bases with
    fixed-base tables go through their windowed tables, everything else
    shares a single Straus/Pippenger squaring chain.  Verifiers keep their
    LHS and RHS as *two* accumulators compared for equality rather than
    folding ``RHS^{-1}`` into one product — negating an RLC weight mod the
    order turns a deliberately small (``|w|``-bit) exponent into a full-width
    one, which would forfeit most of the batching win.
    """

    __slots__ = ("_group", "_terms")

    def __init__(self, group: Group):
        self._group = group
        self._terms: Dict[bytes, Tuple[GroupElement, int]] = {}

    def multiply(self, base: GroupElement, exponent: int) -> None:
        if not isinstance(base, GroupElement):
            # An ElementEncoding has nothing to weigh: it is checked by
            # recomputing the element and comparing bytes, never folded.
            raise TypeError(f"a fold takes group elements, not {type(base).__name__}")
        exponent %= self._group.order
        key = base.to_bytes()
        entry = self._terms.get(key)
        if entry is None:
            self._terms[key] = (base, exponent)
        else:
            self._terms[key] = (entry[0], (entry[1] + exponent) % self._group.order)

    def value(self) -> GroupElement:
        bases: List[GroupElement] = []
        exponents: List[int] = []
        for base, exponent in self._terms.values():
            if exponent:
                bases.append(base)
                exponents.append(exponent)
        return multi_element_power(self._group, bases, exponents)


# ---------------------------------------------------------------------------
# Schnorr signatures
# ---------------------------------------------------------------------------


def batch_schnorr_verify(items: Sequence[SignatureItem], weight_bits: int = DEFAULT_WEIGHT_BITS) -> bool:
    """Accept iff every ``(public, message, signature)`` triple verifies.

    Combined equation (weights ``w_i``, challenges ``e_i``):

        g^{Σ w_i·s_i}  ==  ∏ R_i^{w_i} · pk_i^{w_i·e_i}
    """
    if not items:
        return True
    if len(items) == 1:
        public, message, signature = items[0]
        if not isinstance(signature.commitment, GroupElement):
            raise TypeError(f"a fold takes group elements, not {type(signature.commitment).__name__}")
        return schnorr_verify(public, message, signature)
    group = items[0][0].group
    weights = _random_weights(group, len(items), weight_bits)
    response_sum = 0
    rhs = ProductAccumulator(group)
    for (public, message, signature), weight in zip(items, weights):
        challenge = schnorr_challenge(group, signature.commitment, public, message)
        response_sum = (response_sum + weight * signature.response) % group.order
        rhs.multiply(signature.commitment, weight)
        rhs.multiply(public, weight * challenge)
    return group.power(response_sum) == rhs.value()


def _verify_signature_chunk(items: Sequence[SignatureItem]) -> List[bool]:
    """Per-item verdicts for a chunk: batch first, bisect only on failure.

    The fold-then-bisect algorithm lives in :func:`repro.audit.kinds.
    chunk_verdicts` (generic over every registered check kind); this wrapper
    applies it to the ``schnorr`` kind, whose evidence tuples are exactly
    these items.
    """
    from repro.audit.kinds import chunk_verdicts, get_kind

    return chunk_verdicts(get_kind("schnorr"), items)


def verify_signatures(
    items: Sequence[SignatureItem],
    executor: Optional[Executor] = None,
    chunk_size: int = DEFAULT_SIGNATURE_CHUNK,
) -> List[bool]:
    """Per-item Schnorr verdicts with batch fast path and executor fan-out."""
    if not items:
        return []
    shards = chunk_evenly(list(items), max(1, (len(items) + chunk_size - 1) // chunk_size))
    verdicts = resolve_executor(executor).map(_verify_signature_chunk, shards, chunksize=1)
    return [verdict for shard in verdicts for verdict in shard]


# ---------------------------------------------------------------------------
# Chaum–Pedersen transcripts
# ---------------------------------------------------------------------------


def batch_chaum_pedersen_verify(
    transcripts: Sequence[ChaumPedersenTranscript],
    context: Optional[bytes] = None,
    weight_bits: int = DEFAULT_WEIGHT_BITS,
) -> bool:
    """Accept iff every transcript satisfies the Chaum–Pedersen equations.

    With ``context`` given, each transcript's challenge is additionally
    required to equal its Fiat–Shamir hash (the non-interactive variant).
    Both verification equations of every transcript are folded into one
    product comparison with independent random weights.
    """
    if not transcripts:
        return True
    group = transcripts[0].statement.group
    weights = _random_weights(group, 2 * len(transcripts), weight_bits)
    lhs = ProductAccumulator(group)
    rhs = ProductAccumulator(group)
    for index, transcript in enumerate(transcripts):
        if context is not None:
            expected = fiat_shamir_challenge(transcript.statement, transcript.commit, context)
            if transcript.challenge != expected:
                return False
        statement = transcript.statement
        challenge = transcript.challenge
        response = transcript.response
        w_g, w_h = weights[2 * index], weights[2 * index + 1]
        lhs.multiply(statement.base_g, w_g * response)
        lhs.multiply(statement.value_g, w_g * challenge)
        rhs.multiply(transcript.commit.commit_g, w_g)
        lhs.multiply(statement.base_h, w_h * response)
        lhs.multiply(statement.value_h, w_h * challenge)
        rhs.multiply(transcript.commit.commit_h, w_h)
    return lhs.value() == rhs.value()


def decryption_share_transcript(
    public_share: GroupElement,
    ciphertext: ElGamalCiphertext,
    share: DecryptionShare,
) -> ChaumPedersenTranscript:
    """Express a decryption-share proof as a Chaum–Pedersen transcript.

    A decryption share proves ``log_g(pk_i) == log_c1(share)`` with an
    *addition-form* response ``r = w + e·sk``, whereas
    :func:`batch_chaum_pedersen_verify` folds the subtraction-form equation
    ``base^r · value^e == commit``.  Negating the challenge converts between
    the two: ``g^r == commit_g · pk_i^e  ⇔  g^r · pk_i^{-e} == commit_g``.
    The challenge is recomputed from the share data (there is no independent
    challenge field to cross-check), so the transcript is sound by
    construction and many shares fold into one RLC product.
    """
    group = public_share.group
    challenge = group.hash_to_scalar(
        b"elgamal-decryption-share",
        public_share.to_bytes(),
        share.share.to_bytes(),
        share.commitment_g.to_bytes(),
        share.commitment_c1.to_bytes(),
        ciphertext.to_bytes(),
    )
    return ChaumPedersenTranscript(
        statement=ChaumPedersenStatement(
            base_g=group.generator,
            base_h=ciphertext.c1,
            value_g=public_share,
            value_h=share.share,
        ),
        commit=ChaumPedersenCommit(commit_g=share.commitment_g, commit_h=share.commitment_c1),
        challenge=(-challenge) % group.order,
        response=share.response,
    )


DecryptionShareItem = Tuple[GroupElement, ElGamalCiphertext, DecryptionShare]


def batch_decryption_share_verify(
    items: Sequence[DecryptionShareItem],
    weight_bits: int = DEFAULT_WEIGHT_BITS,
) -> bool:
    """Accept iff every ``(public_share, ciphertext, share)`` triple verifies.

    Folds the two verification equations of every share into the
    Chaum–Pedersen RLC product via :func:`decryption_share_transcript`, which
    is what lets ``verify=True`` decryption paths check a whole quorum's
    shares at the cost of a couple of full-width exponentiations.
    """
    if not items:
        return True
    transcripts = [
        decryption_share_transcript(public_share, ciphertext, share)
        for public_share, ciphertext, share in items
    ]
    return batch_chaum_pedersen_verify(transcripts, context=None, weight_bits=weight_bits)


# ---------------------------------------------------------------------------
# Dlog (Schnorr PoK) proofs
# ---------------------------------------------------------------------------


DlogItem = Tuple[DlogProof, bytes]


def batch_dlog_verify(items: Sequence[DlogItem], weight_bits: int = DEFAULT_WEIGHT_BITS) -> bool:
    """Accept iff every ``(proof, context)`` dlog proof verifies.

    Single-equation fold: ``base^r == commit · value^e`` for every proof,
    weighted and collapsed into one product comparison.  Challenges are
    recomputed (Fiat–Shamir), so a tampered transcript fails either the
    recomputation implicitly (different ``e``) or the folded equation.
    """
    if not items:
        return True
    if len(items) == 1:
        proof, context = items[0]
        from repro.crypto.dlog_proof import verify_dlog

        return verify_dlog(proof, context)
    group = items[0][0].base.group
    weights = _random_weights(group, len(items), weight_bits)
    lhs = ProductAccumulator(group)
    rhs = ProductAccumulator(group)
    order = group.order
    for (proof, context), weight in zip(items, weights):
        challenge = dlog_challenge(proof, context)
        lhs.multiply(proof.base, weight * proof.response)
        lhs.multiply(proof.value, (-weight * challenge) % order)
        rhs.multiply(proof.commitment, weight)
    return lhs.value() == rhs.value()


# ---------------------------------------------------------------------------
# Re-encryption openings (shuffle proofs)
# ---------------------------------------------------------------------------


def batch_reencryption_verify(
    elgamal: ElGamal,
    public_key: GroupElement,
    items: Sequence[ReencryptionItem],
    weight_bits: int = DEFAULT_WEIGHT_BITS,
) -> bool:
    """Accept iff ``target_i == reencrypt(source_i, r_i)`` for every item.

    Expanding the re-encryption definition, each item contributes the two
    equations ``src.c1 · g^{r} == tgt.c1`` and ``src.c2 · pk^{r} == tgt.c2``;
    the weighted product collapses all generator (resp. public-key) factors
    into a single full-width exponentiation, leaving only ``|w|``-bit work
    per ciphertext component.
    """
    if not items:
        return True
    group = elgamal.group
    weights = _random_weights(group, 2 * len(items), weight_bits)
    lhs = ProductAccumulator(group)
    rhs = ProductAccumulator(group)
    generator_exponent = 0
    key_exponent = 0
    order = group.order
    for index, (source, target, randomness) in enumerate(items):
        w1, w2 = weights[2 * index], weights[2 * index + 1]
        generator_exponent = (generator_exponent + w1 * randomness) % order
        key_exponent = (key_exponent + w2 * randomness) % order
        lhs.multiply(source.c1, w1)
        rhs.multiply(target.c1, w1)
        lhs.multiply(source.c2, w2)
        rhs.multiply(target.c2, w2)
    lhs.multiply(group.generator, generator_exponent)
    lhs.multiply(public_key, key_exponent)
    return lhs.value() == rhs.value()
