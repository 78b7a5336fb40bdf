"""Random-linear-combination (small-exponent) batch verification.

Each verifier below states its proof's equations: one pair ``(lhs terms, rhs
terms)`` per equation, a term being ``(base, exponent)``.  :func:`_fold`
checks ``n`` of them at once as

    ∏_i LHS_i^{w_i}  ==  ∏_i RHS_i^{w_i}

for fresh random small exponents ``w_i``.  If every equation holds the
combined check always passes; if any single equation fails, the combined
check fails except with probability ``2^-|w|`` (Bellare–Garay–Rabin small
exponents test).  Because all terms land in one product, repeated bases —
the generator, the election public key, shared proof bases — collapse into a
*single* exponentiation with the summed exponent, which is where the batch
saves most of its work.

Each proof kind has an equation builder and a verifier that folds it:

* :func:`schnorr_equations` / :func:`batch_schnorr_verify` — ballot,
  registration and rotation signatures (the tally's check of the ballots
  last-write-wins can count is :func:`verify_signatures`);
* :func:`chaum_pedersen_equations` / :func:`batch_chaum_pedersen_verify` —
  Chaum–Pedersen transcripts (tagging steps, their challenges already checked
  by the caller), and through them :func:`decryption_share_equations` /
  :func:`batch_decryption_share_verify`;
* :func:`dlog_equations` / :func:`batch_dlog_verify` — dlog proofs of
  knowledge;
* :func:`reencryption_equations` / :func:`batch_reencryption_verify` — the
  shadow-mix openings of the shuffle proofs, where the per-item work drops
  from two full-width exponentiations to two ``|w|``-bit ones.

The verifiers serve the tally and the threshold decryption.  The audit's
batched strategy (:mod:`repro.audit.kinds`) takes the builders instead and
folds every equation of a chunk, whatever its kind, in one :func:`_fold`.

A fold is an accept/reject for the *whole* batch; :func:`fold_verdicts`
turns one into exact per-item verdicts, bisecting only a rejected batch, so
the tally, the threshold decryption and the audit share one fallback.
"""

from __future__ import annotations

import secrets
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.chaum_pedersen import ChaumPedersenTranscript, decryption_share_transcript
from repro.crypto.dlog_proof import DlogProof, dlog_challenge
from repro.crypto.elgamal import DecryptionShare, ElGamal, ElGamalCiphertext
from repro.crypto.group import Group, GroupElement
from repro.crypto.schnorr import SchnorrSignature, schnorr_challenge, schnorr_verify
from repro.runtime import precompute
from repro.runtime.executor import Executor, chunk_evenly, resolve_executor

DEFAULT_WEIGHT_BITS = 128
DEFAULT_SIGNATURE_CHUNK = 64

#: ``base ** exponent``; a side of an equation is their product.
Term = Tuple[GroupElement, int]
#: ``∏ lhs == ∏ rhs``.
Equation = Tuple[Sequence[Term], Sequence[Term]]

SignatureItem = Tuple[GroupElement, bytes, SchnorrSignature]
ReencryptionItem = Tuple[ElGamalCiphertext, ElGamalCiphertext, int]
DecryptionShareItem = Tuple[GroupElement, ElGamalCiphertext, DecryptionShare]
DlogItem = Tuple[DlogProof, bytes]


def _weight_bits(group: Group, weight_bits: int) -> int:
    # Weights must stay below the group order; for the toy test group this
    # degrades soundness to ~2^-60, which is still far beyond test flakiness.
    return max(8, min(weight_bits, group.order.bit_length() - 2))


class ProductAccumulator:
    """Accumulates ``∏ base^exponent`` terms, collapsing repeated bases.

    A base object that recurs (the generator, the election key) is summed as
    one scalar; equal bases that are distinct objects merge when
    :meth:`value` evaluates the whole product in **one**
    multi-exponentiation (:func:`repro.runtime.precompute.
    multi_element_power`): hot bases with fixed-base tables go through their
    tables, everything else shares a single Straus/Pippenger squaring chain.
    A product of one base (a Schnorr fold's ``g`` side) is that base's power.
    Verifiers keep their LHS and RHS as *two* accumulators compared for
    equality rather than folding ``RHS^{-1}`` into one product — negating an
    RLC weight mod the order turns a deliberately small (``|w|``-bit)
    exponent into a full-width one, which would forfeit most of the batching
    win.
    """

    __slots__ = ("_group", "_terms")

    def __init__(self, group: Group):
        self._group = group
        self._terms: Dict[int, List[Any]] = {}

    def multiply(self, base: GroupElement, exponent: int) -> None:
        entry = self._terms.get(id(base))  # the entry holds the base, so its id stays its own
        if entry is not None:
            entry[1] += exponent
        elif isinstance(base, GroupElement):
            self._terms[id(base)] = [base, exponent]
        else:
            # An ElementEncoding has nothing to weigh: it is checked by
            # recomputing the element and comparing bytes, never folded.
            raise TypeError(f"a fold takes group elements, not {type(base).__name__}")

    def value(self) -> GroupElement:
        merged: Dict[bytes, List[Any]] = {}
        for entry in self._terms.values():
            first = merged.setdefault(entry[0].to_bytes(), entry)
            if first is not entry:
                first[1] += entry[1]
        order = self._group.order
        bases: List[GroupElement] = []
        exponents: List[int] = []
        for base, exponent in merged.values():
            exponent %= order
            if exponent:
                bases.append(base)
                exponents.append(exponent)
        if len(bases) == 1:
            return precompute.element_power(bases[0], exponents[0])
        return precompute.multi_element_power(self._group, bases, exponents)


def _fold(group: Group, equations: Sequence[Equation], weight_bits: int) -> bool:
    """Whether every equation holds, up to the RLC bound: each is weighed once."""
    if not equations:
        return True
    bits = _weight_bits(group, weight_bits)
    lhs, rhs = ProductAccumulator(group), ProductAccumulator(group)
    for lhs_terms, rhs_terms in equations:
        weight = secrets.randbits(bits) | 1
        for base, exponent in lhs_terms:
            lhs.multiply(base, weight * exponent)
        for base, exponent in rhs_terms:
            rhs.multiply(base, weight * exponent)
    return lhs.value() == rhs.value()


def fold_verdicts(
    items: Sequence[Tuple[Any, ...]],
    verify_one: Callable[..., bool],
    fold: Optional[Callable[[Sequence[Tuple[Any, ...]]], bool]] = None,
) -> List[bool]:
    """Exact per-item verdicts: ``fold`` a batch, bisecting only on rejection.

    A lone item, and every item when there is no ``fold``, goes to the
    reference predicate ``verify_one(*item)``.
    """
    if fold is None or len(items) < 2:
        return [bool(verify_one(*item)) for item in items]
    if fold(items):
        return [True] * len(items)
    middle = len(items) // 2
    return fold_verdicts(items[:middle], verify_one, fold) + fold_verdicts(items[middle:], verify_one, fold)


# ---------------------------------------------------------------------------
# Schnorr signatures
# ---------------------------------------------------------------------------


def schnorr_equations(items: Sequence[SignatureItem]) -> List[Equation]:
    """``g^s == R · pk^e`` per ``(public, message, signature)`` triple, ``e``
    the signature's challenge."""
    equations: List[Equation] = []
    for public, message, signature in items:
        group = public.group
        challenge = schnorr_challenge(group, signature.commitment, public, message)
        equations.append(
            (((group.generator, signature.response),), ((signature.commitment, 1), (public, challenge)))
        )
    return equations


def batch_schnorr_verify(items: Sequence[SignatureItem], weight_bits: int = DEFAULT_WEIGHT_BITS) -> bool:
    """Accept iff every ``(public, message, signature)`` triple verifies."""
    if not items:
        return True
    return _fold(items[0][0].group, schnorr_equations(items), weight_bits)


def _verify_signature_chunk(items: Sequence[SignatureItem]) -> List[bool]:
    """Per-item verdicts for one chunk (module-level, so executors can ship it)."""
    return fold_verdicts(items, schnorr_verify, batch_schnorr_verify)


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


def chaum_pedersen_equations(transcripts: Sequence[ChaumPedersenTranscript]) -> List[Equation]:
    """``Y1 == g^r · C1^e`` and ``Y2 == h^r · X^e`` per transcript."""
    equations: List[Equation] = []
    for transcript in transcripts:
        statement, challenge, response = transcript.statement, transcript.challenge, transcript.response
        equations.append(
            (((statement.base_g, response), (statement.value_g, challenge)), ((transcript.commit.commit_g, 1),))
        )
        equations.append(
            (((statement.base_h, response), (statement.value_h, challenge)), ((transcript.commit.commit_h, 1),))
        )
    return equations


def batch_chaum_pedersen_verify(
    transcripts: Sequence[ChaumPedersenTranscript],
    weight_bits: int = DEFAULT_WEIGHT_BITS,
) -> bool:
    """Accept iff every transcript satisfies its two equations."""
    if not transcripts:
        return True
    return _fold(transcripts[0].statement.group, chaum_pedersen_equations(transcripts), weight_bits)


def decryption_share_equations(items: Sequence[DecryptionShareItem]) -> List[Equation]:
    """The two equations of each ``(public_share, ciphertext, share)`` triple:
    the Chaum–Pedersen transcript
    :func:`~repro.crypto.chaum_pedersen.decryption_share_transcript` states."""
    return chaum_pedersen_equations(
        [decryption_share_transcript(public_share, ciphertext, share) for public_share, ciphertext, share in items]
    )


def batch_decryption_share_verify(
    items: Sequence[DecryptionShareItem],
    weight_bits: int = DEFAULT_WEIGHT_BITS,
) -> bool:
    """Accept iff every ``(public_share, ciphertext, share)`` triple verifies,
    so a whole quorum's shares cost a couple of full-width exponentiations."""
    if not items:
        return True
    return _fold(items[0][0].group, decryption_share_equations(items), weight_bits)


# ---------------------------------------------------------------------------
# Dlog (Schnorr PoK) proofs
# ---------------------------------------------------------------------------


def dlog_equations(items: Sequence[DlogItem]) -> List[Equation]:
    """``base^r · value^{-e} == commit`` per ``(proof, context)``, with ``e``
    recomputed (Fiat–Shamir), so a tampered transcript changes ``e`` or
    breaks the equation."""
    return [
        (((proof.base, proof.response), (proof.value, -dlog_challenge(proof, context))), ((proof.commitment, 1),))
        for proof, context in items
    ]


def batch_dlog_verify(items: Sequence[DlogItem], weight_bits: int = DEFAULT_WEIGHT_BITS) -> bool:
    """Accept iff every ``(proof, context)`` dlog proof verifies."""
    if not items:
        return True
    return _fold(items[0][0].base.group, dlog_equations(items), weight_bits)


# ---------------------------------------------------------------------------
# Re-encryption openings (shuffle proofs)
# ---------------------------------------------------------------------------


def reencryption_equations(
    elgamal: ElGamal, public_key: GroupElement, items: Sequence[ReencryptionItem]
) -> List[Equation]:
    """``src.c1 · g^r == tgt.c1`` and ``src.c2 · pk^r == tgt.c2`` per
    ``(source, target, randomness)`` item: ``target == reencrypt(source, r)``.
    Every generator (resp. public-key) factor collapses into a single
    full-width exponentiation, leaving only ``|w|``-bit work per ciphertext
    component."""
    generator = elgamal.group.generator
    equations: List[Equation] = []
    for source, target, randomness in items:
        equations.append((((source.c1, 1), (generator, randomness)), ((target.c1, 1),)))
        equations.append((((source.c2, 1), (public_key, randomness)), ((target.c2, 1),)))
    return equations


def batch_reencryption_verify(
    elgamal: ElGamal,
    public_key: GroupElement,
    items: Sequence[ReencryptionItem],
    weight_bits: int = DEFAULT_WEIGHT_BITS,
) -> bool:
    """Accept iff ``target_i == reencrypt(source_i, r_i)`` for every item."""
    return _fold(elgamal.group, reencryption_equations(elgamal, public_key, items), weight_bits)
