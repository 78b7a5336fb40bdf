"""Verifiable mixing of ciphertext tuples (the mix cascade, §4.2).

The tally mixes *pairs* — ``(encrypted vote, encrypted credential key)`` — so
the anonymizing permutation must be applied consistently across the tuple
while each component is independently re-encrypted; registration tags ride
the same code as 1-tuples.

The paper's prototype links against a C implementation of the Bayer–Groth
argument; re-implementing Bayer–Groth's polynomial machinery in Python is out
of scope, so this module provides a classic *shadow-mix (cut-and-choose)*
proof of shuffle instead:

* the mixer publishes the shuffled, re-encrypted output;
* it also publishes ``K`` independent "shadow" shuffles of the same input;
* a Fiat–Shamir coin per shadow (derived only after *all* shadows are
  committed) asks the mixer to open either the input→shadow mapping or the
  shadow→output mapping (never both), revealing the permutation and
  re-encryption randomness of that half;
* a cheating mixer survives each round with probability ½, so the soundness
  error is 2^-K.

The proof is linear in ``n·K``, so the asymptotics that drive Figure 5b
(linear per mix for Votegral/Swiss Post/VoteAgain vs. quadratic PETs for
Civitas) are preserved; the substitution is recorded in
``docs/architecture.md`` ("Substitutions").

This module *produces* proofs.  Judging one is the audit layer's job:
:func:`repro.audit.checks.cascade_checks` is the only place a published
cascade becomes checks, and a verifier's :class:`~repro.audit.api.AuditReport`
the only verdict.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro import telemetry
from repro.crypto.elgamal import ElGamal, ElGamalCiphertext
from repro.crypto.group import GroupElement
from repro.crypto.hashing import sha256
from repro.runtime.executor import Executor, resolve_executor

CiphertextTuple = Tuple[ElGamalCiphertext, ...]

DEFAULT_SOUNDNESS_ROUNDS = 16


def random_permutation(n: int) -> List[int]:
    """A uniformly random permutation of range(n) (Fisher–Yates)."""
    permutation = list(range(n))
    for i in range(n - 1, 0, -1):
        j = secrets.randbelow(i + 1)
        permutation[i], permutation[j] = permutation[j], permutation[i]
    return permutation


@dataclass(frozen=True)
class TupleOpening:
    """A revealed half of one shadow round (permutation + per-component randomness)."""

    permutation: List[int]
    randomness: List[List[int]]  # randomness[i][k] refreshes component k of item i


@dataclass(frozen=True)
class TupleShadowRound:
    shadow: List[CiphertextTuple]
    opens_input_side: bool
    opening: TupleOpening


@dataclass(frozen=True)
class TupleShuffle:
    """A mixer's tuple shuffle with its shadow-mix proof."""

    outputs: List[CiphertextTuple]
    rounds: List[TupleShadowRound]


def _reencrypt_tuple(
    elgamal: ElGamal,
    public_key: GroupElement,
    item: CiphertextTuple,
    randomness: Sequence[int],
) -> CiphertextTuple:
    return tuple(
        elgamal.reencrypt(public_key, component, r) for component, r in zip(item, randomness)
    )


def _plan_shuffle(
    elgamal: ElGamal,
    num_items: int,
    arity: int,
) -> Tuple[List[int], List[List[int]]]:
    """Draw the secret part of one shuffle: a permutation plus fresh randomness.

    All randomness is drawn serially in the caller's thread — workers only
    ever compute the *deterministic* re-encryptions, which is what keeps
    parallel mixes bit-identical to serial ones for a fixed randomness tape.
    """
    permutation = random_permutation(num_items)
    randomness = [[elgamal.group.random_scalar() for _ in range(arity)] for _ in range(num_items)]
    return permutation, randomness


def _tuple_bytes(item: CiphertextTuple) -> bytes:
    return b"".join(component.to_bytes() for component in item)


def _challenge_bits(
    inputs: Sequence[CiphertextTuple],
    outputs: Sequence[CiphertextTuple],
    shadows: Sequence[Sequence[CiphertextTuple]],
) -> List[bool]:
    seed = sha256(
        b"tuple-shuffle-rounds",
        *[_tuple_bytes(item) for item in inputs],
        *[_tuple_bytes(item) for item in outputs],
        *[_tuple_bytes(item) for shadow in shadows for item in shadow],
    )
    bits: List[bool] = []
    counter = 0
    while len(bits) < len(shadows):
        block = sha256(seed, counter.to_bytes(4, "big"))
        for byte in block:
            for shift in range(8):
                bits.append(bool((byte >> shift) & 1))
                if len(bits) == len(shadows):
                    return bits
        counter += 1
    return bits


def _inverse_permutation(permutation: Sequence[int]) -> List[int]:
    inverse = [0] * len(permutation)
    for position, source in enumerate(permutation):
        inverse[source] = position
    return inverse


ShufflePlan = Tuple[List[int], List[List[int]]]


def _build_tuple_shuffle(
    elgamal: ElGamal,
    inputs: Sequence[CiphertextTuple],
    outputs: Sequence[CiphertextTuple],
    shadows: Sequence[List[CiphertextTuple]],
    plans: Sequence[ShufflePlan],
) -> TupleShuffle:
    """Assemble the cut-and-choose proof from pre-computed re-encryptions.

    ``plans[0]`` is the real shuffle's plan, ``plans[1:]`` the shadow plans.
    Deterministic given its arguments: the plans are the only randomness, so
    a fixed randomness tape fixes the proof whatever executor re-encrypted.
    """
    rounds = len(shadows)
    permutation, randomness = plans[0]
    shadow_perms: List[List[int]] = [plans[index + 1][0] for index in range(rounds)]
    shadow_rands: List[List[List[int]]] = [plans[index + 1][1] for index in range(rounds)]

    coins = _challenge_bits(inputs, outputs, shadows)
    order = elgamal.group.order
    arity = len(inputs[0]) if inputs else 0
    proof_rounds: List[TupleShadowRound] = []
    inverse_perms = [_inverse_permutation(perm) for perm in shadow_perms]

    for index in range(rounds):
        if coins[index]:
            opening = TupleOpening(permutation=shadow_perms[index], randomness=shadow_rands[index])
        else:
            bridge = [inverse_perms[index][permutation[i]] for i in range(len(inputs))]
            delta = [
                [
                    (randomness[i][k] - shadow_rands[index][bridge[i]][k]) % order
                    for k in range(arity)
                ]
                for i in range(len(inputs))
            ]
            opening = TupleOpening(permutation=bridge, randomness=delta)
        proof_rounds.append(
            TupleShadowRound(shadow=list(shadows[index]), opens_input_side=coins[index], opening=opening)
        )
    return TupleShuffle(outputs=list(outputs), rounds=proof_rounds)


def shuffle_tuples_with_proof(
    elgamal: ElGamal,
    public_key: GroupElement,
    inputs: Sequence[CiphertextTuple],
    rounds: int = DEFAULT_SOUNDNESS_ROUNDS,
    executor: Optional[Executor] = None,
) -> TupleShuffle:
    """Shuffle ciphertext tuples with a cut-and-choose proof.

    The real shuffle and the ``rounds`` shadow shuffles are independent, so
    their ``(rounds + 1) · n`` re-encryptions are flattened into one fan-out
    over the executor.  Permutations and randomness are drawn up front in the
    calling thread (see :func:`_plan_shuffle`).
    """
    n = len(inputs)
    arity = len(inputs[0]) if inputs else 0

    plans = [_plan_shuffle(elgamal, n, arity) for _ in range(rounds + 1)]
    tasks = [
        (elgamal, public_key, inputs[source], plan_randomness[position])
        for plan_permutation, plan_randomness in plans
        for position, source in enumerate(plan_permutation)
    ]
    flat = resolve_executor(executor).starmap(_reencrypt_tuple, tasks)

    outputs = flat[:n]
    shadows: List[List[CiphertextTuple]] = [flat[(index + 1) * n : (index + 2) * n] for index in range(rounds)]
    return _build_tuple_shuffle(elgamal, inputs, outputs, shadows, plans)


def round_mapping_items(
    sources: Sequence[CiphertextTuple],
    targets: Sequence[CiphertextTuple],
    opening: TupleOpening,
) -> Optional[List[Tuple[ElGamalCiphertext, ElGamalCiphertext, int]]]:
    """Structural half of one opening check: permutation + shapes.

    Returns the flat ``(source, target, randomness)`` re-encryption items the
    opening claims — two equations each by :func:`repro.runtime.batch.
    reencryption_equations`, which the audit folds from *many* openings into
    one product — or ``None`` when the opening is structurally invalid (bad
    permutation, mismatched lengths).
    """
    if sorted(opening.permutation) != list(range(len(sources))):
        return None
    if len(opening.randomness) != len(sources) or len(targets) != len(sources):
        return None
    items: List[Tuple[ElGamalCiphertext, ElGamalCiphertext, int]] = []
    for position, source_index in enumerate(opening.permutation):
        source_tuple = sources[source_index]
        target_tuple = targets[position]
        randomness = opening.randomness[position]
        if len(target_tuple) != len(source_tuple) or len(randomness) != len(source_tuple):
            return None
        items.extend(zip(source_tuple, target_tuple, randomness))
    return items


def check_round_mapping(
    elgamal: ElGamal,
    public_key: GroupElement,
    sources: Sequence[CiphertextTuple],
    targets: Sequence[CiphertextTuple],
    opening: TupleOpening,
) -> bool:
    """The eager reference predicate: re-encrypt every item and compare.

    (The batched strategy folds the same :func:`round_mapping_items` of many
    openings into one random-linear-combination product instead.)
    """
    items = round_mapping_items(sources, targets, opening)
    return items is not None and all(
        elgamal.reencrypt(public_key, source, randomness) == target
        for source, target, randomness in items
    )


def round_mapping_sides(
    inputs: Sequence[CiphertextTuple],
    outputs: Sequence[CiphertextTuple],
    round_: TupleShadowRound,
) -> Tuple[Sequence[CiphertextTuple], Sequence[CiphertextTuple]]:
    """Which (sources, targets) pair a shadow round's opening maps between."""
    if round_.opens_input_side:
        return inputs, round_.shadow
    return round_.shadow, outputs


def shuffle_coins_ok(inputs: Sequence[CiphertextTuple], shuffle: TupleShuffle) -> bool:
    """Re-derive the Fiat–Shamir coins and check each round opened the right side."""
    shadows = [round_.shadow for round_ in shuffle.rounds]
    coins = _challenge_bits(inputs, shuffle.outputs, shadows)
    return all(round_.opens_input_side == coins[index] for index, round_ in enumerate(shuffle.rounds))


@dataclass(frozen=True)
class TupleCascade:
    """A cascade of tuple shuffles (one per tallier, the paper uses four)."""

    stages: List[TupleShuffle]

    @property
    def outputs(self) -> List[CiphertextTuple]:
        return self.stages[-1].outputs if self.stages else []


def tuple_mix_cascade(
    elgamal: ElGamal,
    public_key: GroupElement,
    inputs: Sequence[CiphertextTuple],
    num_mixers: int,
    rounds: int = DEFAULT_SOUNDNESS_ROUNDS,
    executor: Optional[Executor] = None,
) -> TupleCascade:
    stages: List[TupleShuffle] = []
    current = list(inputs)
    for index in range(num_mixers):
        with telemetry.span("tally.mix", mixer=index, items=len(current)):
            stage = shuffle_tuples_with_proof(elgamal, public_key, current, rounds=rounds, executor=executor)
        stages.append(stage)
        current = stage.outputs
    return TupleCascade(stages=stages)
