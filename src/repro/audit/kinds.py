"""The check-kind table: reference predicates and the equations they fold to.

:data:`KINDS` names every kind a plan builder in :mod:`repro` emits, and no
other.  Each kind has:

* ``verify_one(*evidence) -> bool`` — the reference predicate, exactly what
  the scattered ``verify_*`` functions used to compute.  The eager strategy
  runs this and nothing else.
* ``equations(*evidence)`` (foldable kinds only) — the check's proof
  equations as :mod:`repro.runtime.batch` states them, or ``None`` when the
  evidence is structurally invalid (a bad permutation, a broken chain link).

The batched strategy (:func:`evaluate_batched`) deals every kind evenly over
its chunks.  In a chunk, the equations of every foldable check, whatever its
kind, go into **one** random-linear-combination fold
(``runtime.batch._fold``: one left-hand and one right-hand product); an
invalid statement rejects that fold.  A fold is *complete* (every valid
chunk accepts) and *sound up to the RLC bound* (a chunk with a false
equation rejects except with probability ``2^-|w|``), and
:func:`~repro.runtime.batch.fold_verdicts` bisects a rejected chunk down to
lone checks judged by their reference predicates, so batched and eager
strategies report identical outcomes.  Fold-less kinds run their reference
predicate in the chunk.

Foldable kinds — Schnorr signatures (ballots, registration records,
rotation records), dlog proofs, shuffle-round openings, decryption shares
and the ciphertext tagging chain — are what closes the "batch verification
everywhere" roadmap item: every hot ``verify=True`` path in the system lands
in a fold.

Evidence tuples contain only picklable values (group elements, dataclass
transcripts, snapshots — never live objects with callbacks), so plans can
fan out across cluster workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.crypto.chaum_pedersen import verify_decryption_share
from repro.crypto.dlog_proof import verify_dlog
from repro.crypto.schnorr import schnorr_verify
from repro.crypto.tagging import ciphertext_tag_chain_transcripts, verify_ciphertext_tag_chain
from repro.ledger.log import AppendOnlyLog
from repro.runtime.batch import (
    DEFAULT_WEIGHT_BITS,
    Equation,
    _fold,
    chaum_pedersen_equations,
    decryption_share_equations,
    dlog_equations,
    fold_verdicts,
    reencryption_equations,
    schnorr_equations,
)
from repro.runtime.executor import Executor, resolve_executor

if TYPE_CHECKING:  # avoid importing the api module at runtime here
    from repro.audit.api import Check, CheckResult  # noqa: F401
    from repro.audit.evidence import DecryptionTranscript
    from repro.crypto.group import Group, GroupElement


#: A check's proof equations, or ``None`` when its evidence is structurally invalid.
Statement = Optional[List[Equation]]


@dataclass(frozen=True)
class CheckKind:
    """One evidence class: its reference predicate and, if it folds, its equations."""

    verify_one: Callable[..., bool]
    equations: Optional[Callable[..., Statement]] = None


def get_kind(name: str) -> CheckKind:
    try:
        return KINDS[name]
    except KeyError:
        raise ValueError(f"unknown audit check kind {name!r}") from None


def verdict_one(check: "Check") -> bool:
    """The reference verdict for one check (module-level, picklable)."""
    return bool(get_kind(check.kind).verify_one(*check.evidence))


# ---------------------------------------------------------------------------
# Batched evaluation
# ---------------------------------------------------------------------------


def _verdict_stated(kind_name: str, evidence: Tuple[Any, ...], statement: Statement) -> bool:
    return bool(get_kind(kind_name).verify_one(*evidence))


def _fold_stated(items: Sequence[Tuple[str, Tuple[Any, ...], Statement]]) -> bool:
    """Whether every ``(kind name, evidence, statement)`` item's equations
    hold, up to the RLC bound: one fold per group (a plan has one), and an
    invalid statement rejects."""
    by_group: Dict["Group", List[Equation]] = {}
    stated: Dict[str, int] = {}
    for kind_name, _, statement in items:
        if statement is None:
            return False
        if statement:
            # The group of the first equation's first left-hand base.
            by_group.setdefault(statement[0][0][0][0].group, []).extend(statement)
            stated[kind_name] = stated.get(kind_name, 0) + len(statement)
    if telemetry.enabled():
        for kind_name, count in stated.items():
            telemetry.counter("audit.fold.equations", count, kind=kind_name)
    return all(_fold(group, equations, DEFAULT_WEIGHT_BITS) for group, equations in by_group.items())


def _chunk_verdicts_named(kind_names: Sequence[str], evidences: Sequence[Tuple[Any, ...]]) -> List[bool]:
    """Per-check verdicts for one chunk, by kind *name* (module-level so
    executors can pickle it): every foldable check's equations in one fold,
    bisected on rejection (:func:`repro.runtime.batch.fold_verdicts`), and
    the reference predicate for the rest."""
    kinds = [get_kind(name) for name in kind_names]
    foldable = [position for position, kind in enumerate(kinds) if kind.equations is not None]
    items = [(kind_names[p], evidences[p], kinds[p].equations(*evidences[p])) for p in foldable]
    folded = dict(zip(foldable, fold_verdicts(items, _verdict_stated, _fold_stated)))
    return [
        folded[position] if position in folded else bool(kind.verify_one(*evidences[position]))
        for position, kind in enumerate(kinds)
    ]


def evaluate_batched(
    checks: Sequence["Check"],
    chunk_size: int = 256,
    executor: Optional[Executor] = None,
) -> List["CheckResult"]:
    """Batched-strategy evaluation of ``checks``: results in input order.

    The plan is cut into ``max(⌈n/chunk_size⌉, num_workers)`` chunks, rounded
    up to a multiple of ``executor.num_workers``, and its checks, grouped by
    kind, are dealt round the chunks like cards: every kind spreads evenly
    over every worker, and no chunk exceeds ``chunk_size``.  Every chunk goes
    to ``executor`` in one ``starmap`` — one round trip on a cluster — where
    :func:`_chunk_verdicts_named` folds its foldable checks, of every kind,
    into one RLC equation (bisecting on rejection) and runs the reference
    predicate on the rest.  Verdicts are placed back at their original plan
    positions, so the returned results are indistinguishable from an eager
    run's (that invariant is what the equivalence tests pin).
    """
    from repro.audit.api import _result_for

    ex = resolve_executor(executor)
    by_kind: Dict[str, List[int]] = {}
    for index, check in enumerate(checks):
        by_kind.setdefault(check.kind, []).append(index)
    for kind_name in by_kind:
        get_kind(kind_name)  # an unknown kind fails here, not on a worker
    workers = ex.num_workers
    count = max(-(-len(checks) // chunk_size), workers)
    count += -count % workers  # a multiple of the workers: none sits out a kind
    dealt = [index for indices in by_kind.values() for index in indices]
    chunks = [chunk for chunk in (dealt[start::count] for start in range(count)) if chunk]
    outcome_lists = ex.starmap(
        _chunk_verdicts_named,
        [([checks[i].kind for i in chunk], [checks[i].evidence for i in chunk]) for chunk in chunks],
        chunksize=1,
    )
    verdicts: List[bool] = [False] * len(checks)
    for chunk, outcomes in zip(chunks, outcome_lists):
        for i, outcome in zip(chunk, outcomes):
            verdicts[i] = outcome
    return [_result_for(check, verdict) for check, verdict in zip(checks, verdicts)]


# ---------------------------------------------------------------------------
# Kind implementations
# ---------------------------------------------------------------------------


def _shuffle_round_one(elgamal, public_key, sources, targets, opening) -> bool:
    from repro.tally.mixnet import check_round_mapping

    return check_round_mapping(elgamal, public_key, sources, targets, opening)


def _shuffle_round_equations(elgamal, public_key, sources, targets, opening) -> Statement:
    from repro.tally.mixnet import round_mapping_items

    items = round_mapping_items(sources, targets, opening)
    return None if items is None else reencryption_equations(elgamal, public_key, items)


def _ciphertext_tag_chain_equations(steps, original, final, commitments) -> Statement:
    transcripts = ciphertext_tag_chain_transcripts(steps, original, final, commitments)
    return None if transcripts is None else chaum_pedersen_equations(transcripts)


def _wellformedness_one(group, public_key, ciphertext, proof, num_options) -> bool:
    from repro.voting.ballot import wellformedness_ok

    return wellformedness_ok(group, public_key, ciphertext, proof, num_options)


def _ledger_chain_one(name, entries) -> bool:
    return AppendOnlyLog.verify_entries(entries)


def _ciphertext_tag_chain_one(steps, original, final, commitments) -> bool:
    return verify_ciphertext_tag_chain(steps, original, final, commitments)


def _shuffle_coins_one(inputs, shuffle) -> bool:
    from repro.tally.mixnet import shuffle_coins_ok

    return shuffle_coins_ok(inputs, shuffle)


def _predicate_one(fn, *args) -> bool:
    return bool(fn(*args))


# The functions ``predicate`` checks ship: module-level so a pickled check
# names them here, and unpickling one never imports the plan builder.


def _values_equal(left, right) -> bool:
    return left == right


def _int_le(left: int, right: int) -> bool:
    return left <= right


def _contains(collection, value) -> bool:
    return value in collection


def _is_present(value) -> bool:
    return value is not None


def _product_binds(factors: Sequence[GroupElement], expected: GroupElement) -> bool:
    """Do the member public keys multiply to the collective authority key?"""
    if not factors:
        return False
    accumulator = factors[0].group.identity
    for factor in factors:
        accumulator = accumulator * factor
    return accumulator == expected


def _transcript_value_is(transcript: DecryptionTranscript, expected: GroupElement) -> bool:
    return transcript.plaintext() == expected


def _tag_bytes_match(tag: GroupElement, expected: bytes) -> bool:
    return tag.to_bytes() == expected


def _join_consistent(registration_tag_bytes, tagged_votes, filter_result) -> bool:
    """Re-run the linear hash join over *verified* tags; compare to the claim.

    ``registration_tag_bytes``/``tagged_votes`` come from evidence whose
    tagging chains and decryptions the plan verifies independently, so this
    predicate binds the published counted/discarded/duplicate outcome to the
    verified cascade outputs end to end.
    """
    from repro.tally.filter import TagJoiner

    joiner = TagJoiner(list(registration_tag_bytes))
    joiner.feed(list(tagged_votes))
    rejoined = joiner.result()
    return (
        rejoined.counted == list(filter_result.counted)
        and rejoined.discarded == filter_result.discarded
        and rejoined.duplicate_tags == filter_result.duplicate_tags
    )


def _vote_decodes(
    group: Group, transcript: DecryptionTranscript, num_options: int, expected_choice: int
) -> bool:
    try:
        choice = group.decode_int(transcript.plaintext(), max_value=num_options - 1)
    except ValueError:
        return False
    return choice == expected_choice


#: Every check kind, by the name a :class:`~repro.audit.api.Check` carries.
KINDS: Dict[str, CheckKind] = {
    "schnorr": CheckKind(schnorr_verify, lambda *evidence: schnorr_equations([evidence])),
    "dlog": CheckKind(verify_dlog, lambda *evidence: dlog_equations([evidence])),
    "wellformedness": CheckKind(_wellformedness_one),
    "shuffle-coins": CheckKind(_shuffle_coins_one),
    "shuffle-round": CheckKind(_shuffle_round_one, _shuffle_round_equations),
    "ciphertext-tag-chain": CheckKind(_ciphertext_tag_chain_one, _ciphertext_tag_chain_equations),
    "decryption-share": CheckKind(verify_decryption_share, lambda *evidence: decryption_share_equations([evidence])),
    "ledger-chain": CheckKind(_ledger_chain_one),
    "predicate": CheckKind(_predicate_one),
}
