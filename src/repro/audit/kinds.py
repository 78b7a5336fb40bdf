"""The check-kind table: reference predicates and their batch folds.

:data:`KINDS` names every kind a plan builder in :mod:`repro` emits, and no
other.  Each kind has:

* ``verify_one(*evidence) -> bool`` — the reference predicate, exactly what
  the scattered ``verify_*`` functions used to compute.  The eager strategy
  runs this and nothing else.
* ``fold(evidences) -> bool`` (optional) — a whole-batch accept/reject that
  collapses many same-kind checks into one random-linear-combination
  product (:mod:`repro.runtime.batch`).  Folds are *complete* (every valid
  batch accepts) and *sound up to the RLC bound* (an invalid batch rejects
  except with probability ``2^-|w|``);
  :func:`~repro.runtime.batch.fold_verdicts` bisects a rejected batch down
  to exact per-check verdicts, so batched and eager strategies report
  identical outcomes.

Foldable kinds — Schnorr signatures (ballots, registration records,
rotation records), dlog proofs, shuffle-round openings, decryption shares
and the ciphertext tagging chain — are what closes the "batch verification
everywhere" roadmap item: every hot ``verify=True`` path in the system lands
in one of these folds.

Evidence tuples contain only picklable values (group elements, dataclass
transcripts, snapshots — never live objects with callbacks), so plans can
fan out across cluster workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.chaum_pedersen import verify_decryption_share
from repro.crypto.dlog_proof import verify_dlog
from repro.crypto.schnorr import schnorr_verify
from repro.crypto.tagging import ciphertext_tag_chain_transcripts, verify_ciphertext_tag_chain
from repro.ledger.log import AppendOnlyLog
from repro.runtime.batch import (
    batch_chaum_pedersen_verify,
    batch_decryption_share_verify,
    batch_dlog_verify,
    batch_reencryption_verify,
    batch_schnorr_verify,
    fold_verdicts,
)
from repro.runtime.executor import Executor, chunk_evenly, resolve_executor

if TYPE_CHECKING:  # avoid importing the api module at runtime here
    from repro.audit.api import Check, CheckResult  # noqa: F401
    from repro.audit.evidence import DecryptionTranscript
    from repro.crypto.group import Group, GroupElement


@dataclass(frozen=True)
class CheckKind:
    """One evidence class: its reference predicate and batch fold."""

    verify_one: Callable[..., bool]
    fold: Optional[Callable[[Sequence[Tuple[Any, ...]]], bool]] = None


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


def _chunk_verdicts_named(kind_name: str, evidences: Sequence[Tuple[Any, ...]]) -> List[bool]:
    """Per-evidence verdicts for one same-kind chunk, by kind *name* (module-level
    so executors can pickle it): the kind's fold, bisected on rejection
    (:func:`repro.runtime.batch.fold_verdicts`)."""
    kind = get_kind(kind_name)
    return fold_verdicts(evidences, kind.verify_one, kind.fold)


def evaluate_batched(
    checks: Sequence["Check"],
    chunk_size: int = 256,
    executor: Optional[Executor] = None,
) -> List["CheckResult"]:
    """Batched-strategy evaluation of ``checks``: results in input order.

    Checks are grouped by kind, and each kind is cut into
    ``max(⌈n/chunk_size⌉, executor.num_workers)`` contiguous chunks, so no
    worker of a cluster sits out a kind.  Every chunk of every kind goes to
    ``executor`` in one ``starmap`` — one round trip on a cluster — where
    :func:`_chunk_verdicts_named` folds a foldable kind's chunk into one RLC
    equation (bisecting on rejection) and runs the reference predicate on a
    fold-less one or a lone check.  Verdicts are placed back at their
    original plan positions, so the returned results are indistinguishable
    from an eager run's (that invariant is what the equivalence tests pin).
    """
    from repro.audit.api import _result_for

    ex = resolve_executor(executor)
    by_kind: Dict[str, List[int]] = {}
    for index, check in enumerate(checks):
        by_kind.setdefault(check.kind, []).append(index)
    chunks: List[Tuple[str, List[int]]] = []
    for kind_name, indices in by_kind.items():
        get_kind(kind_name)  # an unknown kind fails here, not on a worker
        count = max(-(-len(indices) // chunk_size), ex.num_workers)
        chunks.extend((kind_name, chunk) for chunk in chunk_evenly(indices, count))
    outcome_lists = ex.starmap(
        _chunk_verdicts_named,
        [(kind_name, [checks[i].evidence for i in chunk]) for kind_name, chunk in chunks],
        chunksize=1,
    )
    verdicts: List[bool] = [False] * len(checks)
    for (_, chunk), outcomes in zip(chunks, outcome_lists):
        for i, outcome in zip(chunk, outcomes):
            verdicts[i] = outcome
    return [_result_for(check, verdict) for check, verdict in zip(checks, verdicts)]


# ---------------------------------------------------------------------------
# Kind implementations
# ---------------------------------------------------------------------------


def _schnorr_fold(evidences: Sequence[Tuple[Any, ...]]) -> bool:
    return batch_schnorr_verify(list(evidences))


def _dlog_fold(evidences: Sequence[Tuple[Any, ...]]) -> bool:
    return batch_dlog_verify(list(evidences))


def _shuffle_round_one(elgamal, public_key, sources, targets, opening) -> bool:
    from repro.tally.mixnet import check_round_mapping

    return check_round_mapping(elgamal, public_key, sources, targets, opening)


def _shuffle_round_fold(evidences: Sequence[Tuple[Any, ...]]) -> bool:
    # Collect every opening's re-encryption items (structural checks first)
    # and fold them per public key: items from many rounds of many stages
    # land in the same product, which is where the batch saves most.
    from repro.tally.mixnet import round_mapping_items

    grouped: Dict[bytes, Tuple[Any, Any, List[Any]]] = {}
    for elgamal, public_key, sources, targets, opening in evidences:
        items = round_mapping_items(sources, targets, opening)
        if items is None:
            return False
        key = public_key.to_bytes()
        if key not in grouped:
            grouped[key] = (elgamal, public_key, [])
        grouped[key][2].extend(items)
    return all(
        batch_reencryption_verify(elgamal, public_key, items)
        for elgamal, public_key, items in grouped.values()
    )


def _ciphertext_tag_chain_fold(evidences: Sequence[Tuple[Any, ...]]) -> bool:
    transcripts = []
    for steps, original, final, commitments in evidences:
        chain = ciphertext_tag_chain_transcripts(steps, original, final, commitments)
        if chain is None:
            return False
        transcripts.extend(chain)
    return batch_chaum_pedersen_verify(transcripts)


def _decryption_share_fold(evidences: Sequence[Tuple[Any, ...]]) -> bool:
    return batch_decryption_share_verify(list(evidences))


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
    "schnorr": CheckKind(schnorr_verify, _schnorr_fold),
    "dlog": CheckKind(verify_dlog, _dlog_fold),
    "wellformedness": CheckKind(_wellformedness_one),
    "shuffle-coins": CheckKind(_shuffle_coins_one),
    "shuffle-round": CheckKind(_shuffle_round_one, _shuffle_round_fold),
    "ciphertext-tag-chain": CheckKind(_ciphertext_tag_chain_one, _ciphertext_tag_chain_fold),
    "decryption-share": CheckKind(verify_decryption_share, _decryption_share_fold),
    "ledger-chain": CheckKind(_ledger_chain_one),
    "predicate": CheckKind(_predicate_one),
}
