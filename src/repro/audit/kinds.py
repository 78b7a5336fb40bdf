"""The check-kind registry: reference predicates and their batch folds.

Each kind registers:

* ``verify_one(*evidence) -> bool`` — the reference predicate, exactly what
  the scattered ``verify_*`` functions used to compute.  The eager strategy
  runs this and nothing else.
* ``fold(evidences) -> bool`` (optional) — a whole-batch accept/reject that
  collapses many same-kind checks into one random-linear-combination
  product (:mod:`repro.runtime.batch`).  Folds are *complete* (every valid
  batch accepts) and *sound up to the RLC bound* (an invalid batch rejects
  except with probability ``2^-|w|``); :func:`chunk_verdicts` bisects a
  rejected batch down to exact per-check verdicts, so batched and eager
  strategies report identical outcomes.

Foldable kinds — Schnorr signatures (ballots, registration records,
rotation records), Chaum–Pedersen transcripts, dlog proofs, shuffle-round
openings, decryption shares, and both tagging-chain families — are what
closes the "batch verification everywhere" roadmap item: every hot
``verify=True`` path in the system now lands in one of these folds.

Evidence tuples contain only picklable values (group elements, dataclass
transcripts, snapshots — never live objects with callbacks), so plans can
fan out across cluster workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.chaum_pedersen import (
    chaum_pedersen_verify,
    fiat_shamir_challenge,
    fiat_shamir_verify,
)
from repro.crypto.dlog_proof import verify_dlog
from repro.crypto.schnorr import schnorr_verify
from repro.crypto.tagging import (
    ciphertext_tag_chain_transcripts,
    tag_chain_transcripts,
    verify_blinded_tag,
    verify_ciphertext_tag_chain,
)
from repro.ledger.backends.batched import verify_batch_chain
from repro.ledger.log import AppendOnlyLog
from repro.runtime.batch import (
    batch_chaum_pedersen_verify,
    batch_decryption_share_verify,
    batch_dlog_verify,
    batch_reencryption_verify,
    batch_schnorr_verify,
    decryption_share_transcript,
)
from repro.runtime.executor import Executor, chunk_evenly, resolve_executor

if TYPE_CHECKING:  # avoid importing the api module at runtime here
    from repro.audit.api import Check, CheckResult  # noqa: F401


@dataclass(frozen=True)
class CheckKind:
    """One registered evidence class: its reference predicate and batch fold."""

    name: str
    verify_one: Callable[..., bool]
    fold: Optional[Callable[[Sequence[Tuple[Any, ...]]], bool]] = None


KINDS: Dict[str, CheckKind] = {}


def register_kind(
    name: str,
    verify_one: Callable[..., bool],
    fold: Optional[Callable[[Sequence[Tuple[Any, ...]]], bool]] = None,
) -> CheckKind:
    """Register (or replace) a check kind; returns the registry entry."""
    kind = CheckKind(name=name, verify_one=verify_one, fold=fold)
    KINDS[name] = kind
    return kind


def get_kind(name: str) -> CheckKind:
    try:
        return KINDS[name]
    except KeyError:
        raise ValueError(f"unknown audit check kind {name!r}") from None


def verdict_one(check: "Check") -> bool:
    """The reference verdict for one check (module-level, picklable)."""
    return bool(get_kind(check.kind).verify_one(*check.evidence))


# ---------------------------------------------------------------------------
# Batched evaluation with bisection
# ---------------------------------------------------------------------------


def _bisect_verdicts(
    kind: CheckKind, evidences: Sequence[Tuple[Any, ...]]
) -> List[bool]:
    """Exact per-evidence verdicts: fold fast path, bisect only on rejection.

    A lone evidence folds too — its equations share one multi-exponentiation
    where the reference predicate takes a plain power each — and a lone
    rejection is the reference predicate's to pronounce.
    """
    if not evidences:
        return []
    assert kind.fold is not None
    if kind.fold(evidences):
        return [True] * len(evidences)
    if len(evidences) == 1:
        return [bool(kind.verify_one(*evidences[0]))]
    middle = len(evidences) // 2
    return _bisect_verdicts(kind, evidences[:middle]) + _bisect_verdicts(kind, evidences[middle:])


def chunk_verdicts(kind: CheckKind, evidences: Sequence[Tuple[Any, ...]]) -> List[bool]:
    """Per-evidence verdicts for one same-kind chunk (folded when possible)."""
    if kind.fold is None:
        return [bool(kind.verify_one(*evidence)) for evidence in evidences]
    return _bisect_verdicts(kind, evidences)


def _chunk_verdicts_named(kind_name: str, evidences: Sequence[Tuple[Any, ...]]) -> List[bool]:
    """Chunk evaluation by kind *name* — module-level so executors can pickle it."""
    return chunk_verdicts(get_kind(kind_name), evidences)


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
    :func:`chunk_verdicts` folds a foldable kind's chunk into one RLC
    equation (bisecting on rejection) and runs the reference predicate on a
    fold-less one.  Verdicts are placed back at their original plan
    positions, so the returned results are indistinguishable from an eager
    run's (that invariant is what the equivalence tests pin).
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


def _chaum_pedersen_one(transcript, context=None) -> bool:
    if context is None:
        return chaum_pedersen_verify(transcript)
    return fiat_shamir_verify(transcript, context=context)


def _chaum_pedersen_fold(evidences: Sequence[Tuple[Any, ...]]) -> bool:
    # Structural pass: non-interactive transcripts must carry their
    # Fiat–Shamir challenge; then every transcript's two equations fold.
    transcripts = []
    for evidence in evidences:
        transcript = evidence[0]
        context = evidence[1] if len(evidence) > 1 else None
        if context is not None:
            expected = fiat_shamir_challenge(transcript.statement, transcript.commit, context)
            if transcript.challenge != expected:
                return False
        transcripts.append(transcript)
    return batch_chaum_pedersen_verify(transcripts, context=None)


def _dlog_fold(evidences: Sequence[Tuple[Any, ...]]) -> bool:
    return batch_dlog_verify([(proof, context) for proof, context in evidences])


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


def _tag_chain_fold(evidences: Sequence[Tuple[Any, ...]]) -> bool:
    transcripts = []
    for tag, original, commitments in evidences:
        chain = tag_chain_transcripts(tag, original, commitments)
        if chain is None:
            return False
        transcripts.extend(chain)
    return batch_chaum_pedersen_verify(transcripts, context=None)


def _ciphertext_tag_chain_fold(evidences: Sequence[Tuple[Any, ...]]) -> bool:
    transcripts = []
    for steps, original, final, commitments in evidences:
        chain = ciphertext_tag_chain_transcripts(steps, original, final, commitments)
        if chain is None:
            return False
        transcripts.extend(chain)
    return batch_chaum_pedersen_verify(transcripts, context=None)


def _decryption_share_one(public_share, ciphertext, share) -> bool:
    transcript = decryption_share_transcript(public_share, ciphertext, share)
    return chaum_pedersen_verify(transcript)


def _decryption_share_fold(evidences: Sequence[Tuple[Any, ...]]) -> bool:
    return batch_decryption_share_verify(list(evidences))


def _wellformedness_one(group, public_key, ciphertext, proof, num_options) -> bool:
    from repro.voting.ballot import wellformedness_ok

    return wellformedness_ok(group, public_key, ciphertext, proof, num_options)


def _ledger_chain_one(name, entries) -> bool:
    return AppendOnlyLog.verify_entries(entries)


def _batch_chain_one(batches) -> bool:
    return verify_batch_chain(batches)


def _tag_chain_one(tag, original, commitments) -> bool:
    return verify_blinded_tag(tag, original, commitments)


def _ciphertext_tag_chain_one(steps, original, final, commitments) -> bool:
    return verify_ciphertext_tag_chain(steps, original, final, commitments)


def _shuffle_coins_one(inputs, shuffle) -> bool:
    from repro.tally.mixnet import shuffle_coins_ok

    return shuffle_coins_ok(inputs, shuffle)


def _predicate_one(fn, *args) -> bool:
    return bool(fn(*args))


register_kind("schnorr", schnorr_verify, _schnorr_fold)
register_kind("chaum-pedersen", _chaum_pedersen_one, _chaum_pedersen_fold)
register_kind("dlog", verify_dlog, _dlog_fold)
register_kind("wellformedness", _wellformedness_one)
register_kind("shuffle-coins", _shuffle_coins_one)
register_kind("shuffle-round", _shuffle_round_one, _shuffle_round_fold)
register_kind("tag-chain", _tag_chain_one, _tag_chain_fold)
register_kind("ciphertext-tag-chain", _ciphertext_tag_chain_one, _ciphertext_tag_chain_fold)
register_kind("decryption-share", _decryption_share_one, _decryption_share_fold)
register_kind("ledger-chain", _ledger_chain_one)
register_kind("batch-chain", _batch_chain_one)
register_kind("predicate", _predicate_one)
