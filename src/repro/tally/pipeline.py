"""The end-to-end tally pipeline with universal verification.

:class:`TallyPipeline` consumes the bulletin board after the voting deadline
and produces a :class:`TallyResult`: per-candidate totals plus every proof an
auditor needs (ballot validity filter, the two mix cascades, the tagging
chains implicit in the filter, and the threshold-decryption shares are
re-checked by :func:`repro.audit.checks.audit_tally`).

Two schedules produce that result, selected by ``pipeline``
(:class:`~repro.runtime.pipeline.PipelineSpec`, configured per election via
``ElectionConfig.pipeline_spec``):

* **serial** (the reference): each phase runs to completion — read + check
  ballots, mix, filter, decrypt;
* **streaming**: cursor-paged ballot shards from the ledger flow through a
  :class:`~repro.runtime.pipeline.StreamPipeline` whose stages are the
  signature check, every mixer of the cascade, blinded-tag derivation, the
  tag join, and threshold decryption — so mixer *i+1* (and everything
  downstream) works on shard *k* while mixer *i* works on shard *k+1* and
  computes its shadow proofs.

Both schedules are bit-identical in everything published: all randomness
that shapes the output (shuffle plans, tagging secrets) is drawn in the
calling thread in the same order on both paths, and everything downstream of
those draws is deterministic.  Only proof *nonces* (decryption-share and
tagging Chaum–Pedersen commitments, RLC batch coefficients) are drawn inside
workers, and none of them appear in the result.

One real barrier remains and is worth documenting: ballot deduplication is
last-write-wins per credential, and the shuffle permutations need the final
ballot count, so the mix cannot start before the ledger read completes.  The
streaming path therefore makes one cursor-paged pass for signature checking
and dedup (itself pipelined), then streams the deduplicated shards through
the cascade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro import telemetry
from repro.audit.evidence import TallyEvidence, build_tally_evidence
from repro.crypto.dkg import DistributedKeyGeneration
from repro.crypto.elgamal import ElGamal, ElGamalCiphertext
from repro.crypto.group import Group
from repro.crypto.hashing import sha256
from repro.crypto.tagging import TaggingAuthority
from repro.errors import TallyError
from repro.ledger.api import BoardView, LedgerBackend, as_board_view
from repro.ledger.bulletin_board import BulletinBoard
from repro.ledger.records import BallotRecord
from repro.runtime.batch import verify_signatures
from repro.runtime.executor import Executor, resolve_executor
from repro.runtime.pipeline import (
    PipelineSpec,
    Shard,
    Stage,
    StreamPipeline,
    iter_shards,
    shard_boundaries,
)
from repro.tally.decrypt import DecryptedVote, aggregate, decrypt_batch, decrypt_votes
from repro.tally.filter import (
    FilterResult,
    TagJoiner,
    blinded_tags,
    deduplicate_ballots,
    filter_ballots,
)
from repro.tally.mixnet import (
    TupleCascade,
    make_mixer_stages,
    plan_tuple_cascade,
    streaming_tuple_mix_cascade,
    tuple_mix_cascade,
)


@dataclass
class TallyResult:
    """The published outcome of a tally run.

    ``evidence`` optionally carries the :class:`~repro.audit.evidence.
    TallyEvidence` bundle (tagging-chain and decryption-share transcripts)
    that lets an external auditor re-check the filter and decryption phases,
    not just the mix cascades; produced when the pipeline runs with
    ``collect_evidence=True``.
    """

    counts: Dict[int, int]
    num_ballots_on_ledger: int
    num_valid_ballots: int
    num_counted: int
    num_discarded: int
    registration_cascade: TupleCascade
    ballot_cascade: TupleCascade
    filter_result: FilterResult
    votes: List[DecryptedVote]
    num_options: int
    evidence: Optional["TallyEvidence"] = None

    @property
    def turnout(self) -> int:
        return self.num_counted

    def winner(self) -> int:
        """The candidate index with the most votes (ties broken by lowest index)."""
        return max(sorted(self.counts), key=lambda option: self.counts[option])


def _ballot_signature_items(records: List[BallotRecord]) -> List[Tuple]:
    """The (public key, message, signature) triples one ballot page verifies."""
    items = []
    for record in records:
        ciphertext = ElGamalCiphertext(record.ciphertext_c1, record.ciphertext_c2)
        message = sha256(
            b"ballot",
            record.election_id.encode(),
            ciphertext.to_bytes(),
            record.credential_public_key.to_bytes(),
        )
        items.append((record.credential_public_key, message, record.signature))
    return items


class _SignaturePageStage(Stage):
    """Batch-verify one cursor page of ballots; emit the valid records."""

    name = "sig-check"

    def __init__(self, executor: Optional[Executor]):
        self.executor = executor

    def process(self, shard: Shard):
        verdicts = verify_signatures(_ballot_signature_items(shard.items), executor=self.executor)
        yield Shard(shard.index, [record for record, ok in zip(shard.items, verdicts) if ok])


@dataclass(eq=False)
class _TagStage(Stage):
    """Derive the blinded tag for each mixed (vote, credential) pair.

    ``proofs`` as in :func:`~repro.tally.filter.blinded_tags`; shards arrive
    in index order on the stage's one thread, so it fills in mixed-pair order.
    """

    tagging: TaggingAuthority
    dkg: DistributedKeyGeneration
    executor: Optional[Executor]
    proofs: Optional[List[tuple]] = None
    name = "blind-tags"

    def process(self, shard: Shard):
        credentials = [credential for _, credential in shard.items]
        with telemetry.span("tally.tag", shard=shard.index, items=len(shard)):
            tags = blinded_tags(
                self.dkg, self.tagging, credentials, executor=self.executor, proofs=self.proofs
            )
        yield Shard(shard.index, [(vote, tag) for (vote, _), tag in zip(shard.items, tags)])


class _JoinStage(Stage):
    """The linear hash join of ballot tags against registration tags (§7.4).

    Stateful and strictly in-order (it consumes one shard at a time from its
    input queue); the join semantics live in the shared
    :class:`~repro.tally.filter.TagJoiner`, the same implementation the
    serial :func:`~repro.tally.filter.filter_ballots` uses — the two
    schedules cannot drift apart.
    """

    name = "tag-join"

    def __init__(self, registration_tags: List[bytes]):
        self.joiner = TagJoiner(registration_tags)

    def process(self, shard: Shard):
        counted = self.joiner.feed(shard.items)
        if counted:
            yield Shard(shard.index, counted)


@dataclass(eq=False)
class _DecryptStage(Stage):
    """Threshold-decrypt the counted vote ciphertexts (``proofs`` fills in counted order)."""

    dkg: DistributedKeyGeneration
    num_options: int
    executor: Optional[Executor]
    proofs: Optional[List[tuple]] = None
    name = "decrypt"

    def process(self, shard: Shard):
        with telemetry.span("tally.decrypt", shard=shard.index, items=len(shard)):
            votes = decrypt_batch(
                self.dkg, shard.items, self.num_options, executor=self.executor, proofs=self.proofs
            )
        yield Shard(shard.index, votes)


@dataclass
class TallyPipeline:
    """Runs the Votegral tally over a bulletin board.

    ``executor`` selects the :mod:`repro.runtime` backend the heavy stages
    (mixing, filtering, decryption, signature checks) fan out over; ``None``
    means the module-wide default (serial unless reconfigured).  ``tagging``
    optionally injects a pre-built :class:`TaggingAuthority` — normally a
    fresh one is drawn per run (reusing a tagging exponent across elections
    would link ballots), but injection enables deterministic replay and lets
    an auditor re-run filtering against a disclosed tagging transcript.
    ``pipeline`` selects the serial or streaming schedule (see the module
    docstring); both publish bit-identical results.
    """

    group: Group
    authority: DistributedKeyGeneration
    num_mixers: int = 4
    proof_rounds: int = 8
    executor: Optional[Executor] = None
    tagging: Optional[TaggingAuthority] = None
    pipeline: Optional[PipelineSpec] = None
    #: Publish tagging-chain and decryption-share transcripts on the result
    #: (:class:`repro.audit.evidence.TallyEvidence`) so external auditors can
    #: re-check filtering and decryption.  Each tag and vote is then derived
    #: once, with its proofs, on the executor: per tag 6M exponents on
    #: ciphertext parts for M authority members where the proof-less path
    #: has 4M, each part raised once for all of its exponents (about 1.2x a
    #: proof-less tally; docs/performance.md, "2b. Shared-base powers"),
    #: hence opt-in.
    collect_evidence: bool = False
    #: Ballot-ledger shard size for the cursor-based reads below.
    read_page_size: int = 1024

    def __post_init__(self) -> None:
        self.elgamal = ElGamal(self.group)

    # ------------------------------------------------------------------ ballots

    def _valid_ballots(
        self,
        board: "Board",
        election_id: str,
        executor: Optional[Executor] = None,
        pipeline: Optional[PipelineSpec] = None,
    ) -> List[BallotRecord]:
        """Signature-check and deduplicate the ballots on the ledger.

        The ledger is consumed through cursor-based shard reads — ingestion
        can keep appending behind the cursor without this stage ever holding
        more than bookkeeping state per shard.  Signatures are checked with
        the random-linear-combination batch verifier per shard: one batched
        equation when every signature is valid (the common case), bisection
        to isolate forgeries otherwise.  With a streaming ``pipeline``, the
        cursor reads and the signature checks overlap (the reader fetches
        page *k+1* while page *k* verifies).
        """
        view = as_board_view(board)
        ex = executor if executor is not None else self.executor
        spec = pipeline if pipeline is not None else self.pipeline
        streaming = spec is not None and spec.streaming
        if streaming:
            pages = (
                Shard(index, page.records)
                for index, page in enumerate(
                    view.iter_ballot_pages(election_id=election_id, page_size=self.read_page_size)
                )
            )
            shards = StreamPipeline(
                [_SignaturePageStage(ex)], queue_depth=spec.queue_depth, name="ballot-read"
            ).run(pages)
            valid = [record for shard in shards for record in shard.items]
            return deduplicate_ballots(valid)
        valid: List[BallotRecord] = []
        for page in view.iter_ballot_pages(election_id=election_id, page_size=self.read_page_size):
            verdicts = verify_signatures(_ballot_signature_items(page.records), executor=ex)
            valid.extend(record for record, ok in zip(page.records, verdicts) if ok)
        return deduplicate_ballots(valid)

    # ------------------------------------------------------------------ main run

    def run(
        self,
        board: "Board",
        num_options: int,
        election_id: str = "default",
        rotations=None,
    ) -> TallyResult:
        """Execute the full tally and return the published result.

        ``board`` may be a :class:`BulletinBoard`, a raw
        :class:`~repro.ledger.api.LedgerBackend` or a read-only
        :class:`~repro.ledger.api.BoardView` — the tally only ever reads.
        ``rotations`` optionally supplies a
        :class:`repro.registration.extensions.RotationRegistry` (Appendix C.2):
        ballots cast with device keys are resolved back to the kiosk-issued
        credential before tag matching, and ballots cast with keys that were
        rotated away from are dropped.
        """
        ex = resolve_executor(self.executor)
        spec = self.pipeline if self.pipeline is not None else PipelineSpec(streaming=False)
        if spec.streaming or ex.name == "remote":
            # Fork/spawn any worker pool while this is still the only thread;
            # the first pipeline (the ledger read below) starts stage threads.
            # For a remote executor this is the enrollment barrier: every
            # worker has warmed its precompute tables before the first shard.
            ex.warm()
        view = as_board_view(board)
        registrations = view.active_registrations()
        if not registrations:
            raise TallyError("no active registrations: nothing to tally")
        # One of the five tally phase spans (sig-check / mix / tag / join /
        # decrypt); the other four are emitted at the point of work in
        # mixnet/filter/decrypt so both schedules produce the same names.
        with telemetry.span("tally.sig-check", election=election_id):
            ballots = self._valid_ballots(view, election_id, executor=ex, pipeline=spec)
        if rotations is not None:
            ballots = [b for b in ballots if not rotations.is_retired(b.credential_public_key)]

        # Registration tags are mixed as 1-tuples; ballots as (vote, credential) pairs.
        registration_inputs = [
            (ElGamalCiphertext(record.public_credential_c1, record.public_credential_c2),)
            for record in registrations
        ]
        # The credential key enters the mix as a *trivial* encryption
        # (randomness 0) so any auditor can re-derive the mix input from the
        # ledger; the first mixer's re-encryption immediately refreshes it.
        def _credential_key(record):
            if rotations is None:
                return record.credential_public_key
            return rotations.resolve(record.credential_public_key)

        ballot_inputs = [
            (
                ElGamalCiphertext(record.ciphertext_c1, record.ciphertext_c2),
                self.elgamal.encrypt(self.authority.public_key, _credential_key(record), randomness=0),
            )
            for record in ballots
        ]

        # num_mixers == 0 must take the serial path: an empty cascade publishes
        # no mixed pairs, so nothing is counted — the streaming stages would
        # otherwise feed raw ballots straight into tagging.
        if spec.streaming and ballot_inputs and self.num_mixers > 0:
            return self._run_streaming(
                view, ballots, registration_inputs, ballot_inputs, num_options, spec, ex
            )

        registration_cascade = self._mix(registration_inputs, spec, ex)
        if ballot_inputs:
            ballot_cascade = self._mix(ballot_inputs, spec, ex)
        else:
            ballot_cascade = TupleCascade(stages=[])

        mixed_registrations = [item[0] for item in (registration_cascade.outputs or registration_inputs)]
        mixed_pairs: List[Tuple[ElGamalCiphertext, ElGamalCiphertext]] = [
            (item[0], item[1]) for item in ballot_cascade.outputs
        ]

        tagging = self.tagging if self.tagging is not None else TaggingAuthority.create(
            self.group, self.authority.num_members
        )
        tag_proofs, vote_proofs = ([], []) if self.collect_evidence else (None, None)
        filter_result = filter_ballots(
            self.authority, tagging, mixed_pairs, mixed_registrations, executor=ex, proofs=tag_proofs
        )

        votes = decrypt_votes(
            self.authority, filter_result.counted, num_options, executor=ex, proofs=vote_proofs
        )
        return self._result(
            view, ballots, registration_cascade, ballot_cascade, filter_result, votes, num_options,
            tagging, mixed_registrations, tag_proofs, vote_proofs,
        )

    # ------------------------------------------------------------------ streaming run

    def _run_streaming(
        self,
        view: BoardView,
        ballots: List[BallotRecord],
        registration_inputs,
        ballot_inputs,
        num_options: int,
        spec: PipelineSpec,
        ex: Executor,
    ) -> TallyResult:
        """The streaming schedule: one pipeline from mix input to decrypted vote.

        Randomness-tape discipline (what keeps this bit-identical to the
        serial path): the draws that shape published output happen in this
        thread in serial-path order — registration-cascade plans, then
        ballot-cascade plans, then the tagging secrets.  The pipeline itself
        only computes deterministic functions of those draws.
        """
        public_key = self.authority.public_key
        registration_cascade = streaming_tuple_mix_cascade(
            self.elgamal, public_key, registration_inputs, self.num_mixers, self.proof_rounds,
            executor=ex, pipeline=spec,
        )
        mixed_registrations = [item[0] for item in (registration_cascade.outputs or registration_inputs)]

        plans = plan_tuple_cascade(
            self.elgamal, len(ballot_inputs), len(ballot_inputs[0]), self.num_mixers, self.proof_rounds
        )
        tagging = self.tagging if self.tagging is not None else TaggingAuthority.create(
            self.group, self.authority.num_members
        )
        # Registration tags first, then the tag stage's shards: the order
        # filter_ballots fills the same list in on the serial schedule.
        tag_proofs, vote_proofs = ([], []) if self.collect_evidence else (None, None)
        registration_tags = blinded_tags(
            self.authority, tagging, mixed_registrations, executor=ex, proofs=tag_proofs
        )

        boundaries = shard_boundaries(len(ballot_inputs), spec.shard_size)
        mixer_stages = make_mixer_stages(self.elgamal, public_key, plans, boundaries, executor=ex)
        join_stage = _JoinStage(registration_tags)
        stages = mixer_stages + [
            _TagStage(tagging, self.authority, ex, tag_proofs),
            join_stage,
            _DecryptStage(self.authority, num_options, ex, vote_proofs),
        ]
        vote_shards = StreamPipeline(stages, queue_depth=spec.queue_depth, name="tally").run(
            iter_shards(ballot_inputs, spec.shard_size)
        )
        votes: List[DecryptedVote] = [vote for shard in vote_shards for vote in shard.items]

        ballot_cascade = TupleCascade(stages=[stage.result for stage in mixer_stages])

        return self._result(
            view, ballots, registration_cascade, ballot_cascade, join_stage.joiner.result(), votes, num_options,
            tagging, mixed_registrations, tag_proofs, vote_proofs,
        )

    # ------------------------------------------------------------------ helpers

    def _mix(self, inputs, spec: PipelineSpec, ex: Executor) -> TupleCascade:
        if spec.streaming and inputs:
            return streaming_tuple_mix_cascade(
                self.elgamal, self.authority.public_key, inputs, self.num_mixers, self.proof_rounds,
                executor=ex, pipeline=spec,
            )
        return tuple_mix_cascade(
            self.elgamal, self.authority.public_key, inputs, self.num_mixers, self.proof_rounds,
            executor=ex,
        )

    def _result(
        self, view, ballots, registration_cascade, ballot_cascade, filter_result, votes, num_options,
        tagging, mixed_registrations, tag_proofs, vote_proofs,
    ) -> TallyResult:
        """The published result, with the audit evidence when opted in.

        The evidence derives nothing: the tag and decrypt workers proved each
        value as they computed it and the join and the vote list were read off
        those results, so the evidence tags *are* the ones the filter joined on.
        """
        evidence = None
        if self.collect_evidence:
            credentials = [item[1] for item in ballot_cascade.outputs]
            evidence = build_tally_evidence(
                self.authority, tagging, mixed_registrations, credentials, filter_result.counted,
                tag_proofs, vote_proofs,
            )
        return TallyResult(
            counts=aggregate(votes, num_options),
            num_ballots_on_ledger=view.num_ballots,
            num_valid_ballots=len(ballots),
            num_counted=len(filter_result.counted),
            num_discarded=filter_result.discarded + filter_result.duplicate_tags,
            registration_cascade=registration_cascade,
            ballot_cascade=ballot_cascade,
            filter_result=filter_result,
            votes=votes,
            num_options=num_options,
            evidence=evidence,
        )


#: Anything the tally can read a board from: the facade, a raw backend, or a view.
Board = Union[BulletinBoard, LedgerBackend, BoardView]

