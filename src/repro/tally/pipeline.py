"""The end-to-end tally pipeline with universal verification.

:class:`TallyPipeline` consumes the bulletin board after the voting deadline
and produces a :class:`TallyResult`: per-candidate totals plus every proof an
auditor needs (ballot validity filter, the two mix cascades, the tagging
chains implicit in the filter, and the threshold-decryption shares are
re-checked by :func:`repro.audit.checks.audit_tally`).

There is one schedule, the paper's four linear phases (§4.2, §7.4, Fig. 5b):
read + signature-check the ballots, mix registrations and ballots, filter
(tag + join), decrypt.  Each phase fans out n-wide over the executor and runs
to completion before the next starts — once a phase has at least as many
items as there are workers no core is left idle for a neighbouring phase to
use, so overlapping phases would only add small tasks and thread contention
(measured in ``docs/performance.md``, layer 5).

``pipeline`` (:class:`~repro.runtime.pipeline.PipelineSpec`, configured per
election via ``ElectionConfig.pipeline_spec``) selects one thing, inside the
first phase: with ``stream[:queue_depth]`` the cursor-paged ledger read runs
one page ahead of the signature check through a one-stage
:class:`~repro.runtime.pipeline.StreamPipeline` (``ballot-read``), at most
``queue_depth`` pages in flight.  Nothing published depends on it: all
randomness that shapes the output (shuffle plans, tagging secrets) is drawn
in the calling thread in one order, and everything downstream of those draws
is deterministic.  Only proof *nonces* (decryption-share and tagging
Chaum–Pedersen commitments, RLC batch coefficients) are drawn inside workers,
and none of them appear in the result.

The read cannot stream any further than that: ballot deduplication is
last-write-wins per credential, and the shuffle permutations need the final
ballot count, so the mix cannot start before the ledger read completes.
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
from repro.runtime.pipeline import PipelineSpec, Shard, Stage, StreamPipeline
from repro.tally.decrypt import DecryptedVote, aggregate, decrypt_votes
from repro.tally.filter import FilterResult, deduplicate_ballots, filter_ballots
from repro.tally.mixnet import TupleCascade, tuple_mix_cascade

# Never called: benchmarks/e2e/layers.py:42 installs a wrapper on this name
# and may not change in a non-[benchmark] PR (ROADMAP item 1(b) removes both).
streaming_tuple_mix_cascade = tuple_mix_cascade


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


def _signed_records(records: List[BallotRecord], executor: Optional[Executor]) -> List[BallotRecord]:
    """Batch-verify one cursor page of ballots; keep the validly signed records."""
    verdicts = verify_signatures(_ballot_signature_items(records), executor=executor)
    return [record for record, ok in zip(records, verdicts) if ok]


class _SignaturePageStage(Stage):
    """:func:`_signed_records` as the one stage of the ``ballot-read`` pipeline."""

    name = "sig-check"

    def __init__(self, executor: Optional[Executor]):
        self.executor = executor

    def process(self, shard: Shard):
        yield Shard(shard.index, _signed_records(shard.items, self.executor))


@dataclass
class TallyPipeline:
    """Runs the Votegral tally over a bulletin board.

    ``executor`` selects the :mod:`repro.runtime` backend the heavy stages
    (mixing, filtering, decryption, signature checks) fan out over; ``None``
    runs them in process on the serial executor
    (:func:`repro.runtime.executor.resolve_executor`).  ``tagging``
    optionally injects a pre-built :class:`TaggingAuthority` — normally a
    fresh one is drawn per run (reusing a tagging exponent across elections
    would link ballots), but injection enables deterministic replay and lets
    an auditor re-run filtering against a disclosed tagging transcript.
    ``pipeline`` says whether the ledger read runs a page ahead of the
    signature check (see the module docstring); the result is bit-identical.
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
    ) -> List[BallotRecord]:
        """Signature-check and deduplicate the ballots on the ledger.

        The ledger is consumed through cursor-based page reads — ingestion
        can keep appending behind the cursor without this stage ever holding
        more than bookkeeping state per page.  Signatures are checked with
        the random-linear-combination batch verifier per page: one batched
        equation when every signature is valid (the common case), bisection
        to isolate forgeries otherwise.  With a streaming ``pipeline``, the
        cursor reads and the signature checks overlap (the reader fetches
        page *k+1* while page *k* verifies).
        """
        ex = executor if executor is not None else self.executor
        pages = as_board_view(board).iter_ballot_pages(
            election_id=election_id, page_size=self.read_page_size
        )
        if self.pipeline is not None and self.pipeline.streaming:
            shards = StreamPipeline(
                [_SignaturePageStage(ex)], queue_depth=self.pipeline.queue_depth, name="ballot-read"
            ).run(Shard(index, page.records) for index, page in enumerate(pages))
            checked = (shard.items for shard in shards)
        else:
            checked = (_signed_records(page.records, ex) for page in pages)
        return deduplicate_ballots([record for page in checked for record in page])

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
        # On a cluster, the enrollment barrier: every worker has warmed its
        # precompute tables before the first shard.  A no-op in process.
        ex.warm()
        view = as_board_view(board)
        registrations = view.active_registrations()
        if not registrations:
            raise TallyError("no active registrations: nothing to tally")
        # One of the five tally phase spans (sig-check / mix / tag / join /
        # decrypt); the other four are emitted at the point of work in
        # mixnet/filter/decrypt.
        with telemetry.span("tally.sig-check", election=election_id):
            ballots = self._valid_ballots(view, election_id, executor=ex)
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

        registration_cascade = self._mix(registration_inputs, ex)
        ballot_cascade = self._mix(ballot_inputs, ex) if ballot_inputs else TupleCascade(stages=[])

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

    # ------------------------------------------------------------------ helpers

    def _mix(self, inputs, ex: Executor) -> TupleCascade:
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

