"""The end-to-end tally pipeline with universal verification.

:class:`TallyPipeline` consumes the bulletin board after the voting deadline
and produces a :class:`TallyResult`: per-candidate totals plus every proof an
auditor needs (ballot validity filter, the two mix cascades, the tagging
chains implicit in the filter, and the threshold-decryption shares are
re-checked by :func:`repro.audit.checks.audit_tally`).

There is one schedule, the paper's four linear phases (§4.2, §7.4, Fig. 5b):
read the ballots and signature-check the ones that can count, mix
registrations and ballots, filter (tag + join), decrypt.  Each phase fans out
n-wide over the executor and runs to completion before the next starts — once
a phase has at least as many items as there are workers no core is left idle
for a neighbouring phase to use, so overlapping phases would only add small
tasks and thread contention (measured in ``docs/performance.md``, layer 5).

The signature check follows last-write-wins: a credential's newest valid
ballot counts, so the check starts from each credential's oldest and newest
ballot and checks the ballots between them only where one of those is
forged — two signatures per credential on a revoting ledger, not one per
ballot.

``pipeline`` (:class:`~repro.runtime.pipeline.PipelineSpec`, configured per
election via ``ElectionConfig.pipeline_spec``) selects one thing, inside the
first phase: with ``stream[:queue_depth]`` the cursor-paged ledger read runs
on a reader thread ahead of the calling thread collecting the records
(:class:`~repro.runtime.pipeline.StreamPipeline` ``ballot-read``), at most
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

import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import telemetry
from repro.audit.evidence import TallyEvidence, build_tally_evidence
from repro.crypto.dkg import DistributedKeyGeneration
from repro.crypto.elgamal import ElGamal, ElGamalCiphertext
from repro.crypto.group import Group
from repro.crypto.hashing import sha256
from repro.crypto.tagging import TaggingAuthority
from repro.errors import TallyError
from repro.ledger.api import as_board_view
from repro.ledger.records import BallotRecord, RegistrationRecord
from repro.runtime.batch import verify_signatures
from repro.runtime.executor import Executor, resolve_executor
from repro.runtime.pipeline import PipelineSpec, StreamPipeline
from repro.tally.decrypt import DecryptedVote, aggregate, decrypt_votes
from repro.tally.filter import FilterResult, filter_ballots
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


def _counted_ballots(records: List[BallotRecord], executor: Optional[Executor]) -> List[BallotRecord]:
    """``deduplicate_ballots`` of the validly signed ``records``, checking
    only the signatures that decide it.

    Last-write-wins keeps a credential's newest valid ballot at the position
    of its oldest valid one, so only a credential's two end ballots matter
    while both verify: round 1 checks the oldest and the newest of every
    credential in one batch.  Round 2 checks every other ballot of each
    credential whose oldest or newest failed, and is skipped when none did.
    One ballot per credential is one call over every ballot, in ledger order.
    """
    by_credential: Dict[bytes, List[int]] = {}
    for index, record in enumerate(records):
        by_credential.setdefault(record.credential_public_key.to_bytes(), []).append(index)
    valid: Dict[int, bool] = {}

    def check(indices: List[int]) -> None:
        if indices:
            items = _ballot_signature_items([records[index] for index in indices])
            valid.update(zip(indices, verify_signatures(items, executor=executor)))

    check(sorted({index for indices in by_credential.values() for index in (indices[0], indices[-1])}))
    check(sorted(
        index
        for indices in by_credential.values()
        if not (valid[indices[0]] and valid[indices[-1]])
        for index in indices[1:-1]
    ))
    counted = []
    for indices in by_credential.values():
        # An unchecked ballot sits between two valid ends and decides nothing.
        signed = [index for index in indices if valid.get(index)]
        if signed:
            counted.append((signed[0], records[signed[-1]]))
    return [record for _, record in sorted(counted, key=operator.itemgetter(0))]


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
    ``pipeline`` says whether the ledger read runs pages ahead of
    collecting them (see the module docstring); the result is bit-identical.
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
        board: object,
        election_id: str,
        executor: Optional[Executor] = None,
    ) -> List[BallotRecord]:
        """The ballots that can count: each credential's newest validly
        signed ballot, in the order of its oldest (:func:`_counted_ballots`).

        The ledger is read in cursor pages of ``read_page_size`` records;
        with a streaming ``pipeline`` a reader thread fetches the pages ahead
        of the caller collecting their records.  The signatures are then
        checked with the random-linear-combination batch verifier — one
        batched equation per chunk when every signature is valid (the common
        case), bisection to isolate forgeries otherwise.
        """
        ex = executor if executor is not None else self.executor
        pages = as_board_view(board).iter_ballot_pages(
            election_id=election_id, page_size=self.read_page_size
        )
        if self.pipeline is not None and self.pipeline.streaming:
            read = StreamPipeline(
                operator.attrgetter("records"), self.pipeline.queue_depth, name="ballot-read"
            ).run(pages)
        else:
            read = (page.records for page in pages)
        return _counted_ballots([record for records in read for record in records], ex)

    # ------------------------------------------------------------------ main run

    def run(
        self,
        board: object,
        num_options: int,
        election_id: str = "default",
        rotations=None,
    ) -> TallyResult:
        """Execute the full tally and return the published result.

        ``board`` is anything :func:`~repro.ledger.api.as_board_view`
        accepts — a board, its store or a read-only view; the tally only
        ever reads.
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
        registrations = view.current(RegistrationRecord)
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
            num_ballots_on_ledger=view.count(BallotRecord),
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
