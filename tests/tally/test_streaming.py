"""What ``pipeline_spec="stream"`` means: the ledger read overlaps the signature check.

The tally has one schedule — read + check, mix, filter, decrypt, each phase to
completion.  ``stream[:queue_depth]`` only moves the cursor-paged ledger read
onto a reader thread that runs ahead of the signature check (the one-stage
``ballot-read`` :class:`~repro.runtime.pipeline.StreamPipeline`), so it must
be *bit-for-bit* invisible in everything published — chain heads, both mix
cascades with their shadow-mix proofs, the filter transcript, the decrypted
vote list, the evidence and the audit fingerprint — across
Serial/Thread/Process executors and Memory/SQLite boards.  The tests read the
board in pages of 1 and 3 records so the overlap really spans pages, seed the
randomness tape and compare whole :class:`TallyResult` objects.

Failure paths are covered too: a forged signature in the middle of the stream
is dropped identically, an executor dying inside the read stage propagates its
error unchanged and leaves no thread behind, and streaming verification
cancels outstanding checks at the first failure.

The CI stress job reruns this module with randomized
``REPRO_PIPELINE_QUEUE_DEPTH``.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time

import pytest

from repro.audit.api import AuditPlan, EagerVerifier, verifier_from_spec
from repro.audit.checks import audit_tally, cascade_checks
from repro.crypto.elgamal import ElGamal
from repro.crypto.group import Group
from repro.crypto.tagging import TaggingAuthority
from repro.election import ElectionConfig, VotegralElection
from repro.runtime.executor import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.runtime.pipeline import PipelineSpec
from repro.spec import env
from repro.tally import mixnet
from repro.tally.mixnet import TupleCascade, tuple_mix_cascade
from repro.tally.pipeline import TallyPipeline

NUM_VOTERS = 5
NUM_OPTIONS = 2
NUM_MIXERS = 3
PROOF_ROUNDS = 2

QUEUE_DEPTH = env("REPRO_PIPELINE_QUEUE_DEPTH") or 2

STREAM_SPEC = PipelineSpec(streaming=True, queue_depth=QUEUE_DEPTH)
STREAM_AUDIT = f"stream:2:{QUEUE_DEPTH}"
AUDIT_SPECS = ("eager", "batched", STREAM_AUDIT, "dist:4")


def _seeded_randomness(monkeypatch, seed: int) -> None:
    """Replace the two randomness sources that shape published output."""
    rng = random.Random(seed)
    monkeypatch.setattr(Group, "random_scalar", lambda self: rng.randrange(1, self.order))
    monkeypatch.setattr(mixnet, "random_permutation", lambda n: rng.sample(range(n), n))


def _voted(board_spec="memory", num_voters=NUM_VOTERS, num_mixers=NUM_MIXERS):
    config = ElectionConfig(
        num_voters=num_voters,
        num_options=NUM_OPTIONS,
        num_mixers=num_mixers,
        proof_rounds=PROOF_ROUNDS,
        fake_credentials_per_voter=1,
        board_spec=board_spec,
    )
    election = VotegralElection(config)
    election.run_setup()
    election.run_registration()
    election.run_voting(rng=random.Random(5))
    return election


@pytest.fixture(scope="module")
def voted_election():
    """One small election, registered and voted, shared by every schedule."""
    return _voted()


@pytest.fixture(scope="module")
def backends():
    executors = {
        "serial": SerialExecutor(),
        "thread": ThreadExecutor(num_workers=2),
        "process": ProcessExecutor(num_workers=2),
    }
    yield executors
    for executor in executors.values():
        executor.close()


def _run_tally(election, executor, tagging, pipeline=None, page_size=3, num_mixers=NUM_MIXERS, **options):
    return TallyPipeline(
        group=election.group,
        authority=election.setup.authority,
        num_mixers=num_mixers,
        proof_rounds=PROOF_ROUNDS,
        executor=executor,
        tagging=tagging,
        pipeline=pipeline,
        read_page_size=page_size,
        **options,
    ).run(election.setup.board, NUM_OPTIONS, election.config.election_id)


def _chain_heads(board):
    return board.registration_log.head(), board.envelope_log.head(), board.ballot_log.head()


# ------------------------------------------------------------------ everything published


@pytest.mark.parametrize("page_size", [1, 3])
@pytest.mark.parametrize("board", ["memory", "sqlite"])
def test_stream_publishes_what_serial_publishes(monkeypatch, tmp_path, board, page_size):
    """Seeded tape, evidence on: the two results are equal field for field,
    the board is untouched, and every audit strategy agrees on one fingerprint."""
    election = _voted("memory" if board == "memory" else f"sqlite:{tmp_path / 'board.db'}", num_voters=4)
    group, authority, ledger = election.group, election.setup.authority, election.setup.board
    tagging = TaggingAuthority.create(group, authority.num_members)
    heads = _chain_heads(ledger)

    _seeded_randomness(monkeypatch, 13)
    reference = _run_tally(election, SerialExecutor(), tagging, None, page_size, collect_evidence=True)
    _seeded_randomness(monkeypatch, 13)
    streamed = _run_tally(election, SerialExecutor(), tagging, STREAM_SPEC, page_size, collect_evidence=True)

    assert reference.num_valid_ballots > page_size  # the read really spanned pages
    assert streamed.registration_cascade == reference.registration_cascade
    assert streamed.ballot_cascade == reference.ballot_cascade
    assert streamed.filter_result == reference.filter_result  # registration and ballot tags
    assert streamed.votes == reference.votes and streamed.counts == reference.counts
    assert streamed.evidence is not None and streamed.evidence == reference.evidence
    assert streamed == reference
    # The tally only reads: every hash chain is where it was and still verifies.
    assert _chain_heads(ledger) == heads
    assert ledger.verify_all_chains()

    fingerprints = set()
    for result in (reference, streamed):
        for spec in AUDIT_SPECS:
            report = audit_tally(
                group, authority, ledger, result, election.config.election_id, verifier=spec,
                num_mixers=NUM_MIXERS, proof_rounds=PROOF_ROUNDS,
            )
            assert report.ok, (spec, report.first_failure)
            fingerprints.add(report.fingerprint())
    assert len(fingerprints) == 1
    election.close()


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_streamed_tally_bit_identical(monkeypatch, voted_election, backends, backend):
    group = voted_election.group
    tagging = TaggingAuthority.create(group, voted_election.setup.authority.num_members)

    _seeded_randomness(monkeypatch, 97)
    reference = _run_tally(voted_election, SerialExecutor(), tagging, pipeline=None)
    _seeded_randomness(monkeypatch, 97)
    streamed = _run_tally(voted_election, backends[backend], tagging, pipeline=STREAM_SPEC)

    assert streamed == reference  # counts, cascades+proofs, filter transcript, votes
    assert audit_tally(
        group, voted_election.setup.authority, voted_election.setup.board, streamed,
        voted_election.config.election_id,
    ).ok
    assert audit_tally(
        group, voted_election.setup.authority, voted_election.setup.board, reference,
        voted_election.config.election_id, executor=backends[backend], verifier=STREAM_AUDIT,
    ).ok


def test_streaming_without_ballots_matches_serial(monkeypatch):
    """Registrations but zero ballots: both schedules publish the same nothing."""
    config = ElectionConfig(num_voters=3, num_mixers=2, proof_rounds=2)
    election = VotegralElection(config)
    election.run_setup()
    election.run_registration()
    tagging = TaggingAuthority.create(election.group, election.setup.authority.num_members)

    _seeded_randomness(monkeypatch, 23)
    reference = _run_tally(election, SerialExecutor(), tagging, pipeline=None, num_mixers=2)
    _seeded_randomness(monkeypatch, 23)
    streamed = _run_tally(election, SerialExecutor(), tagging, pipeline=STREAM_SPEC, num_mixers=2)
    assert streamed == reference
    assert streamed.num_counted == 0
    assert streamed.ballot_cascade.stages == []


def test_zero_mixer_cascade_matches_serial(monkeypatch, voted_election):
    """num_mixers=0 publishes an empty cascade — and thus counts nothing —
    identically under both schedules."""
    tagging = TaggingAuthority.create(voted_election.group, voted_election.setup.authority.num_members)

    _seeded_randomness(monkeypatch, 31)
    reference = _run_tally(voted_election, None, tagging, pipeline=None, num_mixers=0)
    _seeded_randomness(monkeypatch, 31)
    streamed = _run_tally(voted_election, None, tagging, pipeline=STREAM_SPEC, num_mixers=0)
    assert streamed == reference
    assert streamed.num_counted == 0


def test_config_wires_streaming_end_to_end():
    config = ElectionConfig(
        num_voters=4, num_mixers=2, proof_rounds=2, pipeline_spec=f"stream:{QUEUE_DEPTH}",
    )
    with VotegralElection(config) as election:
        report = election.run(rng=random.Random(3))
    assert report.universally_verified
    assert report.counts_match_intent


# ------------------------------------------------------------------ failure paths


@pytest.mark.parametrize("page_size", [1, 3])
def test_forged_signature_midstream_is_dropped_identically(page_size):
    """A ballot whose signature does not verify, with valid pages on both
    sides of it, is dropped by the read stage exactly as by the page loop."""
    election = _voted(num_voters=4, num_mixers=1)
    board, election_id = election.setup.board, election.config.election_id
    genuine = board.ballots(election_id)
    victim = genuine[len(genuine) // 2]
    forged_signature = dataclasses.replace(
        victim.signature, response=(victim.signature.response + 1) % election.group.order
    )
    board.post_ballot(dataclasses.replace(victim, signature=forged_signature))
    election.run_voting(rng=random.Random(6))  # more valid pages behind the forgery

    def valid(pipeline):
        return TallyPipeline(
            election.group, election.setup.authority, pipeline=pipeline, read_page_size=page_size
        )._valid_ballots(board, election_id)

    reference, streamed = valid(None), valid(STREAM_SPEC)
    assert streamed == reference
    assert forged_signature not in [record.signature for record in streamed]
    on_ledger = board.ballots(election_id)
    assert len({record.credential_public_key.to_bytes() for record in on_ledger}) == len(streamed)
    assert len(streamed) < len(on_ledger)


class _FlakyExecutor(SerialExecutor):
    """Serial executor that dies after a fixed number of map batches."""

    def __init__(self, fail_after: int):
        self.calls = 0
        self.fail_after = fail_after

    def map(self, fn, items, chunksize=None):
        self.calls += 1
        if self.calls > self.fail_after:
            raise RuntimeError("injected executor crash")
        return super().map(fn, items, chunksize=chunksize)


def test_executor_failure_inside_the_read_stage_propagates(voted_election):
    """The signature check of the second page dies on the stage thread: the
    caller sees that exception, promptly, and every pipeline thread is joined."""
    tagging = TaggingAuthority.create(voted_election.group, voted_election.setup.authority.num_members)
    before = set(threading.enumerate())
    executor = _FlakyExecutor(fail_after=1)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="injected executor crash"):
        _run_tally(
            voted_election, executor, tagging,
            pipeline=PipelineSpec(streaming=True, queue_depth=1), page_size=1,
        )
    # Cancellation must tear the pipeline down promptly, not hang on queues.
    assert time.perf_counter() - start < 10
    assert executor.calls == 2  # it died inside the read, not in a later phase
    assert set(threading.enumerate()) <= before


def _cascade_inputs(group, count=9):
    elgamal = ElGamal(group)
    secret = group.random_scalar()
    public_key = group.power(secret)
    inputs = [
        (elgamal.encrypt(public_key, group.power(i + 1)), elgamal.encrypt(public_key, group.power(i + 2)))
        for i in range(count)
    ]
    return elgamal, public_key, inputs


def test_streaming_verify_cancels_after_first_failure(voted_election):
    group = voted_election.group
    elgamal, public_key, inputs = _cascade_inputs(group, count=6)
    many_mixers = 6
    # Six rounds: a swapped stage survives all of its own checks with
    # probability 2^-2R (coins coincide and every round opens the output side).
    cascade = tuple_mix_cascade(elgamal, public_key, inputs, many_mixers, rounds=6)
    # Corrupt the transcript: swap two stages so the first stage's proof no
    # longer matches its claimed inputs.
    corrupted = TupleCascade(stages=[cascade.stages[1], cascade.stages[0]] + cascade.stages[2:])
    plan = AuditPlan(cascade_checks(elgamal, public_key, inputs, corrupted))
    report = verifier_from_spec("stream:1:1").run(plan)
    assert not report.ok
    assert report.first_failure.name.startswith("cascade[0].")
    # First-failure cancellation: the auditor pays for the shards up to the
    # failing one (plus at most the queued and the in-hand shard), not for
    # the other five stages' proofs.
    assert len(report.results) < len(plan)
    assert report.results == EagerVerifier().run(plan).results[: len(report.results)]
