"""Pipelined-vs-serial equality for the streaming tally.

The streaming schedule must be *bit-for-bit* identical to the serial
reference in everything published — per-candidate counts, both mix cascades
with their shadow-mix proofs, the filter transcript, the decrypted vote list
— across Serial/Thread/Process executors and Memory/SQLite board backends.
The determinism argument is the randomness-tape discipline (every draw that
shapes output happens in the calling thread, in the same order on both
paths); these tests pin it down by seeding the tape and comparing whole
:class:`TallyResult` objects.

Failure paths are covered too: a mixer dying mid-stream must propagate its
error promptly (no hang, no partial result), and streaming verification must
cancel outstanding checks at the first failure.

The CI stress job reruns this module with randomized
``REPRO_PIPELINE_SHARD_SIZE`` / ``REPRO_PIPELINE_QUEUE_DEPTH``.
"""

from __future__ import annotations

import random
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
from repro.tally.mixnet import (
    TupleCascade,
    streaming_tuple_mix_cascade,
    tuple_mix_cascade,
)
from repro.tally.pipeline import TallyPipeline

NUM_VOTERS = 5
NUM_OPTIONS = 2
NUM_MIXERS = 3
PROOF_ROUNDS = 2

SHARD_SIZE = env("REPRO_PIPELINE_SHARD_SIZE") or 2
QUEUE_DEPTH = env("REPRO_PIPELINE_QUEUE_DEPTH") or 2

STREAM_SPEC = PipelineSpec(streaming=True, shard_size=SHARD_SIZE, queue_depth=QUEUE_DEPTH)
STREAM_AUDIT = f"stream:{SHARD_SIZE}:{QUEUE_DEPTH}"


def _seeded_randomness(monkeypatch, seed: int) -> None:
    """Replace the two randomness sources that shape published output."""
    rng = random.Random(seed)
    monkeypatch.setattr(Group, "random_scalar", lambda self: rng.randrange(1, self.order))
    monkeypatch.setattr(mixnet, "random_permutation", lambda n: rng.sample(range(n), n))


@pytest.fixture(scope="module")
def voted_election():
    """One small election, registered and voted, shared by every schedule."""
    config = ElectionConfig(
        num_voters=NUM_VOTERS,
        num_options=NUM_OPTIONS,
        num_mixers=NUM_MIXERS,
        proof_rounds=PROOF_ROUNDS,
        fake_credentials_per_voter=1,
    )
    election = VotegralElection(config)
    election.run_setup()
    election.run_registration()
    election.run_voting()
    return election


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


def _run_tally(election, executor, tagging, pipeline=None):
    return TallyPipeline(
        group=election.group,
        authority=election.setup.authority,
        num_mixers=NUM_MIXERS,
        proof_rounds=PROOF_ROUNDS,
        executor=executor,
        tagging=tagging,
        pipeline=pipeline,
    ).run(election.setup.board, NUM_OPTIONS, election.config.election_id)


# ------------------------------------------------------------------ cascade


def _cascade_inputs(group, count=9):
    elgamal = ElGamal(group)
    secret = group.random_scalar()
    public_key = group.power(secret)
    inputs = [
        (elgamal.encrypt(public_key, group.power(i + 1)), elgamal.encrypt(public_key, group.power(i + 2)))
        for i in range(count)
    ]
    return elgamal, public_key, inputs


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_streaming_cascade_bit_identical(monkeypatch, voted_election, backends, backend, cascade_report):
    group = voted_election.group
    elgamal, public_key, inputs = _cascade_inputs(group)

    _seeded_randomness(monkeypatch, 41)
    serial = tuple_mix_cascade(elgamal, public_key, inputs, NUM_MIXERS, PROOF_ROUNDS)
    _seeded_randomness(monkeypatch, 41)
    streamed = streaming_tuple_mix_cascade(
        elgamal, public_key, inputs, NUM_MIXERS, PROOF_ROUNDS,
        executor=backends[backend], pipeline=STREAM_SPEC,
    )
    assert streamed == serial
    assert cascade_report(elgamal, public_key, inputs, streamed).ok
    assert cascade_report(
        elgamal, public_key, inputs, serial, executor=backends[backend], audit_spec=STREAM_AUDIT
    ).ok


def test_streaming_cascade_empty_and_single(cascade_report):
    group = VotegralElection(ElectionConfig(num_voters=1)).group
    elgamal, public_key, inputs = _cascade_inputs(group, count=1)
    streamed = streaming_tuple_mix_cascade(elgamal, public_key, inputs, 2, PROOF_ROUNDS, pipeline=STREAM_SPEC)
    assert cascade_report(elgamal, public_key, inputs, streamed).ok
    empty = streaming_tuple_mix_cascade(elgamal, public_key, [], 2, PROOF_ROUNDS, pipeline=STREAM_SPEC)
    assert empty.outputs == []


# ------------------------------------------------------------------ full tally


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


def test_streamed_tally_on_sqlite_board(monkeypatch, tmp_path):
    """Streaming over the persistent backend: same result, chains intact."""
    config = ElectionConfig(
        num_voters=4,
        num_mixers=2,
        proof_rounds=2,
        board_spec=f"sqlite:{tmp_path / 'board.db'}",
    )
    election = VotegralElection(config)
    election.run_setup()
    election.run_registration()
    election.run_voting(rng=random.Random(5))
    tagging = TaggingAuthority.create(election.group, election.setup.authority.num_members)

    _seeded_randomness(monkeypatch, 13)
    reference = _run_tally(election, SerialExecutor(), tagging, pipeline=None)
    _seeded_randomness(monkeypatch, 13)
    streamed = _run_tally(election, SerialExecutor(), tagging, pipeline=STREAM_SPEC)

    assert streamed == reference
    # The tally only reads: every hash chain must still verify afterwards.
    assert election.setup.board.verify_all_chains()
    assert audit_tally(
        election.group, election.setup.authority, election.setup.board, streamed,
        config.election_id, verifier=STREAM_AUDIT,
    ).ok
    election.close()


def test_streaming_without_ballots_matches_serial(monkeypatch):
    """Registrations but zero ballots: both schedules publish the same nothing."""
    config = ElectionConfig(num_voters=3, num_mixers=2, proof_rounds=2)
    election = VotegralElection(config)
    election.run_setup()
    election.run_registration()
    tagging = TaggingAuthority.create(election.group, election.setup.authority.num_members)

    _seeded_randomness(monkeypatch, 23)
    reference = _run_tally(election, SerialExecutor(), tagging, pipeline=None)
    _seeded_randomness(monkeypatch, 23)
    streamed = _run_tally(election, SerialExecutor(), tagging, pipeline=STREAM_SPEC)
    assert streamed == reference
    assert streamed.num_counted == 0
    assert streamed.ballot_cascade.stages == []


def test_zero_mixer_cascade_matches_serial(monkeypatch, voted_election):
    """num_mixers=0 publishes an empty cascade — and thus counts nothing —
    identically under both schedules (the streaming path must not feed raw
    ballots straight into tagging)."""
    group = voted_election.group
    tagging = TaggingAuthority.create(group, voted_election.setup.authority.num_members)

    def run(pipeline):
        return TallyPipeline(
            group=group,
            authority=voted_election.setup.authority,
            num_mixers=0,
            proof_rounds=PROOF_ROUNDS,
            tagging=tagging,
            pipeline=pipeline,
        ).run(voted_election.setup.board, NUM_OPTIONS, voted_election.config.election_id)

    _seeded_randomness(monkeypatch, 31)
    reference = run(None)
    _seeded_randomness(monkeypatch, 31)
    streamed = run(STREAM_SPEC)
    assert streamed == reference
    assert streamed.num_counted == 0


def test_config_wires_streaming_end_to_end():
    config = ElectionConfig(
        num_voters=4, num_mixers=2, proof_rounds=2,
        pipeline_spec=f"stream:{SHARD_SIZE}:{QUEUE_DEPTH}",
    )
    with VotegralElection(config) as election:
        report = election.run(rng=random.Random(3))
    assert report.universally_verified
    assert report.counts_match_intent


# ------------------------------------------------------------------ failure paths


class _FlakyExecutor(SerialExecutor):
    """Serial executor that dies after a fixed number of starmap batches."""

    def __init__(self, fail_after: int):
        self.calls = 0
        self.fail_after = fail_after

    def starmap(self, fn, items, chunksize=None):
        self.calls += 1
        if self.calls > self.fail_after:
            raise RuntimeError("injected mixer crash")
        return super().starmap(fn, items, chunksize=chunksize)


def test_midstream_mixer_failure_propagates(voted_election):
    group = voted_election.group
    elgamal, public_key, inputs = _cascade_inputs(group, count=12)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="injected mixer crash"):
        streaming_tuple_mix_cascade(
            elgamal, public_key, inputs, NUM_MIXERS, PROOF_ROUNDS,
            executor=_FlakyExecutor(fail_after=3),
            pipeline=PipelineSpec(streaming=True, shard_size=2, queue_depth=1),
        )
    # Cancellation must tear the pipeline down promptly, not hang on queues.
    assert time.perf_counter() - start < 10


def test_midstream_tally_failure_propagates(voted_election):
    tagging = TaggingAuthority.create(
        voted_election.group, voted_election.setup.authority.num_members
    )
    with pytest.raises(RuntimeError, match="injected mixer crash"):
        _run_tally(
            voted_election,
            _FlakyExecutor(fail_after=8),
            tagging,
            pipeline=PipelineSpec(streaming=True, shard_size=1, queue_depth=1),
        )


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
