"""Runtime equivalence: serial, thread, and process backends must be
observationally identical — same `TallyResult` bits, same verification
verdicts — with only the wall clock allowed to differ.

Two levels of guarantee are pinned down:

* **Stage determinism** (no randomness involved): signature filtering, tag
  filtering and vote decryption are deterministic given their inputs, so
  every backend must reproduce the serial output exactly.
* **Whole-pipeline determinism for a fixed randomness tape**: all randomness
  that influences published output is drawn serially in the calling thread
  (shuffle plans, tagging secrets), so with a seeded scalar/permutation
  source the full `TallyResult` is bit-identical across backends.
"""

from __future__ import annotations

import random

import pytest

from repro.audit.checks import audit_tally
from repro.crypto.group import Group
from repro.crypto.tagging import TaggingAuthority
from repro.election import ElectionConfig, VotegralElection
from repro.runtime.executor import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.tally import mixnet
from repro.tally.decrypt import decrypt_votes
from repro.tally.filter import filter_ballots
from repro.tally.pipeline import TallyPipeline

NUM_VOTERS = 5
NUM_OPTIONS = 2
NUM_MIXERS = 2
PROOF_ROUNDS = 2


@pytest.fixture(scope="module")
def voted_election():
    """One small election, registered and voted, shared by every backend."""
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


def _seeded_randomness(monkeypatch, seed: int) -> None:
    """Replace the two randomness sources that shape published output."""
    rng = random.Random(seed)
    monkeypatch.setattr(Group, "random_scalar", lambda self: rng.randrange(1, self.order))
    monkeypatch.setattr(mixnet, "random_permutation", lambda n: rng.sample(range(n), n))


def _run_tally(election, executor, tagging):
    pipeline = TallyPipeline(
        group=election.group,
        authority=election.setup.authority,
        num_mixers=NUM_MIXERS,
        proof_rounds=PROOF_ROUNDS,
        executor=executor,
        tagging=tagging,
    )
    return pipeline.run(election.setup.board, NUM_OPTIONS, election.config.election_id)


class TestFullPipelineBitIdentical:
    def test_all_backends_produce_identical_tally_results(self, voted_election, backends, monkeypatch):
        tagging = TaggingAuthority.create(voted_election.group, voted_election.setup.authority.num_members)
        results = {}
        for name, executor in backends.items():
            with monkeypatch.context() as patch:
                _seeded_randomness(patch, seed=0x5EED)
                results[name] = _run_tally(voted_election, executor, tagging)
        reference = results["serial"]
        assert reference.num_counted == NUM_VOTERS
        for name, result in results.items():
            assert result == reference, f"{name} tally differs from serial reference"

    def test_every_backend_tally_universally_verifies(self, voted_election, backends):
        tagging = TaggingAuthority.create(voted_election.group, voted_election.setup.authority.num_members)
        for name, executor in backends.items():
            result = _run_tally(voted_election, executor, tagging)
            assert audit_tally(
                voted_election.group,
                voted_election.setup.authority,
                voted_election.setup.board,
                result,
                voted_election.config.election_id,
                executor=executor,
            ).ok, f"{name} tally failed universal verification"
            assert sum(result.counts.values()) == NUM_VOTERS


class TestStageDeterminism:
    @pytest.fixture(scope="class")
    def mixed_stage_inputs(self, voted_election):
        """Mix once (randomly); the downstream stages are then deterministic."""
        election = voted_election
        authority = election.setup.authority
        pipeline = TallyPipeline(
            group=election.group, authority=authority, num_mixers=NUM_MIXERS, proof_rounds=PROOF_ROUNDS
        )
        result = pipeline.run(election.setup.board, NUM_OPTIONS, election.config.election_id)
        mixed_pairs = [(item[0], item[1]) for item in result.ballot_cascade.outputs]
        mixed_registrations = [item[0] for item in result.registration_cascade.outputs]
        tagging = TaggingAuthority.create(election.group, authority.num_members)
        return authority, tagging, mixed_pairs, mixed_registrations, result

    def test_valid_ballots_identical(self, voted_election, backends):
        election = voted_election
        pipeline = TallyPipeline(group=election.group, authority=election.setup.authority)
        reference = None
        for executor in backends.values():
            records = pipeline._valid_ballots(election.setup.board, election.config.election_id, executor=executor)
            if reference is None:
                reference = records
            assert records == reference

    def test_filter_ballots_identical(self, backends, mixed_stage_inputs):
        authority, tagging, mixed_pairs, mixed_registrations, _ = mixed_stage_inputs
        reference = None
        for executor in backends.values():
            outcome = filter_ballots(
                authority, tagging, mixed_pairs, mixed_registrations, executor=executor
            )
            if reference is None:
                reference = outcome
            assert outcome == reference

    def test_decrypt_votes_identical(self, backends, mixed_stage_inputs):
        authority, _, _, _, result = mixed_stage_inputs
        reference = None
        for executor in backends.values():
            votes = decrypt_votes(authority, result.filter_result.counted, NUM_OPTIONS, executor=executor)
            if reference is None:
                reference = votes
            assert votes == reference


class TestTamperedCascadesRejected:
    def test_batched_cascade_verification_rejects_tampering(self, voted_election, backends, cascade_report):
        """Swapping two mixed outputs must fail verification on every backend,
        with the batched openings check and with the exact reference check.

        Cut-and-choose soundness is probabilistic (an output swap verifies with
        probability ~2^-2R: the re-derived coins must match the recorded flags
        and every matched round must open the input side), so this test runs
        more shadow rounds than the shared PROOF_ROUNDS to push the false-accept
        rate below flakiness range (~2^-12).
        """
        election = voted_election
        authority = election.setup.authority
        pipeline = TallyPipeline(
            group=election.group, authority=authority, num_mixers=NUM_MIXERS, proof_rounds=6
        )
        result = pipeline.run(election.setup.board, NUM_OPTIONS, election.config.election_id)

        stages = list(result.ballot_cascade.stages)
        last = stages[-1]
        outputs = list(last.outputs)
        outputs[0], outputs[1] = outputs[1], outputs[0]
        stages[-1] = mixnet.TupleShuffle(outputs=outputs, rounds=last.rounds)
        forged = mixnet.TupleCascade(stages=stages)

        valid_records = pipeline._valid_ballots(election.setup.board, election.config.election_id)
        from repro.crypto.elgamal import ElGamalCiphertext

        ballot_inputs = [
            (
                ElGamalCiphertext(record.ciphertext_c1, record.ciphertext_c2),
                pipeline.elgamal.encrypt(authority.public_key, record.credential_public_key, randomness=0),
            )
            for record in valid_records
        ]
        for name, executor in backends.items():
            for audit_spec in ("eager", "batched"):
                assert not cascade_report(
                    pipeline.elgamal, authority.public_key, ballot_inputs, forged,
                    executor=executor, audit_spec=audit_spec,
                ).ok, f"forged cascade accepted ({name}, {audit_spec})"
        assert cascade_report(
            pipeline.elgamal, authority.public_key, ballot_inputs, result.ballot_cascade
        ).ok
