"""Multi-node tally and audit: bit-identity matrix and fault injection.

The distributed invariant under test: for a fixed randomness tape, a tally
(and its audit) executed across ``cluster:N`` worker subprocesses is
bit-identical — counts, cascades, proofs, filter outcomes, audit
fingerprints — to the serial in-process reference, across Memory and
SQLite boards, and stays so when a worker is killed mid-run (shards are
reassigned at-least-once; every shard is a deterministic function of its
payload, so re-execution cannot drift)."""

from __future__ import annotations

import contextlib
import random
import threading

import pytest

from cluster_tasks import CLUSTER_PAGE_SIZE as PAGE_SIZE
from cluster_tasks import CLUSTER_WORKERS

from repro.audit.api import DistributedVerifier
from repro.audit.checks import audit_tally
from repro.crypto.dkg import DistributedKeyGeneration
from repro.crypto.elgamal import ElGamal
from repro.crypto.group import Group
from repro.crypto.hashing import sha256
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign
from repro.crypto.tagging import TaggingAuthority
from repro.election import ElectionConfig, VotegralElection
from repro.errors import ClusterError
from repro.ledger.backends.memory import MemoryBackend
from repro.ledger.backends.sqlite import SQLiteBackend
from repro.ledger.bulletin_board import BulletinBoard
from repro.ledger.records import RegistrationRecord
from repro.runtime.executor import executor_from_spec
from repro.tally import mixnet
from repro.tally.pipeline import TallyPipeline
from repro.voting.ballot import make_ballot

NUM_VOTERS = 7
NUM_OPTIONS = 2
NUM_MIXERS = 2
PROOF_ROUNDS = 2
SEED = 0xC10C


@contextlib.contextmanager
def seeded_tape(seed: int):
    """Pin the two output-shaping randomness sources (cf. test_equivalence)."""
    rng = random.Random(seed)
    original = (Group.random_scalar, mixnet.random_permutation)
    Group.random_scalar = lambda self: rng.randrange(1, self.order)
    mixnet.random_permutation = lambda n: rng.sample(range(n), n)
    try:
        yield
    finally:
        Group.random_scalar, mixnet.random_permutation = original


@pytest.fixture(scope="module")
def workload(group):
    """One synthetic record sequence; every board ingests the same bytes."""
    authority = DistributedKeyGeneration.run(group, 3)
    elgamal = ElGamal(group)
    kiosk = schnorr_keygen(group)
    official = schnorr_keygen(group)
    voter_ids = [f"voter-{index:04d}" for index in range(NUM_VOTERS)]
    registrations, ballots = [], []
    for index, voter_id in enumerate(voter_ids):
        credential = schnorr_keygen(group)
        tag = elgamal.encrypt(authority.public_key, credential.public)
        registrations.append(
            RegistrationRecord(
                voter_id=voter_id,
                public_credential_c1=tag.c1,
                public_credential_c2=tag.c2,
                kiosk_public_key=kiosk.public,
                kiosk_signature=schnorr_sign(kiosk, sha256(b"checkout", voter_id.encode())),
                official_public_key=official.public,
                official_signature=schnorr_sign(official, sha256(b"approval", voter_id.encode())),
            )
        )
        ballots.append(
            make_ballot(
                group, authority.public_key, credential,
                choice=index % NUM_OPTIONS, num_options=NUM_OPTIONS,
            ).to_record()
        )
    tagging = TaggingAuthority.create(group, authority.num_members)
    return authority, tagging, voter_ids, registrations, ballots


def _ingest(backend, workload):
    _, _, voter_ids, registrations, ballots = workload
    board = BulletinBoard(backend)
    board.publish_electoral_roll(voter_ids)
    for record in registrations:
        board.post_registration(record)
    for record in ballots:
        board.post_ballot(record)
    return board


@pytest.fixture(scope="module")
def boards(group, workload, tmp_path_factory):
    memory = _ingest(MemoryBackend(), workload)
    sqlite = _ingest(
        SQLiteBackend(str(tmp_path_factory.mktemp("cluster") / "board.db"), group=group),
        workload,
    )
    yield {"memory": memory, "sqlite": sqlite}
    memory.close()
    sqlite.close()


def _run_tally(group, authority, tagging, board, executor):
    with seeded_tape(SEED):
        pipeline = TallyPipeline(
            group=group,
            authority=authority,
            num_mixers=NUM_MIXERS,
            proof_rounds=PROOF_ROUNDS,
            executor=executor,
            tagging=tagging,
            read_page_size=PAGE_SIZE,
        )
        return pipeline.run(board, NUM_OPTIONS, "default")


class TestBitIdentityMatrix:
    def test_tally_and_audit_identical_across_executors_and_boards(
        self, group, workload, boards
    ):
        """serial vs cluster:N vs cluster:2N × Memory vs SQLite — one result."""
        authority, tagging, _, _, _ = workload
        specs = ["serial", f"cluster:{CLUSTER_WORKERS}", f"cluster:{2 * CLUSTER_WORKERS}"]
        heads_before = {
            name: (board.ballot_log.head(), board.registration_log.head())
            for name, board in boards.items()
        }

        results, fingerprints = {}, {}
        for board_name, board in boards.items():
            for spec in specs:
                executor = executor_from_spec(spec)
                try:
                    result = _run_tally(group, authority, tagging, board, executor)
                    # Serial audits use the default batched strategy; cluster
                    # audits ship check shards to the remote workers.
                    verifier = "batched" if spec == "serial" else "dist:16"
                    report = audit_tally(
                        group, authority, board, result,
                        verifier=verifier, executor=executor,
                    )
                finally:
                    executor.close()
                assert report.ok, f"{board_name}/{spec}: {report.summary()}"
                results[(board_name, spec)] = result
                fingerprints[(board_name, spec)] = report.fingerprint()

        reference = results[("memory", "serial")]
        assert reference.num_counted == NUM_VOTERS
        for key, result in results.items():
            assert result == reference, f"{key} tally differs from the serial reference"
        assert len(set(fingerprints.values())) == 1, fingerprints

        # The boards were only read: bit-identical chain heads across
        # backends, unchanged by any tally, and still verifying.
        for name, board in boards.items():
            assert (
                board.ballot_log.head(), board.registration_log.head()
            ) == heads_before[name]
            assert board.verify_all_chains()
        assert boards["memory"].ballot_log.head() == boards["sqlite"].ballot_log.head()
        assert (
            boards["memory"].registration_log.head()
            == boards["sqlite"].registration_log.head()
        )


class TestClusterElectionEndToEnd:
    def test_config_spec_cluster_election_verifies(self):
        """The acceptance path: executor_spec='cluster:N' + audit_spec='dist'."""
        config = ElectionConfig(
            num_voters=4,
            num_mixers=NUM_MIXERS,
            proof_rounds=PROOF_ROUNDS,
            executor_spec=f"cluster:{CLUSTER_WORKERS}",
            audit_spec="dist:16",
            fake_credentials_per_voter=1,
        )
        with VotegralElection(config) as election:
            report = election.run(rng=random.Random(11))
        assert report.universally_verified
        assert report.counts_match_intent
        assert election.audit_report.strategy == "dist"
        assert election.audit_report.ok


class TestFaultInjection:
    def test_tally_survives_one_worker_death_bit_identically(
        self, group, workload, boards
    ):
        authority, tagging, _, _, _ = workload
        board = boards["memory"]
        serial_result = _run_tally(
            group, authority, tagging, board, executor_from_spec("serial")
        )
        executor = executor_from_spec("cluster:2")
        try:
            executor.warm()
            threading.Timer(0.3, executor.worker_processes[0].kill).start()
            cluster_result = _run_tally(group, authority, tagging, board, executor)
            assert executor.coordinator.num_workers >= 1
        finally:
            executor.close()
        assert cluster_result == serial_result

    def test_audit_survives_one_worker_death_bit_identically(
        self, group, workload, boards
    ):
        authority, tagging, _, _, _ = workload
        board = boards["memory"]
        result = _run_tally(
            group, authority, tagging, board, executor_from_spec("serial")
        )
        reference = audit_tally(group, authority, board, result, verifier="batched")
        executor = executor_from_spec("cluster:2")
        try:
            executor.warm()
            threading.Timer(0.3, executor.worker_processes[1].kill).start()
            report = audit_tally(
                group, authority, board, result,
                verifier=DistributedVerifier(shard_size=4, executor=executor),
                executor=executor,
            )
        finally:
            executor.close()
        assert report.ok
        assert report.fingerprint() == reference.fingerprint()

    def test_losing_every_worker_is_a_clear_cluster_error(
        self, group, workload, boards
    ):
        authority, tagging, _, _, _ = workload
        executor = executor_from_spec("cluster:2")
        try:
            executor.warm()
            for process in executor.worker_processes:
                process.kill()
            for process in executor.worker_processes:
                process.wait(timeout=30)
            with pytest.raises(ClusterError, match="all cluster workers lost"):
                _run_tally(group, authority, tagging, boards["memory"], executor)
        finally:
            executor.close()
