"""Coordinator and RemoteExecutor behaviour over real worker subprocesses:
ordering, exception transparency, enrollment auth, reassignment, loss."""

from __future__ import annotations

import socket
import threading
import time

import pytest

import cluster_tasks
from cluster_tasks import CLUSTER_WORKERS

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.executor import RemoteExecutor, remote_executor_from_spec
from repro.cluster.protocol import (
    PROTOCOL_VERSION,
    Frame,
    FrameKind,
    expect_frame,
    hello_mac,
    send_frame,
)
from repro.cluster.worker import WorkerDaemon, main as worker_main
from repro.errors import ClusterError
from repro.runtime.executor import SerialExecutor, executor_from_spec
from repro.runtime.pipeline import Shard, Stage, StreamPipeline, iter_shards


class TestExecutorContract:
    def test_map_preserves_order(self, cluster_executor):
        items = list(range(97))
        assert cluster_executor.map(cluster_tasks.square, items) == [i * i for i in items]

    def test_starmap_preserves_order(self, cluster_executor):
        items = [(i, 2 * i) for i in range(41)]
        assert cluster_executor.starmap(cluster_tasks.add, items) == [a + b for a, b in items]

    def test_empty_input(self, cluster_executor):
        assert cluster_executor.map(cluster_tasks.echo, []) == []
        assert cluster_executor.starmap(cluster_tasks.add, []) == []

    def test_single_item_still_goes_remote(self, cluster_executor):
        # The local pid must never appear: even one item ships to a worker.
        import os

        pids = cluster_executor.map(cluster_tasks.worker_pid, [None])
        assert pids and pids[0] != os.getpid()

    def test_explicit_chunksize_respected(self, cluster_executor):
        items = list(range(10))
        assert cluster_executor.map(cluster_tasks.square, items, chunksize=3) == [
            i * i for i in items
        ]

    def test_work_spreads_across_workers(self, cluster_executor):
        if CLUSTER_WORKERS < 2:
            pytest.skip("needs at least two workers")
        pids = set(
            cluster_executor.map(
                cluster_tasks.worker_pid, [None] * 64, chunksize=1
            )
        )
        assert len(pids) >= 2

    def test_worker_exception_propagates_unchanged(self, cluster_executor):
        with pytest.raises(ValueError, match="boom on 3"):
            cluster_executor.map(cluster_tasks.boom, [3])
        # The cluster stays serviceable after an application error.
        assert cluster_executor.map(cluster_tasks.echo, [1, 2]) == [1, 2]

    def test_unpicklable_worker_exception_degrades_to_cluster_error(self, cluster_executor):
        with pytest.raises(ClusterError, match="Unpicklable"):
            cluster_executor.map(cluster_tasks.boom_unpicklable, [1])
        assert cluster_executor.map(cluster_tasks.echo, [7]) == [7]

    def test_workers_start_with_their_shard_dependencies_loaded(self, cluster_executor):
        """The record model and the batch verifier are imported before a
        worker is ready, not inside its first tally shard (nothing this
        module ships imports either)."""
        names = ["repro.ledger.records", "repro.runtime.batch"]
        assert cluster_executor.map(cluster_tasks.module_loaded, names, chunksize=1) == [True, True]

    def test_concurrent_task_groups_multiplex(self, cluster_executor):
        """Several threads sharing one executor — the pipeline-stage shape."""
        outcomes = {}

        def run(name, offset):
            outcomes[name] = cluster_executor.map(
                cluster_tasks.square, range(offset, offset + 20)
            )

        threads = [
            threading.Thread(target=run, args=(f"t{i}", 10 * i)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for i in range(4):
            assert outcomes[f"t{i}"] == [x * x for x in range(10 * i, 10 * i + 20)]

    def test_stream_pipeline_stage_runs_on_remote_executor(self, cluster_executor):
        class SquareStage(Stage):
            name = "square"

            def process(self, shard):
                yield Shard(shard.index, cluster_executor.map(cluster_tasks.square, shard.items))

        shards = StreamPipeline([SquareStage()], name="remote-map").run(iter_shards(list(range(30)), 7))
        flat = [item for shard in shards for item in shard.items]
        assert flat == [i * i for i in range(30)]


class TestEnrollment:
    def test_handshake_rejects_wrong_secret(self, cluster_executor):
        coordinator = cluster_executor.coordinator
        with socket.create_connection(coordinator.address, timeout=10) as sock:
            challenge = expect_frame(sock, FrameKind.CHALLENGE).payload
            assert challenge["authenticated"] is True
            tag = hello_mac(b"not-the-secret", challenge["nonce"], "intruder", 1)
            send_frame(sock, Frame(FrameKind.HELLO, {
                "protocol_version": PROTOCOL_VERSION,
                "worker_id": "intruder",
                "slots": 1,
                "mac": tag,
            }))
            with pytest.raises(ClusterError, match="MAC verification failed"):
                expect_frame(sock, FrameKind.WELCOME)
        assert "intruder" not in cluster_executor.coordinator.worker_ids()

    def test_handshake_rejects_version_mismatch(self, cluster_executor):
        coordinator = cluster_executor.coordinator
        with socket.create_connection(coordinator.address, timeout=10) as sock:
            expect_frame(sock, FrameKind.CHALLENGE)
            send_frame(sock, Frame(FrameKind.HELLO, {
                "protocol_version": PROTOCOL_VERSION + 7,
                "worker_id": "time-traveller",
                "slots": 1,
            }))
            with pytest.raises(ClusterError, match="version mismatch"):
                expect_frame(sock, FrameKind.WELCOME)

    def test_in_thread_worker_enrolls_serves_and_drains_on_shutdown(self):
        secret = b"k" * 32
        coordinator = ClusterCoordinator(secret=secret)
        executor = RemoteExecutor(coordinator=coordinator, secret=secret)
        daemon = WorkerDaemon(
            address=coordinator.address, secret=secret,
            executor=SerialExecutor(), worker_id="thread-worker",
        )
        status = {}
        thread = threading.Thread(target=lambda: status.update(code=daemon.run()))
        thread.start()
        try:
            coordinator.wait_for_workers(1, timeout=30)
            assert coordinator.worker_ids() == ["thread-worker"]
            assert executor.map(cluster_tasks.square, [5, 6]) == [25, 36]
            assert daemon.tasks_served >= 1
        finally:
            executor.close()
            thread.join(timeout=30)
        assert status.get("code") == 0  # SHUTDOWN drained the worker cleanly

    def test_duplicate_worker_identity_is_renamed(self):
        secret = b"k" * 32
        coordinator = ClusterCoordinator(secret=secret)
        daemons = [
            WorkerDaemon(
                address=coordinator.address, secret=secret,
                executor=SerialExecutor(), worker_id="same-name",
            )
            for _ in range(2)
        ]
        threads = [threading.Thread(target=daemon.run, daemon=True) for daemon in daemons]
        try:
            for thread in threads:
                thread.start()
            coordinator.wait_for_workers(2, timeout=30)
            names = coordinator.worker_ids()
            assert len(names) == 2 and len(set(names)) == 2
            assert any(name == "same-name" for name in names)
        finally:
            coordinator.shutdown()
            for thread in threads:
                thread.join(timeout=30)


class TestFaultTolerance:
    def test_duplicate_results_are_idempotent(self):
        """First RESULT per task key wins; redeliveries are dropped."""
        coordinator = ClusterCoordinator()
        try:
            outcome = {}
            thread = threading.Thread(
                target=lambda: outcome.update(
                    r=coordinator.run_tasks([("call", cluster_tasks.echo, (1,))])
                )
            )
            thread.start()
            deadline = time.monotonic() + 10
            while not coordinator._tasks and time.monotonic() < deadline:
                time.sleep(0.01)
            (key,) = list(coordinator._tasks)
            coordinator._complete(key, "first")
            coordinator._complete(key, "late-redelivery")
            thread.join(timeout=10)
            assert outcome["r"] == ["first"]
        finally:
            coordinator.shutdown()

    def test_killing_a_worker_mid_shard_reassigns(self):
        executor = executor_from_spec("cluster:2")
        try:
            executor.warm()
            victim = executor.worker_processes[0]
            threading.Timer(0.25, victim.kill).start()
            results = executor.starmap(
                cluster_tasks.slow_echo, [(i, 0.05) for i in range(40)]
            )
            assert results == list(range(40))
            assert executor.coordinator.num_workers == 1
            # And the survivor keeps serving subsequent groups.
            assert executor.map(cluster_tasks.square, [9]) == [81]
        finally:
            executor.close()

    def test_all_workers_lost_raises_cluster_error(self):
        executor = executor_from_spec("cluster:2")
        try:
            executor.warm()
            for process in executor.worker_processes:
                threading.Timer(0.25, process.kill).start()
            with pytest.raises(ClusterError, match="all cluster workers lost"):
                executor.starmap(
                    cluster_tasks.slow_echo, [(i, 0.05) for i in range(500)]
                )
            # Dispatch on a fully dead cluster stays a clear error, not a hang
            # (reap the corpses first so the degraded-mode check sees them).
            for process in executor.worker_processes:
                process.wait(timeout=30)
            with pytest.raises(ClusterError, match="all cluster workers lost"):
                executor.map(cluster_tasks.echo, [1])
        finally:
            executor.close()

    def test_task_timeout_reassigns_a_stuck_shard(self, tmp_path):
        """A deadlocked work function heartbeats happily; only the task
        timeout can retire its worker and move the shard elsewhere."""
        import secrets as secrets_module

        from repro.cluster.executor import RemoteExecutor

        executor = RemoteExecutor(
            secret=secrets_module.token_bytes(32),
            spawn_workers=2,
            task_timeout=1.5,
        )
        try:
            executor.warm()
            marker = str(tmp_path / "stuck.marker")
            assert executor.starmap(cluster_tasks.stuck_once, [(marker, 42)]) == [42]
            assert executor.coordinator.num_workers == 1  # the stuck one was retired
        finally:
            executor.close()

    def test_shutdown_fails_outstanding_groups(self):
        coordinator = ClusterCoordinator()
        outcome = {}

        def run():
            try:
                coordinator.run_tasks([("call", cluster_tasks.echo, (1,))])
            except ClusterError as exc:
                outcome["error"] = str(exc)

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.1)
        coordinator.shutdown()
        thread.join(timeout=10)
        assert "error" in outcome


class TestSpecParsing:
    @pytest.mark.parametrize("spec", ["cluster", "cluster:0", "cluster:x", "remote", "remote:hostonly"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            executor_from_spec(spec)

    def test_unknown_backend_error_names_remote_backends(self):
        with pytest.raises(ValueError, match="cluster"):
            executor_from_spec("mainframe:4")

    def test_remote_spec_parses_multiple_listen_addresses(self):
        executor = remote_executor_from_spec("remote:127.0.0.1:0,127.0.0.1:0")
        try:
            assert len(executor.coordinator.addresses) == 2
            assert all(port != 0 for _, port in executor.coordinator.addresses)
        finally:
            executor.close()

    def test_worker_cli_rejects_recursive_executor_specs(self, capsys):
        with pytest.raises(SystemExit):
            worker_main(["--connect", "127.0.0.1:1", "--executor", "cluster:2"])
        assert "worker-local executors" in capsys.readouterr().err
