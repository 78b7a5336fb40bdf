"""Coordinator and RemoteExecutor behaviour over real worker subprocesses:
ordering, exception transparency, enrollment auth, reassignment, loss."""

from __future__ import annotations

import socket
import subprocess
import sys
import threading
import time

import pytest

import cluster_tasks
from cluster_tasks import CLUSTER_WORKERS

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.executor import RemoteExecutor, remote_executor_from_spec
from repro.cluster.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    Frame,
    FrameKind,
    expect_frame,
    hello_mac,
    recv_frame,
    send_frame,
)
from repro.crypto.mac import mac_sign
from repro.cluster.worker import PRELOAD, WorkerDaemon, main as worker_main
from repro.errors import ClusterError
from repro.runtime.executor import executor_from_spec
from repro.runtime.pipeline import StreamPipeline


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
        """Every module of the worker's preload list — the shipped functions'
        and their payloads' — is imported before a worker is ready, not
        inside its first tally shard (nothing this module ships imports any)."""
        names = list(PRELOAD)
        assert {"repro.ledger.records", "repro.runtime.batch", "repro.audit.kinds"} <= set(names)
        loaded = cluster_executor.map(cluster_tasks.module_loaded, names, chunksize=1)
        assert dict(zip(names, loaded)) == dict.fromkeys(names, True)

    def test_a_worker_imports_only_its_shard_closure(self):
        """Importing the daemon loads the preload list and what it needs,
        and none of the ceremony, the front door, the plan builder, the
        board store or the coordinator: package ``__init__`` files re-export
        nothing, so importing one module never loads its siblings."""
        probe = "import sys, repro.cluster.worker; print(' '.join(sorted(sys.modules)))"
        loaded = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        ).stdout.split()
        assert "repro.cluster.worker" in loaded
        families = ("repro.registration", "repro.gateway", "repro.election", "repro.ledger.backends")
        exact = {
            "repro.audit.checks", "repro.tally.pipeline", "repro.ledger.api",
            "repro.cluster.coordinator", "asyncio", "sqlite3",
        }
        stray = [
            name for name in loaded
            if name in exact or any(name == family or name.startswith(family + ".") for family in families)
        ]
        assert stray == []

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

    def test_stream_pipeline_function_runs_on_remote_executor(self, cluster_executor):
        pages = [list(range(start, min(start + 7, 30))) for start in range(0, 30, 7)]
        results = StreamPipeline(
            lambda page: cluster_executor.map(cluster_tasks.square, page), name="remote-map"
        ).run(pages)
        assert [item for page in results for item in page] == [i * i for i in range(30)]


class TestEnrollment:
    def test_warm_frame_carries_the_picklable_group_factories(self):
        """Warm work is group factories alone; one that does not pickle is dropped."""
        from repro.crypto.modp_group import testing_group

        secret = b"k" * 32
        coordinator = ClusterCoordinator(secret=secret)
        coordinator.set_warm([testing_group, lambda: None])
        try:
            with socket.create_connection(coordinator.address, timeout=10) as sock:
                nonce = expect_frame(sock, FrameKind.CHALLENGE, pre_auth=True).payload["nonce"]
                send_frame(sock, Frame(FrameKind.HELLO, {
                    "protocol_version": PROTOCOL_VERSION,
                    "worker_id": "warm-probe",
                    "nonce": b"w" * 16,
                    "mac": hello_mac(secret, nonce, "warm-probe"),
                }))
                expect_frame(sock, FrameKind.WELCOME, pre_auth=True)
                assert expect_frame(sock, FrameKind.WARM).payload == {"groups": [testing_group]}
        finally:
            coordinator.shutdown()

    def test_handshake_rejects_wrong_secret(self, cluster_executor):
        coordinator = cluster_executor.coordinator
        with socket.create_connection(coordinator.address, timeout=10) as sock:
            challenge = expect_frame(sock, FrameKind.CHALLENGE).payload
            tag = hello_mac(b"not-the-secret", challenge["nonce"], "intruder")
            send_frame(sock, Frame(FrameKind.HELLO, {
                "protocol_version": PROTOCOL_VERSION,
                "worker_id": "intruder",
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
            }))
            with pytest.raises(ClusterError, match="version mismatch"):
                expect_frame(sock, FrameKind.WELCOME)

    def test_handshake_refuses_a_v1_hello_that_announces_slots(self, cluster_executor):
        """A worker built before the slot count left the HELLO is refused by
        name, and the coordinator hangs up."""
        coordinator = cluster_executor.coordinator
        with socket.create_connection(coordinator.address, timeout=10) as sock:
            nonce = expect_frame(sock, FrameKind.CHALLENGE).payload["nonce"]
            v1_message = b"|".join([b"repro-cluster-hello", b"1", nonce, b"old-worker", b"4"])
            send_frame(sock, Frame(FrameKind.HELLO, {
                "protocol_version": 1,
                "worker_id": "old-worker",
                "slots": 4,
                "nonce": b"old-worker-nonce",
                "mac": mac_sign(cluster_executor._secret, v1_message),
            }))
            with pytest.raises(ClusterError, match="protocol version mismatch"):
                expect_frame(sock, FrameKind.WELCOME)
            with pytest.raises(ConnectionClosed):
                recv_frame(sock)
        assert "old-worker" not in coordinator.worker_ids()

    def test_in_thread_worker_enrolls_serves_and_drains_on_shutdown(self):
        secret = b"k" * 32
        executor = RemoteExecutor(secret=secret)
        coordinator = executor.coordinator
        daemon = WorkerDaemon(address=executor.coordinator.address, secret=secret, worker_id="thread-worker")
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

    def test_workers_that_exit_before_enrolling_end_the_first_barrier_with_their_exit_codes(self, monkeypatch):
        """Not the enrollment timeout: the barrier polls the processes it spawned."""
        from repro.cluster import executor as executor_module

        def exits_at_once(address, secret, worker_id=None):
            return subprocess.Popen([sys.executable, "-c", "raise SystemExit(3)"])

        monkeypatch.setattr(executor_module, "spawn_local_worker", exits_at_once)
        executor = RemoteExecutor(secret=b"k" * 32, spawn_workers=2)
        try:
            with pytest.raises(ClusterError, match="exited, exit codes 3, 3") as raised:
                executor.warm()
            assert "timed out" not in str(raised.value)
            assert executor.coordinator.num_workers == 0
        finally:
            executor.close()

    def test_duplicate_worker_identity_is_renamed(self):
        secret = b"k" * 32
        coordinator = ClusterCoordinator(secret=secret)
        daemons = [
            WorkerDaemon(address=coordinator.address, secret=secret, worker_id="same-name")
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


class TestDispatch:
    def test_a_worker_has_at_most_one_task_in_flight(self):
        """A worker is one serial slot: its next task goes out only once the
        previous one's result is back."""
        secret = b"k" * 32
        executor = RemoteExecutor(secret=secret)
        coordinator = executor.coordinator
        daemon = WorkerDaemon(address=executor.coordinator.address, secret=secret, worker_id="one-slot")
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        in_flight = []
        done = threading.Event()

        def sample():
            while not done.is_set():
                with coordinator._lock:
                    in_flight.extend(int(w.task is not None) for w in coordinator._workers.values())
                time.sleep(0.002)

        sampler = threading.Thread(target=sample)
        sampler.start()
        try:
            coordinator.wait_for_workers(1, timeout=30)
            items = [(i, 0.02) for i in range(6)]
            assert executor.starmap(cluster_tasks.slow_echo, items, chunksize=1) == list(range(6))
        finally:
            done.set()
            sampler.join(timeout=30)
            executor.close()
            thread.join(timeout=30)
        assert max(in_flight) == 1
        assert daemon.tasks_served == 6

    def test_a_worker_knows_only_map_and_star_tasks(self, cluster_executor):
        with pytest.raises(ClusterError, match="unknown task mode 'call'"):
            cluster_executor.coordinator.run_tasks([("call", cluster_tasks.echo, (1,))])
        assert cluster_executor.map(cluster_tasks.echo, [1]) == [1]


class TestFaultTolerance:
    def test_duplicate_results_are_idempotent(self):
        """First RESULT per task key wins; redeliveries are dropped."""
        coordinator = ClusterCoordinator(secret=b"k" * 32)
        try:
            outcome = {}
            thread = threading.Thread(
                target=lambda: outcome.update(
                    r=coordinator.run_tasks([("map", cluster_tasks.echo, [1])])
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

    def test_shutdown_fails_outstanding_groups(self):
        coordinator = ClusterCoordinator(secret=b"k" * 32)
        outcome = {}

        def run():
            try:
                coordinator.run_tasks([("map", cluster_tasks.echo, [1])])
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

    def test_remote_spec_parses_multiple_listen_addresses(self, monkeypatch):
        monkeypatch.setenv("REPRO_CLUSTER_SECRET", "00ff")
        executor = remote_executor_from_spec("remote:127.0.0.1:0,127.0.0.1:0")
        try:
            assert len(executor.coordinator.addresses) == 2
            assert all(port != 0 for _, port in executor.coordinator.addresses)
        finally:
            executor.close()

    def test_worker_cli_has_no_local_executor(self, capsys):
        """A worker is one serial slot; ``--executor`` is argparse's usage error."""
        with pytest.raises(SystemExit) as exited:
            worker_main(["--connect", "127.0.0.1:1", "--executor", "serial"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments: --executor serial" in err

    def test_worker_cli_rejects_a_bad_address_with_a_usage_line(self, capsys):
        """A malformed ``--connect`` is argparse's usage error, not a traceback."""
        with pytest.raises(SystemExit) as exited:
            worker_main(["--connect", "nohost"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "'nohost' is not host:port" in err
        assert "Traceback" not in err
