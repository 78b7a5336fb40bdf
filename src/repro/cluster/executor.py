"""``RemoteExecutor``: the executor contract over a worker cluster.

This module adapts :class:`~repro.cluster.coordinator.ClusterCoordinator`
to the :class:`~repro.runtime.executor.Executor` surface, so
``executor_spec`` strings select multi-process execution and every
``map``/``starmap`` call site in the tally, mixnet, filter, decrypt and
audit layers works unchanged:

* ``remote`` — listen on the given address(es) and dispatch to whatever
  worker daemons enroll (``python -m repro.cluster.worker --connect
  host:port``, one per core on each machine, ``REPRO_CLUSTER_SECRET``
  shared out of band);
* ``cluster`` — loopback convenience for tests, CI and benchmarks: bind an
  ephemeral port, generate a fresh secret, and auto-spawn local worker
  subprocesses that enroll against it.  Workers spawn lazily (on ``warm()``
  or first dispatch), so config code can attach warm material (group
  factories) before any worker enrolls.

Dispatch always goes through the coordinator, even with a single enrolled
worker: ``cluster:1`` measures true remoting overhead (the bench gate), and
"check shards executed on remote workers" means exactly that.  Order
preservation and worker-exception transparency are inherited from the
coordinator, so results stay bit-identical to the serial reference.
"""

from __future__ import annotations

import os
import secrets
import subprocess
import sys
import threading
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.protocol import REJOIN_TIMEOUT, format_address, secret_from_env
from repro import telemetry
from repro.errors import ClusterError
from repro.runtime.executor import Executor, chunk_evenly
from repro.spec import EXECUTOR

#: Chunks handed out per worker: fine enough for load balancing, coarse
#: enough to amortize dispatch.  Chunk boundaries are not observable.
CHUNKS_PER_WORKER = 4


def spawn_local_worker(
    address: Tuple[str, int],
    secret: bytes,
    worker_id: Optional[str] = None,
) -> "subprocess.Popen[bytes]":
    """Spawn one worker daemon subprocess enrolled against ``address``.

    The child inherits the parent environment (so ``PYTHONPATH`` carries
    over) with ``secret`` injected as hex through ``REPRO_CLUSTER_SECRET``,
    the one place a worker reads it — via the environment, not argv, so it
    never shows up in process listings.
    """
    child_env = dict(os.environ)
    child_env["REPRO_CLUSTER_SECRET"] = secret.hex()
    # Workers must not inherit the parent's telemetry spec: a jsonl spec
    # would have every worker write the coordinator's trace file directly
    # (double-counting what the RESULT piggyback already merges).  The
    # coordinator's WELCOME flag turns worker-side buffering on instead.
    child_env.pop("REPRO_TELEMETRY", None)
    command = [
        sys.executable, "-m", "repro.cluster.worker",
        "--connect", format_address(address),
    ]
    if worker_id:
        command += ["--id", worker_id]
    return subprocess.Popen(command, env=child_env)


class RemoteExecutor(Executor):
    """An :class:`Executor` whose workers live behind the wire protocol."""

    name = "remote"

    def __init__(
        self,
        listen: Sequence[Tuple[str, int]] = (("127.0.0.1", 0),),
        *,
        secret: bytes,
        spawn_workers: int = 0,
    ) -> None:
        self.coordinator = ClusterCoordinator(listen, secret=secret)
        #: The first barrier waits for this many workers: every spawned one.
        self._floor = max(spawn_workers, 1)
        self._secret = secret
        self._spawn_workers = spawn_workers
        self._spawn_lock = threading.Lock()
        self._spawned = False
        self._enrollment_complete = False
        #: The auto-spawned worker subprocesses (fault tests kill these).
        self.worker_processes: List["subprocess.Popen[bytes]"] = []

    # ------------------------------------------------------------------ lifecycle

    def _ensure_workers(self) -> None:
        """Spawn the local worker complement once (lazily, for cluster:N)."""
        if self._spawn_workers <= 0:
            return
        with self._spawn_lock:
            if self._spawned:
                return
            for index in range(self._spawn_workers):
                self.worker_processes.append(
                    spawn_local_worker(self.coordinator.address, self._secret, worker_id=f"local-{index}")
                )
            self._spawned = True

    def warm(self) -> None:
        """Spawn (if configured) and block until the worker floor is enrolled.

        The enrollment barrier the tally passes before its first shard:
        afterwards every spawned daemon (at least one) has honoured its warm
        list and sent the ready heartbeat.  The full floor is only demanded
        for the *first* barrier; once the cluster has been up, a degraded
        complement (workers died, shards reassigned) keeps dispatching on
        whoever is left rather than stalling for replacements that may never
        enroll.
        """
        self._ensure_workers()
        if not self._enrollment_complete:
            # The span makes cold-start cost visible in the trace.
            with telemetry.span("cluster.warm", backend=self.name, workers=self._floor):
                self.coordinator.wait_for_workers(self._floor, give_up=self._every_spawned_worker_exited)
            self._enrollment_complete = True
            return
        if self.coordinator.num_workers > 0:
            return
        try:
            self.coordinator.wait_for_workers(
                1, timeout=REJOIN_TIMEOUT, give_up=self._every_spawned_worker_exited
            )
        except ClusterError as exc:
            raise ClusterError(f"all cluster workers lost ({exc})") from exc

    def _every_spawned_worker_exited(self) -> Optional[str]:
        """Their exit codes, once every spawned worker subprocess has exited; else ``None``."""
        if not self.worker_processes:
            return None
        codes = [process.poll() for process in self.worker_processes]
        if any(code is None for code in codes):
            return None
        return "every spawned worker subprocess exited, exit codes " + ", ".join(map(str, codes))

    def close(self) -> None:
        self.coordinator.shutdown()
        for process in self.worker_processes:
            if process.poll() is None:
                process.terminate()
        for process in self.worker_processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                process.kill()
                process.wait(timeout=10)
        self.worker_processes.clear()

    # ------------------------------------------------------------------ surface

    @property
    def num_workers(self) -> int:
        # Before enrollment (lazy spawn) report the configured complement so
        # chunk-count heuristics plan for the real cluster.
        enrolled = self.coordinator.num_workers
        if enrolled:
            return enrolled
        return self._floor

    def set_warm(self, groups: Sequence[Any]) -> None:
        """Advertise precompute warm work to workers (see coordinator docs)."""
        self.coordinator.set_warm(groups)

    # ------------------------------------------------------------------ dispatch

    def _remote_fan_out(self, mode: str, fn: Callable, items: Any, chunksize: Optional[int]) -> List[Any]:
        work = list(items)
        if not work:
            return []
        self.warm()
        if chunksize is not None and chunksize > 0:
            num_chunks = (len(work) + chunksize - 1) // chunksize
        else:
            num_chunks = max(1, self.num_workers) * CHUNKS_PER_WORKER
        chunks = chunk_evenly(work, num_chunks)
        with telemetry.span(
            "executor.map", backend=self.name, op=mode, items=len(work), chunks=len(chunks)
        ):
            shard_results = self.coordinator.run_tasks([(mode, fn, chunk) for chunk in chunks])
        results: List[Any] = []
        for shard in shard_results:
            results.extend(shard)
        return results

    def map(
        self, fn: Callable[[Any], Any], items: Iterable[Any], chunksize: Optional[int] = None
    ) -> List[Any]:
        return self._remote_fan_out("map", fn, items, chunksize)

    def starmap(
        self, fn: Callable[..., Any], items: Iterable[Any], chunksize: Optional[int] = None
    ) -> List[Any]:
        return self._remote_fan_out("star", fn, items, chunksize)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RemoteExecutor(address={format_address(self.coordinator.address)}, "
            f"workers={self.coordinator.num_workers})"
        )


# ---------------------------------------------------------------------------
# Spec parsing (the remote arm of executor_from_spec)
# ---------------------------------------------------------------------------


def remote_executor_from_spec(spec: str) -> RemoteExecutor:
    """Build the executor of a ``cluster``/``remote`` head of :data:`repro.spec.EXECUTOR`.

    ``remote`` coordinators take their enrollment secret from
    ``REPRO_CLUSTER_SECRET`` and raise :class:`ClusterError` before binding
    when it is unset; ``cluster`` coordinators generate a fresh one and hand
    it to their spawned workers through the environment.
    """
    head, given = EXECUTOR.parse(spec)
    if head == "cluster":
        count = given["num_workers"]
        return RemoteExecutor(secret=secrets.token_bytes(32), spawn_workers=count)
    if head == "remote":
        return RemoteExecutor(given["listen"], secret=secret_from_env())
    raise ValueError(f"executor spec {spec!r} is not served by repro.cluster")
