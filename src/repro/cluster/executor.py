"""``RemoteExecutor``: the executor contract over a worker cluster.

This module adapts :class:`~repro.cluster.coordinator.ClusterCoordinator`
to the :class:`~repro.runtime.executor.Executor` surface, so
``executor_spec`` strings select multi-node execution exactly the way they
select thread or process pools — every ``parallel_map``/``parallel_starmap``
call site in the tally, mixnet, filter, decrypt and audit layers works
unchanged:

* ``remote`` — listen on the given address(es) and dispatch to whatever
  worker daemons enroll (``python -m repro.cluster.worker --connect
  host:port`` on each machine, ``REPRO_CLUSTER_SECRET`` shared out of band);
* ``cluster`` — loopback convenience for tests, CI and benchmarks: bind an
  ephemeral port, generate a fresh secret, and auto-spawn local worker
  subprocesses that enroll against it.  Workers spawn lazily (on ``warm()``
  or first dispatch), so config code can attach warm material — group
  factories, hot bases — before any worker enrolls.

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

from repro.cluster.coordinator import (
    DEFAULT_ENROLL_TIMEOUT,
    DEFAULT_TASK_TIMEOUT,
    ClusterCoordinator,
)
from repro.cluster.protocol import decode_secret, format_address
from repro import telemetry
from repro.errors import ClusterError
from repro.runtime.executor import (
    Executor,
    _apply_chunk,
    _star_chunk,
    chunk_evenly,
)
from repro.spec import EXECUTOR, env

#: Chunks handed out per worker slot; matches the in-process backends'
#: load-balancing granularity so chunk boundaries (and therefore nothing
#: observable) are the only difference between backends.
CHUNKS_PER_SLOT = 4


def spawn_local_worker(
    address: Tuple[str, int],
    secret: bytes,
    executor_spec: str = "serial",
    worker_id: Optional[str] = None,
) -> "subprocess.Popen[bytes]":
    """Spawn one worker daemon subprocess enrolled against ``address``.

    The child inherits the parent environment (so ``PYTHONPATH`` carries
    over) with the enrollment secret
    injected as hex through ``REPRO_CLUSTER_SECRET`` — via the environment,
    not argv, so it never shows up in process listings.
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
        "--executor", executor_spec,
    ]
    if worker_id:
        command += ["--id", worker_id]
    return subprocess.Popen(command, env=child_env)


class RemoteExecutor(Executor):
    """An :class:`Executor` whose workers live behind the wire protocol."""

    name = "remote"

    def __init__(
        self,
        coordinator: Optional[ClusterCoordinator] = None,
        listen: Sequence[Tuple[str, int]] = (("127.0.0.1", 0),),
        secret: Optional[bytes] = None,
        min_workers: int = 1,
        enroll_timeout: float = DEFAULT_ENROLL_TIMEOUT,
        rejoin_timeout: float = 10.0,
        spawn_workers: int = 0,
        worker_executor_spec: str = "serial",
        task_timeout: Optional[float] = DEFAULT_TASK_TIMEOUT,
    ) -> None:
        if coordinator is None:
            coordinator = ClusterCoordinator(listen=listen, secret=secret, task_timeout=task_timeout)
        self.coordinator = coordinator
        self.min_workers = max(1, min_workers)
        self.enroll_timeout = enroll_timeout
        #: How long a fully-degraded cluster (every worker lost after a
        #: completed enrollment) waits for a re-enrollment before raising.
        self.rejoin_timeout = rejoin_timeout
        self._secret = secret
        self._spawn_workers = spawn_workers
        self._worker_executor_spec = worker_executor_spec
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
            if self._secret is None:
                raise ClusterError("auto-spawned clusters require an enrollment secret")
            for index in range(self._spawn_workers):
                self.worker_processes.append(
                    spawn_local_worker(
                        self.coordinator.address,
                        self._secret,
                        executor_spec=self._worker_executor_spec,
                        worker_id=f"local-{index}",
                    )
                )
            self._spawned = True

    def warm(self) -> None:
        """Spawn (if configured) and block until the worker floor is enrolled.

        The remote analogue of pool pre-forking: the tally calls ``warm()``
        before starting pipeline stage threads, and here it doubles as the
        enrollment barrier — afterwards at least ``min_workers`` daemons
        have honoured their warm lists and sent the ready heartbeat.  The
        full floor is only demanded for the *first* barrier; once the
        cluster has been up, a degraded complement (workers died, shards
        reassigned) keeps dispatching on whoever is left rather than
        stalling for replacements that may never enroll.
        """
        self._ensure_workers()
        if not self._enrollment_complete:
            floor = max(self.min_workers, self._spawn_workers, 1)
            # The enrollment barrier is the remote analogue of pool spin-up;
            # the span makes cold-start cost visible next to executor.warm.
            with telemetry.span("cluster.warm", backend=self.name, workers=floor):
                self.coordinator.wait_for_workers(floor, timeout=self.enroll_timeout)
            self._enrollment_complete = True
            return
        if self.coordinator.num_workers > 0:
            return
        if (
            self._spawned
            and self.worker_processes
            and all(process.poll() is not None for process in self.worker_processes)
        ):
            raise ClusterError(
                "all cluster workers lost (every spawned worker subprocess exited)"
            )
        try:
            self.coordinator.wait_for_workers(1, timeout=self.rejoin_timeout)
        except ClusterError as exc:
            raise ClusterError(
                "all cluster workers lost and none re-enrolled within "
                f"{self.rejoin_timeout:.0f}s"
            ) from exc

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
        enrolled = self.coordinator.total_slots
        if enrolled:
            return enrolled
        return max(self.min_workers, self._spawn_workers, 1)

    def set_warm(self, groups: Optional[Sequence[Any]] = None, bases: Optional[Sequence[Any]] = None) -> None:
        """Advertise precompute warm work to workers (see coordinator docs)."""
        self.coordinator.set_warm(groups=groups, bases=bases)

    # ------------------------------------------------------------------ dispatch

    def _remote_fan_out(self, mode: str, fn: Callable, items: Any, chunksize: Optional[int]) -> List[Any]:
        work = list(items)
        if not work:
            return []
        self.warm()
        if chunksize is not None and chunksize > 0:
            num_chunks = (len(work) + chunksize - 1) // chunksize
        else:
            num_chunks = max(1, self.num_workers) * CHUNKS_PER_SLOT
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

    def _run_chunks(
        self, applier: Callable[..., Any], fn: Callable[..., Any], chunks: Sequence[Any]
    ) -> List[Any]:
        # Reached only by callers bypassing map/starmap with a custom applier;
        # translate the two runtime appliers, ship anything else as a call.
        if applier is _apply_chunk:
            return self.coordinator.run_tasks([("map", fn, chunk) for chunk in chunks])
        if applier is _star_chunk:
            return self.coordinator.run_tasks([("star", fn, chunk) for chunk in chunks])
        return self.coordinator.run_tasks([("call", applier, (fn, chunk)) for chunk in chunks])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RemoteExecutor(address={format_address(self.coordinator.address)}, "
            f"workers={self.coordinator.num_workers}, slots={self.coordinator.total_slots})"
        )


# ---------------------------------------------------------------------------
# Spec parsing (the remote arm of executor_from_spec)
# ---------------------------------------------------------------------------


def remote_executor_from_spec(spec: str) -> RemoteExecutor:
    """Build the executor of a ``cluster``/``remote`` head of :data:`repro.spec.EXECUTOR`.

    ``remote`` coordinators take their enrollment secret from
    ``REPRO_CLUSTER_SECRET``; ``cluster`` coordinators generate a fresh one
    and hand it to their spawned workers through the environment.
    """
    head, given = EXECUTOR.parse(spec)
    if head == "cluster":
        count = given["num_workers"]
        return RemoteExecutor(
            listen=(("127.0.0.1", 0),),
            secret=secrets.token_bytes(32),
            min_workers=count,
            spawn_workers=count,
        )
    if head == "remote":
        secret = decode_secret(env("REPRO_CLUSTER_SECRET"))
        return RemoteExecutor(listen=given["listen"], secret=secret, min_workers=1)
    raise ValueError(f"executor spec {spec!r} is not served by repro.cluster")
