"""Pluggable execution backends for the embarrassingly parallel hot paths.

Every heavy stage of the reproduction — mix-cascade re-encryption, shuffle
verification, tag blinding, threshold decryption, ballot signature checks —
is a pure function mapped over per-ballot (or per-round) work items.  This
module gives those stages a single, swappable execution boundary, in the
spirit of runtimes that hide the scheduling substrate behind a small API so
callers stay backend-agnostic:

* :class:`SerialExecutor` — a plain loop; the default, zero overhead, and the
  reference semantics every other backend must reproduce bit-for-bit;
* :class:`ThreadExecutor` — a thread pool; useful when the work releases the
  GIL (large-integer ``pow`` partially does) or is I/O-bound;
* :class:`ProcessExecutor` — a process pool (fork-server on POSIX); true
  multi-core scaling for the CPU-bound modular exponentiation workloads.

Backends preserve input order and surface worker exceptions unchanged, so a
caller cannot observe which backend ran its work (other than the wall clock).
Work functions handed to :class:`ProcessExecutor` must be module-level
(picklable); all runtime-internal helpers obey this rule.

A module-level *default executor* (initially serial) lets high-level code opt
a whole election into a backend once — e.g. via
:attr:`repro.election.config.ElectionConfig.executor_spec` — without threading
an executor argument through every call site.
"""

from __future__ import annotations

import abc
import os
import threading
import time
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.spec import EXECUTOR


def available_workers() -> int:
    """The number of CPUs actually available to this process."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def chunk_evenly(items: Sequence[Any], num_chunks: int) -> List[List[Any]]:
    """Split ``items`` into at most ``num_chunks`` contiguous, near-equal chunks.

    Order is preserved: concatenating the chunks yields ``list(items)``.
    """
    n = len(items)
    num_chunks = max(1, min(num_chunks, n))
    base, extra = divmod(n, num_chunks)
    chunks: List[List[Any]] = []
    start = 0
    for index in range(num_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(list(items[start : start + size]))
        start += size
    return chunks


# Module-level chunk appliers so ProcessExecutor tasks stay picklable.


def _apply_chunk(fn: Callable[[Any], Any], chunk: Sequence[Any]) -> List[Any]:
    return [fn(item) for item in chunk]


def _star_chunk(fn: Callable[..., Any], chunk: Sequence[Tuple]) -> List[Any]:
    return [fn(*args) for args in chunk]


def _warm_task(seconds: float) -> None:
    """A short nap used by :meth:`Executor.warm` to force worker spawn."""
    time.sleep(seconds)


def _apply_with_context(carrier: str, applier: Callable, fn: Callable, chunk: Sequence[Any]) -> List[Any]:
    """Run one chunk under the submitting call's re-attached trace context.

    Pool workers do not inherit the submitter's ``contextvars`` state (thread
    pools reuse long-lived threads; fork-server processes snapshot whatever
    was active at fork time), so the trace context crosses the pool boundary
    as an encoded traceparent string.  Module-level so ProcessExecutor tasks
    stay picklable.
    """
    context = telemetry.parse_traceparent(carrier)
    if context is None:
        return applier(fn, chunk)
    token = telemetry.attach(context)
    try:
        return applier(fn, chunk)
    finally:
        telemetry.detach(token)


class Executor(abc.ABC):
    """An order-preserving ``map``/``starmap`` engine over a worker pool."""

    name: str = "abstract"

    @property
    @abc.abstractmethod
    def num_workers(self) -> int:
        """How many workers this executor fans out across (1 for serial)."""

    @abc.abstractmethod
    def _run_chunks(self, applier: Callable, fn: Callable, chunks: List[List[Any]]) -> List[List[Any]]:
        """Run ``applier(fn, chunk)`` for every chunk, preserving chunk order."""

    def close(self) -> None:
        """Release pool resources.  Safe to call more than once."""

    def warm(self) -> None:
        """Spin up any backing worker pool from the calling thread.

        Pool creation is otherwise lazy, which means a process pool could
        fork from inside a pipeline stage thread; calling ``warm`` before
        starting threads keeps the fork single-threaded.  A no-op for
        poolless backends.
        """

    # ------------------------------------------------------------------ mapping

    def _fan_out(self, applier: Callable, fn: Callable, items: Iterable[Any], chunksize: Optional[int]) -> List[Any]:
        work = list(items)
        if not work:
            return []
        if self.num_workers <= 1 or len(work) == 1:
            return applier(fn, work)
        if chunksize is not None and chunksize > 0:
            num_chunks = (len(work) + chunksize - 1) // chunksize
        else:
            # Fine enough for load balancing, coarse enough to amortize dispatch.
            num_chunks = self.num_workers * 4
        chunks = chunk_evenly(work, num_chunks)
        # One span per fan-out (not per item): the single-worker early return
        # above keeps the serial path span-free, so disabled-mode overhead on
        # the reference backend stays at zero.
        with telemetry.span(
            "executor.map",
            backend=self.name,
            op="star" if applier is _star_chunk else "map",
            items=len(work),
            chunks=len(chunks),
        ):
            results: List[Any] = []
            for chunk_result in self._run_chunks(applier, fn, chunks):
                results.extend(chunk_result)
            return results

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any], chunksize: Optional[int] = None) -> List[Any]:
        """``[fn(x) for x in items]`` with backend-defined parallelism."""
        return self._fan_out(_apply_chunk, fn, items, chunksize)

    def starmap(self, fn: Callable[..., Any], items: Iterable[Tuple], chunksize: Optional[int] = None) -> List[Any]:
        """``[fn(*args) for args in items]`` with backend-defined parallelism."""
        return self._fan_out(_star_chunk, fn, items, chunksize)

    # ------------------------------------------------------------------ context

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(num_workers={self.num_workers})"


class SerialExecutor(Executor):
    """The reference backend: a plain in-process loop."""

    name = "serial"

    @property
    def num_workers(self) -> int:
        return 1

    def _run_chunks(self, applier, fn, chunks):  # pragma: no cover - unreachable via _fan_out
        return [applier(fn, chunk) for chunk in chunks]


class _PoolExecutor(Executor):
    """Shared machinery for the concurrent.futures-backed backends."""

    def __init__(self, num_workers: Optional[int] = None):
        self._num_workers = max(1, num_workers if num_workers is not None else available_workers())
        self._pool = None
        self._pool_lock = threading.Lock()
        self._warmed = False

    @property
    def num_workers(self) -> int:
        return self._num_workers

    @abc.abstractmethod
    def _make_pool(self):
        """Create the underlying concurrent.futures pool."""

    def _ensure_pool(self):
        # Locked: pipeline stages share one executor across threads, and two
        # racing first submissions must not each build a pool.
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._make_pool()
            return self._pool

    def warm(self) -> None:
        """Create the pool and force every worker to spawn now.

        Submitting ``num_workers`` concurrent short sleeps makes
        ``concurrent.futures`` bring up its full worker complement now —
        pools otherwise spawn lazily, one worker per submit, so a
        partially-used pool could still fork from inside a stage thread.
        Idempotent per pool lifetime: after the first full warm, later calls
        return immediately (the streaming tally warms before every pipeline
        it builds).
        """
        if self._warmed and self._pool is not None:
            return
        with telemetry.span("executor.warm", backend=self.name, workers=self._num_workers):
            pool = self._ensure_pool()
            for future in [pool.submit(_warm_task, 0.01) for _ in range(self._num_workers)]:
                future.result()
            self._warmed = True

    def _run_chunks(self, applier, fn, chunks):
        pool = self._ensure_pool()
        context = telemetry.current_context() if telemetry.enabled() else None
        if context is None:
            futures = [pool.submit(applier, fn, chunk) for chunk in chunks]
        else:
            # Carry the fan-out span's context into every worker so spans
            # emitted inside ``fn`` parent under this map, not a stale trace.
            carrier = context.to_traceparent()
            futures = [
                pool.submit(_apply_with_context, carrier, applier, fn, chunk)
                for chunk in chunks
            ]
        return [future.result() for future in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._warmed = False


class ThreadExecutor(_PoolExecutor):
    """A thread-pool backend (shared address space, subject to the GIL)."""

    name = "thread"

    def _make_pool(self):
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor(max_workers=self._num_workers, thread_name_prefix="repro-runtime")


class ProcessExecutor(_PoolExecutor):
    """A process-pool backend for true multi-core scaling.

    Work functions and their arguments must be picklable; the mod-p and
    Ed25519 group backends reduce to their canonical singletons so group
    identity checks keep holding across the process boundary.
    """

    name = "process"

    def _make_pool(self):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            context = multiprocessing.get_context()
        return ProcessPoolExecutor(max_workers=self._num_workers, mp_context=context)


# ---------------------------------------------------------------------------
# Default executor + spec parsing
# ---------------------------------------------------------------------------

_BACKENDS = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}

_default_executor: Executor = SerialExecutor()


def get_default_executor() -> Executor:
    """The module-wide default used when a call site passes ``executor=None``."""
    return _default_executor


def set_default_executor(executor: Executor) -> Executor:
    """Install a new default executor; returns the previous one."""
    global _default_executor
    previous = _default_executor
    _default_executor = executor
    return previous


def resolve_executor(executor: Optional[Executor]) -> Executor:
    """Resolve an optional per-call executor against the module default."""
    return executor if executor is not None else _default_executor


def executor_from_spec(spec: str) -> Executor:
    """Build an executor from an ``executor_spec`` (forms: :data:`repro.spec.EXECUTOR`).

    Worker counts default to the CPUs available.  The multi-node heads live
    in :mod:`repro.cluster`, imported lazily so the runtime layer never pays
    for — or cyclically depends on — it unless a remote spec is requested.
    """
    head, given = EXECUTOR.parse(spec)
    if head in ("cluster", "remote"):
        from repro.cluster.executor import remote_executor_from_spec

        return remote_executor_from_spec(spec)
    return _BACKENDS[head](**given)
