"""Streaming shard pipeline: a bounded-queue stage scheduler.

The tally's heavy phases form a linear dataflow — read ballot shards off the
ledger, push them through ``num_mixers`` shuffle stages, derive blinded tags,
join against the registration tags, decrypt the survivors.  Before this
module, each phase ran to completion before the next started, so adding a
mixer multiplied wall-clock latency.  :class:`StreamPipeline` runs every
stage in its own thread, connected by bounded FIFO queues, so stage *i+1*
works on shard *k* while stage *i* works on shard *k+1* — the classic
producer/consumer pipelining that hides per-stage latency behind overlap.

Design points:

* **Shards, not items.**  The unit of flow is a :class:`Shard` — an indexed
  batch of work items.  Batching amortizes queue overhead and gives each
  stage a chunk big enough to fan out over its :class:`~repro.runtime.
  executor.Executor`; the pipeline composes with the executor layer rather
  than replacing it (stage threads overlap, executors parallelize within a
  stage's shard).  That composition includes the multi-node backend: a
  :class:`~repro.cluster.executor.RemoteExecutor` handed to stages is
  safe to share — its coordinator multiplexes concurrent task groups from
  several stage threads — so a streaming cascade's mixers can each fan
  their shard across the same worker fleet.
* **Backpressure.**  Every inter-stage queue is bounded by ``queue_depth``
  shards; a fast producer blocks instead of buffering the whole stream, so
  memory stays proportional to ``num_stages × queue_depth × shard_size``.
* **Order preservation.**  Queues are FIFO and stages emit in order, so the
  sink observes shards in index order; :class:`ShardReassembler` helps
  stages whose work completes out of order (a shuffle scatters source items
  across output positions) release contiguous shards as soon as they are
  whole.
* **Error propagation and cancellation.**  The first exception raised by any
  stage (or the source, or the consumer callback) cancels the whole
  pipeline: every blocked put/get is woken, every worker thread joins, and
  :meth:`StreamPipeline.run` re-raises the original exception unchanged.  A
  consumer can also end the stream early by raising :class:`StopPipeline`
  (used by streaming verification to stop on the first failed check).
* **Post-stream finalization.**  A stage's :meth:`Stage.finalize` runs
  *after* its end-of-stream marker has been handed downstream, so expensive
  side-products (a mixer's shadow shuffles and proof) overlap with
  downstream consumption of the main output instead of serializing the
  cascade.

The scheduler is deliberately deterministic from the outside: given the same
source shards and stages, the collected output is identical regardless of
thread interleaving — schedule-dependent behaviour is confined to wall-clock
and is exactly what the CI stress job shakes out with randomized shard and
queue sizes.
"""

from __future__ import annotations

import abc
import queue
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.runtime.executor import Executor
from repro.runtime.sharding import parallel_map
from repro.spec import PIPELINE

#: How long a blocked queue operation waits before re-checking cancellation.
_POLL_SECONDS = 0.05

#: Default number of items per shard when a spec does not say otherwise.
DEFAULT_SHARD_SIZE = 32

#: Default bound (in shards) on every inter-stage queue.
DEFAULT_QUEUE_DEPTH = 4


class StopPipeline(Exception):
    """Raised by a consumer callback to cancel the rest of the stream cleanly.

    Stages must not raise this; it is the *sink's* way of saying "I have seen
    enough" (e.g. a verification pipeline stopping at the first failure).
    """


class _Cancelled(Exception):
    """Internal: a blocked queue operation observed the cancel event."""


@dataclass(frozen=True)
class Shard:
    """An indexed batch of work items flowing through the pipeline."""

    index: int
    items: List[Any]

    def __len__(self) -> int:
        return len(self.items)


def shard_boundaries(total: int, shard_size: int) -> List[Tuple[int, int]]:
    """The ``[start, end)`` ranges covered by each shard of a ``total``-item stream."""
    if shard_size < 1:
        raise ValueError("shard size must be >= 1")
    return [(start, min(start + shard_size, total)) for start in range(0, total, shard_size)]


def iter_shards(items: Sequence[Any], shard_size: int) -> Iterator[Shard]:
    """Split ``items`` into contiguous :class:`Shard`s of at most ``shard_size``."""
    for index, (start, end) in enumerate(shard_boundaries(len(items), shard_size)):
        yield Shard(index=index, items=list(items[start:end]))


class Stage(abc.ABC):
    """One stage of a :class:`StreamPipeline`.

    The scheduler calls, in order and from a single dedicated thread:
    ``process(shard)`` for every input shard; ``finish()`` once the input
    stream ends (emit any buffered tail shards); then — after the stage's
    end-of-stream marker has been handed downstream — ``finalize()`` for
    post-stream work whose results leave through a side channel (e.g. a
    mixer's proof).  ``process``/``finish`` yield output shards; a stage must
    emit shards in index order (use :class:`ShardReassembler` when work
    completes out of order).
    """

    name: str = "stage"

    #: Bound by the scheduler before the run starts; long-running ``finalize``
    #: implementations should poll :meth:`should_abort` between work units so
    #: a failure elsewhere in the pipeline does not wait on doomed work.
    _should_abort: Callable[[], bool] = staticmethod(lambda: False)

    def bind_abort(self, should_abort: Callable[[], bool]) -> None:
        self._should_abort = should_abort

    def should_abort(self) -> bool:
        """Has the pipeline been cancelled (error or :class:`StopPipeline`)?"""
        return self._should_abort()

    @abc.abstractmethod
    def process(self, shard: Shard) -> Iterable[Shard]:
        """Consume one input shard; yield zero or more output shards."""

    def finish(self) -> Iterable[Shard]:
        """Input stream ended: yield any remaining output shards."""
        return ()

    def finalize(self) -> None:
        """Post-stream hook, run after downstream has the end-of-stream marker."""


class MapStage(Stage):
    """A stateless 1:1 stage: apply ``fn`` to every item of every shard.

    ``fn`` runs through :func:`repro.runtime.sharding.parallel_map`, so a
    thread/process executor parallelizes *within* the shard while the
    pipeline overlaps *across* stages.  ``fn`` must be module-level when the
    executor is process-backed (pickling).
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        executor: Optional[Executor] = None,
        name: Optional[str] = None,
        chunksize: Optional[int] = None,
    ):
        self.fn = fn
        self.executor = executor
        self.chunksize = chunksize
        self.name = name or getattr(fn, "__name__", "map")

    def process(self, shard: Shard) -> Iterable[Shard]:
        yield Shard(shard.index, parallel_map(self.fn, shard.items, executor=self.executor, chunksize=self.chunksize))


class ShardReassembler:
    """Order-preserving reassembly of out-of-order item completions.

    Built from the stream's shard boundaries; :meth:`add` records a completed
    item at an absolute position and returns every shard that became both
    complete and next-in-order.  Used by stages (like a shuffle) whose output
    positions fill in scattered order but must leave in stream order.
    """

    def __init__(self, boundaries: Sequence[Tuple[int, int]]):
        self._boundaries = list(boundaries)
        total = self._boundaries[-1][1] if self._boundaries else 0
        self._slots: List[Any] = [None] * total
        self._missing = [end - start for start, end in self._boundaries]
        self._shard_of = [0] * total
        for index, (start, end) in enumerate(self._boundaries):
            for position in range(start, end):
                self._shard_of[position] = index
        self._next_shard = 0

    def add(self, position: int, value: Any) -> List[Shard]:
        """Record ``value`` at ``position``; return newly releasable shards."""
        self._slots[position] = value
        shard_index = self._shard_of[position]
        self._missing[shard_index] -= 1
        released: List[Shard] = []
        while self._next_shard < len(self._boundaries) and self._missing[self._next_shard] == 0:
            start, end = self._boundaries[self._next_shard]
            released.append(Shard(self._next_shard, self._slots[start:end]))
            self._next_shard += 1
        return released

    @property
    def pending_shards(self) -> int:
        """How many shards have not been released yet."""
        return len(self._boundaries) - self._next_shard


class StreamPipeline:
    """A linear chain of :class:`Stage`s connected by bounded queues."""

    def __init__(self, stages: Sequence[Stage], queue_depth: int = DEFAULT_QUEUE_DEPTH, name: str = "pipeline"):
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        if queue_depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.stages = list(stages)
        self.queue_depth = queue_depth
        self.name = name
        self._cancel = threading.Event()
        self._error_lock = threading.Lock()
        self._error: Optional[BaseException] = None
        self._ran = False
        #: The caller's trace context, captured by :meth:`run`.  Stage and
        #: source threads start context-clean (plain ``threading.Thread``),
        #: so each attaches this explicitly — stage spans then parent under
        #: the tally span that drove the pipeline, not a fresh trace apiece.
        self._context: Optional[telemetry.TraceContext] = None

    # ------------------------------------------------------------------ internals

    def _record_error(self, exc: BaseException) -> None:
        with self._error_lock:
            if self._error is None:
                self._error = exc
        self._cancel.set()

    def _put(self, q: "queue.Queue", item: Any, label: Optional[str] = None) -> None:
        stalled = False
        while True:
            if self._cancel.is_set():
                raise _Cancelled()
            try:
                q.put(item, timeout=_POLL_SECONDS)
            except queue.Full:
                # Count each put that blocked at least once: a high stall
                # count on one queue names the slow stage downstream of it.
                if label is not None and not stalled and telemetry.enabled():
                    stalled = True
                    telemetry.counter("pipeline.backpressure.stalls", pipeline=self.name, queue=label)
                continue
            if label is not None and telemetry.enabled():
                # Sampled depth after our put; the snapshot keeps the
                # high-water mark, i.e. how close the queue came to its bound.
                telemetry.gauge("pipeline.queue.depth", q.qsize(), pipeline=self.name, queue=label)
            return

    def _get(self, q: "queue.Queue") -> Any:
        while True:
            if self._cancel.is_set():
                raise _Cancelled()
            try:
                return q.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                continue

    def _feed(self, source: Iterable[Shard], out: "queue.Queue", sentinel: object) -> None:
        token = telemetry.attach(self._context) if self._context is not None else None
        try:
            for shard in source:
                self._put(out, shard, "source")
            self._put(out, sentinel)
        except _Cancelled:
            pass
        except BaseException as exc:  # noqa: BLE001 - propagated to run()
            self._record_error(exc)
        finally:
            if token is not None:
                telemetry.detach(token)

    def _work(self, stage: Stage, inbox: "queue.Queue", out: "queue.Queue", sentinel: object) -> None:
        token = telemetry.attach(self._context) if self._context is not None else None
        try:
            while True:
                item = self._get(inbox)
                if item is sentinel:
                    with telemetry.span("pipeline.finish", pipeline=self.name, stage=stage.name):
                        for shard in stage.finish():
                            self._put(out, shard, stage.name)
                    self._put(out, sentinel)
                    # Post-stream work runs with downstream already unblocked:
                    # this is what lets a mixer compute its shadow proof while
                    # the next mixer consumes the main output.  Skipped when
                    # the pipeline is already dead.
                    if not self._cancel.is_set():
                        with telemetry.span("pipeline.finalize", pipeline=self.name, stage=stage.name):
                            stage.finalize()
                    return
                # The span covers shard service time *including* any blocked
                # put downstream — stalls are separated out by the
                # pipeline.backpressure.stalls counter on the outbound queue.
                with telemetry.span(
                    "pipeline.stage",
                    pipeline=self.name,
                    stage=stage.name,
                    shard=item.index,
                    items=len(item),
                ):
                    for shard in stage.process(item):
                        self._put(out, shard, stage.name)
        except _Cancelled:
            pass
        except BaseException as exc:  # noqa: BLE001 - propagated to run()
            self._record_error(exc)
        finally:
            if token is not None:
                telemetry.detach(token)

    # ------------------------------------------------------------------ running

    def run(
        self,
        source: Iterable[Shard],
        consume: Optional[Callable[[Shard], None]] = None,
    ) -> List[Shard]:
        """Drive ``source`` through every stage; return the sink's shards in order.

        ``consume`` is called in the caller's thread for every output shard as
        it arrives; raising :class:`StopPipeline` from it cancels the rest of
        the stream and returns the shards collected so far.  Any other
        exception — from a stage, the source, or ``consume`` — cancels the
        pipeline and re-raises once every worker thread has exited.

        A pipeline instance is single-use: ``run`` may only be called once.
        """
        if self._ran:
            raise RuntimeError("a StreamPipeline instance can only run once")
        self._ran = True
        self._context = telemetry.current_context() if telemetry.enabled() else None
        for stage in self.stages:
            stage.bind_abort(self._cancel.is_set)
        sentinel = object()
        queues: List["queue.Queue"] = [queue.Queue(maxsize=self.queue_depth) for _ in range(len(self.stages) + 1)]
        threads = [
            threading.Thread(
                target=self._feed, args=(source, queues[0], sentinel), name=f"{self.name}-source", daemon=True
            )
        ]
        threads += [
            threading.Thread(
                target=self._work,
                args=(stage, queues[i], queues[i + 1], sentinel),
                name=f"{self.name}-{i}-{stage.name}",
                daemon=True,
            )
            for i, stage in enumerate(self.stages)
        ]
        for thread in threads:
            thread.start()

        collected: List[Shard] = []
        stopped = False
        try:
            while True:
                item = self._get(queues[-1])
                if item is sentinel:
                    break
                collected.append(item)
                if consume is not None:
                    consume(item)
        except StopPipeline:
            stopped = True
            self._cancel.set()
        except _Cancelled:
            pass
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            self._record_error(exc)
        finally:
            # Wake anything still blocked, then wait for every thread: stage
            # finalize() work is part of the pipeline's contract, so run()
            # only returns once all side-channel results are in place.
            if self._error is not None or stopped:
                self._cancel.set()
            for thread in threads:
                thread.join()
        if self._error is not None:
            raise self._error
        return collected


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineSpec:
    """How the tally's dataflow should be scheduled.

    ``streaming=False`` is the serial reference path (each phase runs to
    completion).  With ``streaming=True``, shards of ``shard_size`` items
    flow through the stages concurrently, with every inter-stage queue
    bounded at ``queue_depth`` shards.  Both schedules produce bit-identical
    published output; only the wall clock moves.
    """

    streaming: bool = False
    shard_size: int = DEFAULT_SHARD_SIZE
    queue_depth: int = DEFAULT_QUEUE_DEPTH

    def __post_init__(self) -> None:
        if self.shard_size < 1:
            raise ValueError("pipeline shard size must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("pipeline queue depth must be >= 1")


def pipeline_from_spec(spec: Optional[str]) -> PipelineSpec:
    """Build a :class:`PipelineSpec` from a ``pipeline_spec`` (forms: :data:`repro.spec.PIPELINE`)."""
    head, given = PIPELINE.parse(spec)
    return PipelineSpec(streaming=head == "stream", **given)
