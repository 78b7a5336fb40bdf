"""Streaming shard pipeline: a bounded-queue stage scheduler.

:class:`StreamPipeline` runs every stage in its own thread, connected by
bounded FIFO queues, so a stage works on shard *k* while the source (or the
stage before it) produces shard *k+1* — the classic producer/consumer
pipelining that hides one side's latency behind the other's.  Two users,
both one stage long: the tally's ledger read (``ballot-read``: the
cursor-paged reader runs ahead of the signature check under
``pipeline_spec="stream"``) and the ``stream`` audit strategy (check shards
verify while the sink folds verdicts and may stop at the first failure).
The tally's *phases* do not overlap through this module: each already fans
out n-wide over the executor, which leaves overlap nothing to win
(``docs/performance.md``, layer 5).

Design points:

* **Shards, not items.**  The unit of flow is a :class:`Shard` — an indexed
  batch of work items.  Batching amortizes queue overhead and gives each
  stage a chunk big enough to fan out over its :class:`~repro.runtime.
  executor.Executor`; the pipeline composes with the executor layer rather
  than replacing it (stage threads overlap, executors parallelize within a
  stage's shard).  That composition includes the multi-node backend: a
  :class:`~repro.cluster.executor.RemoteExecutor` handed to a stage is safe
  to share with the caller's thread — its coordinator multiplexes concurrent
  task groups.
* **Backpressure.**  Every inter-stage queue is bounded by ``queue_depth``
  shards; a fast producer blocks instead of buffering the whole stream, so
  memory stays proportional to ``num_stages × queue_depth × shard_size``.
* **Order preservation.**  Queues are FIFO and stages emit in order, so the
  sink observes shards in index order.
* **Error propagation and cancellation.**  The first exception raised by any
  stage (or the source, or the consumer callback) cancels the whole
  pipeline: every blocked put/get is woken, every worker thread joins, and
  :meth:`StreamPipeline.run` re-raises the original exception unchanged.  A
  consumer can also end the stream early by raising :class:`StopPipeline`
  (used by streaming verification to stop on the first failed check).

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
from repro.spec import PIPELINE

#: How long a blocked queue operation waits before re-checking cancellation.
_POLL_SECONDS = 0.05

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
    ``process(shard)`` for every input shard, then ``finish()`` once the
    input stream ends (emit any buffered tail shards).  Both yield output
    shards, which a stage must emit in index order.
    """

    name: str = "stage"

    @abc.abstractmethod
    def process(self, shard: Shard) -> Iterable[Shard]:
        """Consume one input shard; yield zero or more output shards."""

    def finish(self) -> Iterable[Shard]:
        """Input stream ended: yield any remaining output shards."""
        return ()


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
            # Wake anything still blocked, then wait for every thread: run()
            # leaves no thread of its own behind, on success or on error.
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
    """Whether the tally's ledger read overlaps its signature check.

    ``streaming=False`` reads a page, checks it, reads the next.  With
    ``streaming=True`` the cursor-paged reader runs ahead of the check, at
    most ``queue_depth`` pages in flight.  The published output is
    bit-identical; only the wall clock moves.
    """

    streaming: bool = False
    queue_depth: int = DEFAULT_QUEUE_DEPTH

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("pipeline queue depth must be >= 1")


def pipeline_from_spec(spec: Optional[str]) -> PipelineSpec:
    """Build a :class:`PipelineSpec` from a ``pipeline_spec`` (forms: :data:`repro.spec.PIPELINE`)."""
    head, given = PIPELINE.parse(spec)
    return PipelineSpec(streaming=head == "stream", **given)
