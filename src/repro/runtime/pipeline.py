"""The tally's ledger read-ahead: one reader thread, one bounded queue.

Under ``pipeline_spec="stream[:queue_depth]"`` the tally's cursor-paged
ledger read runs on a reader thread (``ballot-read``): a
:class:`StreamPipeline` pulls pages there, at most ``queue_depth`` of them
waiting, while the caller's thread collects each page's records as it
arrives.  The signature check runs after the read, because which ballots it
must check depends on every ballot of a credential (last-write-wins,
:func:`repro.tally.pipeline._counted_ballots`).  That is the only overlap in
the tally: its *phases* each fan out n-wide over the executor, which leaves
overlapping them nothing to win (``docs/performance.md``, layer 5).

* **Backpressure.**  The queue holds at most ``queue_depth`` pages; a reader
  that gets that far ahead blocks instead of buffering the ledger.
* **Order.**  One FIFO queue and one consumer: results come back in source
  order, whatever the interleaving.
* **Errors.**  An exception from the source is re-raised in the caller's
  thread unchanged; one from the function stops the reader.  Either way
  :meth:`StreamPipeline.run` returns only after the reader thread has
  exited.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional

from repro import telemetry
from repro.spec import PIPELINE

#: How long a blocked put waits before re-checking cancellation.
_POLL_SECONDS = 0.05

#: Default bound (in pages) on the read-ahead queue.
DEFAULT_QUEUE_DEPTH = 4

#: Queue tags: a page, the end of the source, or the source's exception.
_ITEM, _END, _ERROR = range(3)


class StreamPipeline:
    """``[fn(item) for item in source]`` with ``source`` read ahead on its own thread."""

    def __init__(self, fn: Callable[[Any], Any], queue_depth: int = DEFAULT_QUEUE_DEPTH, name: str = "pipeline"):
        if queue_depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.fn = fn
        self.queue_depth = queue_depth
        self.name = name

    def _read(
        self,
        source: Iterable[Any],
        pages: "queue.Queue",
        cancel: threading.Event,
        context: Optional[telemetry.TraceContext],
    ) -> None:
        # The reader starts context-clean (a plain thread): attach the
        # caller's trace so the read's spans parent under the tally's.
        token = telemetry.attach(context) if context is not None else None

        def put(entry) -> bool:
            while not cancel.is_set():
                try:
                    pages.put(entry, timeout=_POLL_SECONDS)
                except queue.Full:
                    continue
                if telemetry.enabled():
                    # Sampled after the put; the snapshot keeps the high-water mark.
                    telemetry.gauge("pipeline.queue.depth", pages.qsize(), pipeline=self.name)
                return True
            return False

        try:
            for item in source:
                if not put((_ITEM, item)):
                    return
            put((_END, None))
        except BaseException as exc:  # noqa: BLE001 - re-raised by run()
            put((_ERROR, exc))
        finally:
            if token is not None:
                telemetry.detach(token)

    def run(self, source: Iterable[Any]) -> List[Any]:
        """``fn`` of every item of ``source``, in order, computed in the caller's thread."""
        context = telemetry.current_context() if telemetry.enabled() else None
        pages: "queue.Queue" = queue.Queue(maxsize=self.queue_depth)
        cancel = threading.Event()
        reader = threading.Thread(
            target=self._read, args=(source, pages, cancel, context), name=f"{self.name}-reader", daemon=True
        )
        reader.start()
        results: List[Any] = []
        try:
            while True:
                tag, item = pages.get()
                if tag == _END:
                    return results
                if tag == _ERROR:
                    raise item
                with telemetry.span("pipeline.stage", pipeline=self.name, shard=len(results)):
                    results.append(self.fn(item))
        finally:
            cancel.set()
            reader.join()


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineSpec:
    """Whether the tally's ledger read runs ahead on a reader thread.

    ``streaming=False`` reads a page, collects its records, reads the next.
    With ``streaming=True`` the cursor-paged reader runs ahead of the
    collecting thread, at most ``queue_depth`` pages in flight.  The
    published output is bit-identical; only the wall clock moves.
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
