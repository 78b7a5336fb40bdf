"""Core tracing + metrics state: spans, counters, gauges, histograms, sinks.

Everything here is stdlib-only and import-light on purpose: every hot module
in the repo (executors, the stream pipeline, ledger backends, the cluster
coordinator) imports :mod:`repro.telemetry`, so this module must never import
back into them.

Metric aggregates live in one :class:`Metrics`, which is also the one place
an instrument's merge rule is written: a live :class:`Telemetry` records each
observation through it, :meth:`Telemetry.ingest` folds a worker's drained
blob through it, and :class:`~repro.telemetry.snapshot.TelemetrySnapshot`
is a :class:`Metrics` with spans.  Every recorded span carries a ``wall``
stamp (:meth:`SpanHandle.__enter__`); reports align spans from different
processes on it alone.

Design constraints, in order of importance:

1. **Disabled mode is near-free.**  The default spec is ``"off"``; in that
   state ``counter``/``gauge``/``histogram`` are a dict lookup and an early
   return, and ``span`` allocates one small handle that still measures its
   own elapsed time (callers like :class:`repro.audit.api.Verifier` read
   ``elapsed_seconds`` off the handle whether or not telemetry records it)
   but touches no shared state — not even the context variable.
2. **Correct lineage under any scheduler.**  Span parenting rides the
   :class:`~contextvars.ContextVar` in :mod:`repro.telemetry.context`, so
   two asyncio coroutines interleaving on one thread keep distinct parent
   chains (a thread-local stack cannot do that), while plain threads still
   start clean.  Span IDs embed the emitting PID, so IDs minted in
   different processes never collide.
3. **Crash-safe JSONL.**  The ``jsonl:`` sink appends one complete line per
   event with a single unbuffered ``write()`` on an ``O_APPEND`` descriptor,
   so concurrent writers (threads, processes sharing the trace file)
   interleave *lines*, never bytes within a line.
4. **Children re-attach via the environment.**  ``configure()`` exports
   ``REPRO_TELEMETRY``; any subprocess that imports this module lazily
   resolves the same spec on first use.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.spec import TELEMETRY
from repro.telemetry.context import (
    TraceContext,
    attach,
    current_context,
    detach,
    new_trace,
)

TELEMETRY_ENV = "REPRO_TELEMETRY"
SPEC_OFF = "off"

# Label sets are stored canonically as sorted (key, value) tuples so that
# {"a": 1, "b": 2} and {"b": 2, "a": 1} aggregate into the same series.
LabelKey = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelKey]

#: Cumulative histogram bucket upper bounds (seconds-flavoured; counts land
#: in the overflow).  Fixed and global so bucket arrays from any process
#: merge element-wise without negotiation.
HISTOGRAM_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    60.0,
)

_SPAN_IDS = itertools.count(1)

# In-flight span registry for the ops plane (`GET /v1/debug/spans`).  Keyed
# by span_id; entries live from __enter__ to __exit__ of recorded spans.
_ACTIVE_SPANS: Dict[str, "SpanHandle"] = {}
_ACTIVE_LOCK = threading.Lock()


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _new_span_id() -> str:
    """A fleet-unique 16-hex span ID: PID-prefixed monotonic counter.

    The counter is plain :mod:`itertools` (no lock needed — ``next`` on a
    count is atomic under the GIL); uniqueness across ``fork()`` children
    that inherit the counter position comes from the PID prefix.  The fixed
    16-hex shape keeps the ID valid as a W3C ``traceparent`` parent-id.
    """
    return "%08x%08x" % (os.getpid() & 0xFFFFFFFF, next(_SPAN_IDS) & 0xFFFFFFFF)


def _bucket_index(value: float) -> int:
    for index, bound in enumerate(HISTOGRAM_BUCKETS):
        if value <= bound:
            return index
    return len(HISTOGRAM_BUCKETS)


def active_spans() -> List[Dict[str, Any]]:
    """Snapshot of every span currently open in this process."""
    now = time.perf_counter()
    with _ACTIVE_LOCK:
        handles = list(_ACTIVE_SPANS.values())
    report = []
    for handle in handles:
        report.append(
            {
                "name": handle.name,
                "span_id": handle.span_id,
                "parent_id": handle.parent_id,
                "trace_id": handle.trace_id,
                "pid": os.getpid(),
                "elapsed_seconds": max(0.0, now - handle.start),
                "attrs": {key: _jsonable(value) for key, value in handle.attrs.items()},
            }
        )
    report.sort(key=lambda entry: -float(entry["elapsed_seconds"]))
    return report


class SpanHandle:
    """One timed region.  Context manager; nests via the trace context.

    Always measures (``elapsed_seconds`` is valid even when telemetry is
    off — callers may surface it in their own reports); only *records* to
    the active sink when a :class:`Telemetry` is attached **and** the trace
    is sampled (errors are always recorded regardless of sampling).
    """

    __slots__ = (
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "trace_id",
        "sampled",
        "start",
        "end",
        "wall",
        "_telemetry",
        "_token",
    )

    def __init__(
        self, name: str, attrs: Dict[str, Any], telemetry: Optional["Telemetry"]
    ) -> None:
        self.name = name
        self.attrs = attrs
        self._telemetry = telemetry
        self.span_id = _new_span_id() if telemetry is not None else ""
        self.parent_id: Optional[str] = None
        self.trace_id = ""
        self.sampled = True
        self.start = 0.0
        self.end = 0.0
        self.wall = 0.0
        self._token: Any = None

    @property
    def elapsed_seconds(self) -> float:
        if self.end:
            return self.end - self.start
        return time.perf_counter() - self.start

    def __enter__(self) -> "SpanHandle":
        if self._telemetry is not None:
            context = current_context()
            if context is None:
                context = new_trace()
            self.trace_id = context.trace_id
            self.sampled = context.sampled
            self.parent_id = context.span_id or None
            self._token = attach(context.child(self.span_id))
            # Wall clock is trace *metadata* (cross-process waterfall
            # alignment), never tally state.
            self.wall = time.time()  # repro: noqa[REP002] - trace timestamp
            with _ACTIVE_LOCK:
                _ACTIVE_SPANS[self.span_id] = self
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.end = time.perf_counter()
        telemetry = self._telemetry
        if telemetry is not None:
            with _ACTIVE_LOCK:
                _ACTIVE_SPANS.pop(self.span_id, None)
            if self._token is not None:
                detach(self._token)
                self._token = None
            if exc_type is not None:
                self.attrs["error"] = getattr(exc_type, "__name__", str(exc_type))
            if self.sampled or exc_type is not None:
                telemetry.record_span(self)


class MemSink:
    """In-process event buffer: the ``"mem"`` spec and the cluster workers."""

    kind = "mem"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self._events.append(event)

    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._events)

    def take(self) -> List[Dict[str, Any]]:
        """Pop everything buffered so far (the cluster piggyback drain)."""
        with self._lock:
            events, self._events = self._events, []
            return events

    def close(self) -> None:
        pass


class JsonlSink:
    """Append-only JSONL file shared by every process in the run.

    Each event is serialised to one line and pushed with a single
    ``os.write``-backed call on an append-mode, unbuffered binary handle:
    POSIX ``O_APPEND`` semantics make concurrent line writes atomic, so a
    reader always sees whole JSON lines regardless of how many processes
    share the file.
    """

    kind = "jsonl"

    def __init__(self, path: str) -> None:
        self.path = os.path.abspath(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = open(self.path, "ab", buffering=0)

    def emit(self, event: Dict[str, Any]) -> None:
        line = (json.dumps(event, separators=(",", ":"), sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            self._handle.write(line)

    def events(self) -> List[Dict[str, Any]]:
        """Re-read the shared file: picks up every writer, not just us."""
        return list(read_jsonl(self.path))

    def take(self) -> List[Dict[str, Any]]:
        return []  # the file *is* the shared buffer; nothing to hand-carry

    def close(self) -> None:
        with self._lock:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover
                pass


def read_jsonl(path: str) -> Iterator[Dict[str, Any]]:
    """Yield events from a trace file, skipping any torn trailing line."""
    try:
        handle = open(path, "rb")
    except OSError:
        return
    with handle:
        for raw in handle:
            raw = raw.strip()
            if not raw:
                continue
            try:
                event = json.loads(raw)
            except ValueError:
                continue  # torn or foreign line — never poison a whole trace
            if isinstance(event, dict):
                yield event


class Metrics:
    """Metric aggregates per ``(name, labels)`` series, and the merge rule of each instrument.

    One class holds the rule for a live process and for a merged report: a
    counter adds; a gauge keeps the last value and the high-water max; a
    histogram adds counts, sums and buckets and keeps the min, the max and
    the exemplar (a trace ID) of the max.  A live observation is a
    single-observation ``add_*``; a foreign aggregate arrives as an event
    through :meth:`merge`.  Not thread-safe: :class:`Telemetry` holds its
    lock around every call.
    """

    def __init__(self) -> None:
        self.counters: Dict[MetricKey, float] = {}
        self.gauges: Dict[MetricKey, Tuple[float, float]] = {}  # (last, max)
        self.histograms: Dict[MetricKey, Tuple[float, float, float, float]] = {}  # (count, sum, min, max)
        self.histogram_buckets: Dict[MetricKey, List[float]] = {}
        self.histogram_exemplars: Dict[MetricKey, str] = {}  # trace ID of the max

    def add_counter(self, key: MetricKey, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def add_gauge(self, key: MetricKey, last: float, high: float) -> None:
        prior = self.gauges.get(key)
        self.gauges[key] = (last, high if prior is None else max(prior[1], high))

    def add_histogram(
        self,
        key: MetricKey,
        count: float,
        total: float,
        low: float,
        high: float,
        buckets: Optional[List[float]],
        exemplar: Optional[str],
    ) -> None:
        slot = self.histograms.get(key)
        if exemplar and (slot is None or high >= slot[3]):
            self.histogram_exemplars[key] = exemplar
        if slot is None:
            self.histograms[key] = (count, total, low, high)
        else:
            self.histograms[key] = (slot[0] + count, slot[1] + total, min(slot[2], low), max(slot[3], high))
        merged = self.histogram_buckets.get(key)
        if merged is None:
            if buckets is not None:
                self.histogram_buckets[key] = list(buckets)
        elif buckets is not None:
            for index in range(min(len(merged), len(buckets))):
                merged[index] += buckets[index]

    def merge(self, event: Dict[str, Any], **extra_labels: Any) -> None:
        """Fold one metric event in, under its labels plus ``extra_labels``.

        An event with a wrong-typed or non-finite field is skipped whole, the
        way :func:`read_jsonl` skips a torn line: one damaged line never
        poisons a report.
        """
        name, labels = event.get("name"), event.get("labels") or {}
        if not isinstance(name, str) or not isinstance(labels, dict):
            return
        key = (name, _label_key({**labels, **extra_labels}))
        kind = event.get("type")
        try:
            if kind == "counter":
                self.add_counter(key, _number(event.get("value", 0.0)))
            elif kind == "gauge":
                value = _number(event.get("value", 0.0))
                self.add_gauge(key, value, _number(event.get("max", value)))
            elif kind == "histogram":
                count, total, low, high = (_number(event.get(field, 0.0)) for field in ("count", "sum", "min", "max"))
                buckets, exemplar = event.get("buckets"), event.get("exemplar")
                counts = [_number(bucket) for bucket in buckets] if isinstance(buckets, list) else None
                pinned = exemplar if isinstance(exemplar, str) else None
                self.add_histogram(key, count, total, low, high, counts, pinned)
        except (TypeError, ValueError):
            return

    def events(self) -> List[Dict[str, Any]]:
        """Every series as a portable event dict, the form :meth:`merge` reads."""
        events: List[Dict[str, Any]] = []
        for (name, labels), value in self.counters.items():
            events.append({"type": "counter", "name": name, "labels": dict(labels), "value": value})
        for (name, labels), (last, high) in self.gauges.items():
            events.append({"type": "gauge", "name": name, "labels": dict(labels), "value": last, "max": high})
        for key, (count, total, low, high) in self.histograms.items():
            event: Dict[str, Any] = {
                "type": "histogram",
                "name": key[0],
                "labels": dict(key[1]),
                "count": count,
                "sum": total,
                "min": low,
                "max": high,
            }
            if key in self.histogram_buckets:
                event["buckets"] = list(self.histogram_buckets[key])
            if key in self.histogram_exemplars:
                event["exemplar"] = self.histogram_exemplars[key]
            events.append(event)
        return events


def _number(value: Any) -> float:
    """``value`` as a finite float; ``TypeError`` / ``ValueError`` otherwise."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"not a finite number: {value!r}")
    return number


class Telemetry:
    """One process's telemetry state: a sink plus in-memory metric aggregates.

    Spans stream to the sink eagerly (they are the trace); counters, gauges
    and histograms aggregate locally in a :class:`Metrics` and are folded
    into snapshots, drained for the cluster piggyback, or flushed to the
    JSONL file at process exit so child processes' metrics survive them.
    """

    def __init__(self, sink: Any, spec: str) -> None:
        self.sink = sink
        self.spec = spec
        self._lock = threading.Lock()
        self._metrics = Metrics()

    # ------------------------------------------------------------- recording

    def record_span(self, span: SpanHandle) -> None:
        event: Dict[str, Any] = {
            "type": "span",
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "trace_id": span.trace_id,
            "pid": os.getpid(),
            "start": span.start,
            "wall": span.wall,
            "duration": span.end - span.start,
        }
        if span.attrs:
            event["attrs"] = {key: _jsonable(value) for key, value in span.attrs.items()}
        self.sink.emit(event)

    def counter(self, name: str, value: float = 1.0, **labels: Any) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._metrics.add_counter(key, value)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._metrics.add_gauge(key, value, value)

    def histogram(
        self, name: str, value: float, exemplar: Optional[str] = None, **labels: Any
    ) -> None:
        """Record one observation; ``exemplar`` is a trace ID to pin.

        The exemplar kept per series is the trace of the *slowest*
        observation so far — the one you want to pull the waterfall for.
        """
        key = (name, _label_key(labels))
        buckets = [0.0] * (len(HISTOGRAM_BUCKETS) + 1)
        buckets[_bucket_index(value)] = 1.0
        with self._lock:
            self._metrics.add_histogram(key, 1.0, value, value, value, buckets, exemplar)

    # ------------------------------------------------------------- extraction

    def metrics_events(self, reset: bool = False) -> List[Dict[str, Any]]:
        """The local aggregates as portable event dicts."""
        with self._lock:
            events = self._metrics.events()
            if reset:
                self._metrics = Metrics()
        pid = os.getpid()
        for event in events:
            event["pid"] = pid
        return events

    def ingest(self, events: Sequence[Dict[str, Any]], **extra_labels: Any) -> None:
        """Fold foreign events (a worker's drained blob) into this process.

        Span events are re-emitted to our sink tagged with ``extra_labels``
        (e.g. ``worker="w-3"``); metric events merge into our aggregates with
        the extra labels appended, so a fleet-wide snapshot keeps per-worker
        series distinct.
        """
        for event in events:
            if event.get("type") == "span":
                merged = dict(event)
                if extra_labels:
                    attrs = dict(merged.get("attrs") or {})
                    attrs.update({key: _jsonable(value) for key, value in extra_labels.items()})
                    merged["attrs"] = attrs
                self.sink.emit(merged)
            else:
                with self._lock:
                    self._metrics.merge(event, **extra_labels)

    def drain(self) -> List[Dict[str, Any]]:
        """Pop buffered spans *and* metric aggregates (cluster piggyback)."""
        events = list(self.sink.take())
        events.extend(self.metrics_events(reset=True))
        return events

    def flush_metrics(self) -> None:
        """Write the aggregates into the sink (JSONL end-of-process flush)."""
        for event in self.metrics_events():
            self.sink.emit(event)

    def close(self) -> None:
        # Flush before closing: detaching (configure("off"), or swapping
        # specs) must not lose the aggregates a post-mortem reader expects
        # to find in the trace file.
        try:
            self.flush_metrics()
        except OSError:  # pragma: no cover - sink already gone
            pass
        self.sink.close()


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def telemetry_from_spec(spec: Optional[str]) -> Optional[Telemetry]:
    """Build a :class:`Telemetry` from a ``telemetry_spec`` (forms:
    :data:`repro.spec.TELEMETRY`); ``None`` means off."""
    head, given = TELEMETRY.parse(spec)
    if head == SPEC_OFF:
        return None
    if head == "mem":
        return Telemetry(MemSink(), "mem")
    path = given["path"]
    return Telemetry(JsonlSink(path), f"jsonl:{path}")


# Re-exported for facade convenience; the canonical home is context.py.
__all__ = [
    "HISTOGRAM_BUCKETS",
    "JsonlSink",
    "LabelKey",
    "MemSink",
    "MetricKey",
    "Metrics",
    "SPEC_OFF",
    "SpanHandle",
    "TELEMETRY_ENV",
    "Telemetry",
    "TraceContext",
    "active_spans",
    "read_jsonl",
    "telemetry_from_spec",
]
