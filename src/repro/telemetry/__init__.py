"""repro.telemetry — dependency-free tracing + metrics for the whole stack.

Selected via ``ElectionConfig.telemetry_spec`` or directly with
:func:`configure` (forms: :data:`repro.spec.TELEMETRY`).  ``off``, the
default, short-circuits every primitive (pinned as counts by
``tests/telemetry/test_instrumentation.py``; recording costs what
``trace_overhead_ratio`` of ``benchmarks/e2e`` reads, on every workload);
``mem`` buffers events in-process (tests, and cluster workers, whose events
ride home on RESULT frames); ``jsonl`` streams them to an append-only trace
shared by every process (``python -m repro.telemetry summarize
<trace.jsonl>``).

State is process-global and lazily attached: :func:`configure` exports
``REPRO_TELEMETRY`` so child processes that import this module resolve the
same spec on first use.  Usage::

    from repro import telemetry

    telemetry.configure("jsonl:/tmp/trace.jsonl")
    with telemetry.span("tally.mix", mixer=0):
        ...
    telemetry.counter("cluster.dispatch", worker="w-1")
    print(telemetry.snapshot().to_prometheus())
"""

from __future__ import annotations

import atexit
import os
import threading
from typing import Any, Dict, List, Optional, Sequence

from repro.spec import env
from repro.telemetry.context import (
    SAMPLE_ENV,
    TRACEPARENT_HEADER,
    TraceContext,
    attach,
    current_context,
    detach,
    format_traceparent,
    new_trace,
    parse_traceparent,
)
from repro.telemetry.core import (
    HISTOGRAM_BUCKETS,
    SPEC_OFF,
    TELEMETRY_ENV,
    JsonlSink,
    MemSink,
    SpanHandle,
    Telemetry,
    read_jsonl,
    telemetry_from_spec,
)
from repro.telemetry.core import active_spans as _core_active_spans
from repro.telemetry.snapshot import TelemetrySnapshot

__all__ = [
    "HISTOGRAM_BUCKETS",
    "SAMPLE_ENV",
    "SPEC_OFF",
    "TELEMETRY_ENV",
    "TRACEPARENT_HEADER",
    "JsonlSink",
    "MemSink",
    "SpanHandle",
    "Telemetry",
    "TelemetrySnapshot",
    "TraceContext",
    "active_spans",
    "attach",
    "configure",
    "counter",
    "current",
    "current_context",
    "detach",
    "drain",
    "enabled",
    "format_traceparent",
    "gauge",
    "histogram",
    "ingest",
    "new_trace",
    "parse_traceparent",
    "read_jsonl",
    "snapshot",
    "span",
    "telemetry_from_spec",
]

_UNSET = object()
_state: Any = _UNSET  # _UNSET -> resolve from env; None -> off; Telemetry -> on
_state_lock = threading.Lock()
_hooks_installed = False


def _install_hooks_locked() -> None:
    """Once per process: the end-of-process metric flush.

    The atexit flush persists this process's metric aggregates into a
    ``jsonl:`` sink so ``summarize`` sees them.
    """
    global _hooks_installed
    if _hooks_installed:
        return
    _hooks_installed = True
    atexit.register(_flush_at_exit)


def _flush_at_exit() -> None:
    state = _state
    if isinstance(state, Telemetry) and isinstance(state.sink, JsonlSink):
        try:
            state.close()  # close() flushes the metric aggregates first
        except Exception:  # pragma: no cover - never fail interpreter exit
            pass


def _resolve() -> Optional[Telemetry]:
    """The active :class:`Telemetry`, attaching from the environment once."""
    state = _state
    if state is not _UNSET:
        return state
    with _state_lock:
        if _state is _UNSET:
            _attach_locked(telemetry_from_spec(env(TELEMETRY_ENV)))
        return _state


def _attach_locked(telemetry: Optional[Telemetry]) -> None:
    global _state
    _state = telemetry
    if telemetry is not None:
        _install_hooks_locked()


def configure(spec: Optional[str], propagate: bool = True) -> Optional[Telemetry]:
    """Install the telemetry selected by ``spec`` for this process.

    With ``propagate`` (the default) the spec is exported as
    ``REPRO_TELEMETRY`` so subprocesses started from here — a gateway
    child, benchmark children — attach to the same sink.
    Cluster workers pass ``propagate=False``: their events travel back on
    RESULT frames instead of racing the coordinator for the trace file.
    """
    telemetry = telemetry_from_spec(spec)
    with _state_lock:
        previous = _state
        if isinstance(previous, Telemetry) and previous is not telemetry:
            previous.close()
        _attach_locked(telemetry)
    if propagate:
        if telemetry is None:
            os.environ.pop(TELEMETRY_ENV, None)
        else:
            os.environ[TELEMETRY_ENV] = telemetry.spec
    return telemetry


def current() -> Optional[Telemetry]:
    """The active :class:`Telemetry`, or ``None`` when disabled."""
    return _resolve()


def enabled() -> bool:
    return _resolve() is not None


def span(name: str, **attrs: Any) -> SpanHandle:
    """A timed region.  Use as a context manager::

        with telemetry.span("tally.decrypt", items=len(votes)) as handle:
            ...
        report.elapsed_seconds = handle.elapsed_seconds

    The handle measures even when telemetry is off (so callers can reuse its
    ``elapsed_seconds`` in their own reports); it only records when enabled.
    """
    return SpanHandle(name, attrs, _resolve())


def counter(name: str, value: float = 1.0, **labels: Any) -> None:
    state = _resolve()
    if state is not None:
        state.counter(name, value, **labels)


def gauge(name: str, value: float, **labels: Any) -> None:
    """Record a sampled level; snapshots keep both last and high-water max."""
    state = _resolve()
    if state is not None:
        state.gauge(name, value, **labels)


def histogram(
    name: str, value: float, exemplar: Optional[str] = None, **labels: Any
) -> None:
    """Record one observation; ``exemplar`` pins a trace ID to the series.

    The exemplar surfaced in summaries is the trace of the slowest
    observation so far — the request you want the waterfall for.
    """
    state = _resolve()
    if state is not None:
        state.histogram(name, value, exemplar=exemplar, **labels)


def active_spans() -> List[Dict[str, Any]]:
    """Every span currently open in this process (the live ops plane feed).

    Cheap and lock-brief; returns ``[]`` when telemetry is off (nothing is
    tracked in that mode).
    """
    if _resolve() is None:
        return []
    return _core_active_spans()


def drain() -> List[Dict[str, Any]]:
    """Pop this process's buffered spans and metric aggregates.

    This is the cluster piggyback: a worker drains after each task and ships
    the blob on the RESULT frame; the coordinator folds it in via
    :func:`ingest` so one snapshot covers the fleet.
    """
    state = _resolve()
    if state is None:
        return []
    return state.drain()


def ingest(events: Sequence[Dict[str, Any]], **extra_labels: Any) -> None:
    """Merge foreign events (a drained blob) into this process's telemetry."""
    state = _resolve()
    if state is not None and events:
        state.ingest(events, **extra_labels)


def snapshot() -> TelemetrySnapshot:
    """One merged report: sink events plus this process's live aggregates.

    For a ``jsonl:`` sink the trace file is re-read, so spans and flushed
    metrics from every participating process land in the same snapshot.
    """
    state = _resolve()
    if state is None:
        return TelemetrySnapshot()
    events = list(state.sink.events())
    events.extend(state.metrics_events())
    return TelemetrySnapshot.from_events(events)
