"""Merged telemetry reports: Prometheus text, span trees, waterfalls, quantiles.

A :class:`TelemetrySnapshot` is built from *events* — the portable dicts the
sinks store (see :mod:`repro.telemetry.core`) — so the same code renders a
live in-process snapshot, a multi-process ``jsonl:`` trace file, and a
cluster fleet report where worker events arrived piggybacked on RESULT
frames.  Metric events merge by the rules of
:class:`repro.telemetry.core.Metrics`, which the snapshot extends; this
module only admits spans and renders.  Every span tree here is built by
:func:`_tree`, and every timeline is laid out on the spans' ``wall`` stamps.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, TypeVar

from repro.telemetry.core import HISTOGRAM_BUCKETS, LabelKey, MetricKey, Metrics, _label_key, _number, read_jsonl

_V = TypeVar("_V")
_ID_TYPES = (str, type(None))

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str, suffix: str = "") -> str:
    return "repro_" + _NAME_RE.sub("_", name) + suffix


def _label_text(labels: LabelKey) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{_NAME_RE.sub("_", key)}="{value}"' for key, value in labels)
    return "{" + inner + "}"


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


class TelemetrySnapshot(Metrics):
    """One merged, queryable view: the :class:`Metrics` series plus ``spans``."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: List[Dict[str, Any]] = []

    # ------------------------------------------------------------- building

    @classmethod
    def from_events(cls, events: Iterable[Dict[str, Any]]) -> "TelemetrySnapshot":
        snapshot = cls()
        for event in events:
            snapshot.add_event(event)
        return snapshot

    @classmethod
    def from_jsonl(cls, path: str) -> "TelemetrySnapshot":
        return cls.from_events(read_jsonl(path))

    def add_event(self, event: Dict[str, Any]) -> None:
        """Admit one span or merge one metric event; a damaged one is skipped."""
        if event.get("type") != "span":
            self.merge(event)
        elif _well_formed_span(event):
            self.spans.append(event)

    # ------------------------------------------------------------- queries

    def span_names(self) -> List[str]:
        return sorted({span.get("name", "") for span in self.spans})

    def spans_named(self, name: str) -> List[Dict[str, Any]]:
        return [span for span in self.spans if span.get("name") == name]

    def counter_total(self, name: str, **labels: Any) -> float:
        """Sum of a counter across every label set matching ``labels``."""
        return sum((value for _, value in _matching(self.counters, name, labels)), 0.0)

    def gauge_high_water(self, name: str, **labels: Any) -> Optional[float]:
        """Max observed value of a gauge across matching label sets."""
        return max((high for _, (_, high) in _matching(self.gauges, name, labels)), default=None)

    def histogram_quantile(self, name: str, quantile: float, **labels: Any) -> Optional[float]:
        """Approximate quantile from merged bucket arrays (p50: ``0.5``).

        Linear interpolation inside the landing bucket; clamped by the
        observed min/max so a wide bucket cannot report a value outside
        what was actually seen.  ``None`` when no matching series carries
        buckets.
        """
        merged = [0.0] * (len(HISTOGRAM_BUCKETS) + 1)
        low = high = None
        for key, buckets in _matching(self.histogram_buckets, name, labels):
            for index in range(min(len(merged), len(buckets))):
                merged[index] += buckets[index]
            slot = self.histograms.get(key)
            if slot is not None:
                low = slot[2] if low is None else min(low, slot[2])
                high = slot[3] if high is None else max(high, slot[3])
        total = sum(merged)
        if total <= 0.0:
            return None
        rank = max(0.0, min(1.0, quantile)) * total
        cumulative = 0.0
        for index, count in enumerate(merged):
            if count <= 0.0:
                continue
            if cumulative + count >= rank:
                lower = HISTOGRAM_BUCKETS[index - 1] if index > 0 else 0.0
                upper = (
                    HISTOGRAM_BUCKETS[index]
                    if index < len(HISTOGRAM_BUCKETS)
                    else (high if high is not None else lower)
                )
                fraction = (rank - cumulative) / count
                value = lower + (upper - lower) * fraction
                if low is not None:
                    value = max(value, low)
                if high is not None:
                    value = min(value, high)
                return value
            cumulative += count
        return high

    # ------------------------------------------------------------- traces

    def traces(self) -> Dict[str, List[Dict[str, Any]]]:
        """Spans grouped by ``trace_id`` (spans without one are skipped)."""
        grouped: Dict[str, List[Dict[str, Any]]] = {}
        for span in self.spans:
            trace_id = span.get("trace_id")
            if isinstance(trace_id, str) and trace_id:
                grouped.setdefault(trace_id, []).append(span)
        return grouped

    def trace_spans(self, trace_id: str) -> List[Dict[str, Any]]:
        """Every span of one trace, including a unique-prefix match."""
        grouped = self.traces()
        if trace_id in grouped:
            return grouped[trace_id]
        matches = [tid for tid in grouped if tid.startswith(trace_id)]
        if len(matches) == 1:
            return grouped[matches[0]]
        return []

    def slowest_traces(self, top: int = 10) -> List[Tuple[str, float, str, int]]:
        """``(trace_id, duration_seconds, root_name, span_count)`` by duration.

        Duration is the trace's wall-clock extent, from its first span's
        ``wall`` stamp to its last span's end.
        """
        ranked: List[Tuple[str, float, str, int]] = []
        for trace_id, spans in self.traces().items():
            offsets, extent = _timeline(spans)
            roots, _ = _tree(spans)
            root = min(roots or spans, key=lambda span: offsets[id(span)])
            ranked.append((trace_id, extent, str(root.get("name", "")), len(spans)))
        ranked.sort(key=lambda item: item[1], reverse=True)
        return ranked[:top]

    def render_slowest(self, top: int = 10) -> str:
        """The ``Slowest N trace(s)`` block of :meth:`summary` (``""`` without traces)."""
        slow = self.slowest_traces(top=top)
        if not slow:
            return ""
        lines = [f"Slowest {len(slow)} trace(s):"]
        for rank, (trace_id, duration, root_name, span_count) in enumerate(slow, start=1):
            lines.append(
                f"{rank:3d}. {trace_id}  {_format_seconds(duration):>9}"
                f"  {root_name}  ({span_count} span(s))"
            )
        return "\n".join(lines)

    def render_waterfall(self, trace_id: str, width: int = 48) -> str:
        """One trace as an indented timeline: offsets, bars, durations.

        Offsets are ``wall`` stamps less the trace's earliest one, so spans
        from every process (cluster workers, a gateway child) share one axis.
        """
        spans = self.trace_spans(trace_id)
        if not spans:
            return f"trace {trace_id}: no spans"
        offsets, extent = _timeline(spans)
        extent = extent or 1e-9
        roots, children = _tree(spans)

        lines = [
            f"trace {trace_id}  —  {len(spans)} span(s), {_format_seconds(extent)}"
        ]
        name_width = min(40, max(len(str(span.get("name", ""))) for span in spans) + 2)

        def walk(members: List[Dict[str, Any]], depth: int) -> None:
            members = sorted(members, key=lambda span: offsets[id(span)])
            for span in members:
                offset = offsets[id(span)]
                duration = float(span.get("duration", 0.0))
                begin = int(round(width * offset / extent))
                length = max(1, int(round(width * duration / extent)))
                begin = min(begin, width - 1)
                length = min(length, width - begin)
                bar = " " * begin + "█" * length + " " * (width - begin - length)
                label = ("  " * depth + str(span.get("name", "")))[: name_width + 8]
                error = ""
                attrs = span.get("attrs") or {}
                if attrs.get("error"):
                    error = f"  !{attrs['error']}"
                lines.append(
                    f"{label.ljust(name_width + 8)} |{bar}| "
                    f"{_format_seconds(duration):>9}  @+{_format_seconds(offset)}{error}"
                )
                walk(children.get(span.get("span_id"), []), depth + 1)

        walk(roots, 0)
        return "\n".join(lines)

    # ------------------------------------------------------------- rendering

    def to_prometheus(self) -> str:
        """Prometheus text exposition of every metric plus span aggregates."""
        lines: List[str] = []
        seen_types: set = set()

        def sample(base: str, kind: str, labels: LabelKey, value: float) -> None:
            if base not in seen_types:
                seen_types.add(base)
                lines.append(f"# TYPE {base} {kind}")
            lines.append(f"{base}{_label_text(labels)} {_num(value)}")

        for (name, labels), value in sorted(self.counters.items()):
            sample(_metric_name(name, "_total"), "counter", labels, value)
        for (name, labels), (last, high) in sorted(self.gauges.items()):
            sample(_metric_name(name), "gauge", labels, last)
            sample(_metric_name(name, "_max"), "gauge", labels, high)
        for (name, labels), (count, total, low, high) in sorted(self.histograms.items()):
            base = _metric_name(name)
            sample(base + "_count", "counter", labels, count)
            sample(base + "_sum", "counter", labels, total)
            sample(base + "_min", "gauge", labels, low)
            sample(base + "_max", "gauge", labels, high)
            cumulative = 0.0
            for index, bucket_count in enumerate(self.histogram_buckets.get((name, labels), [])):
                cumulative += bucket_count
                bound = _num(HISTOGRAM_BUCKETS[index]) if index < len(HISTOGRAM_BUCKETS) else "+Inf"
                sample(base + "_bucket", "counter", labels + (("le", bound),), cumulative)

        span_aggregate: Dict[str, List[float]] = {}
        for span in self.spans:
            slot = span_aggregate.setdefault(str(span.get("name", "")), [0.0, 0.0])
            slot[0] += 1.0
            slot[1] += float(span.get("duration", 0.0))
        for name in sorted(span_aggregate):
            count, total = span_aggregate[name]
            sample("repro_span_seconds_count", "counter", (("name", name),), count)
            sample("repro_span_seconds_sum", "counter", (("name", name),), total)
        return "\n".join(lines) + ("\n" if lines else "")

    def span_tree(self) -> List["SpanGroup"]:
        """The trace as an aggregated tree: siblings of one name collapse.

        Spans whose parent never reached the sink (cross-process roots,
        in-flight parents) become roots.  Within each level, groups sort by
        total time descending.
        """
        return _group_spans(*_tree(self.spans))

    def hotspots(self, top: int = 10) -> List[Tuple[str, int, float, float]]:
        """``(name, count, total_seconds, self_seconds)`` sorted by self time."""
        _, children = _tree(self.spans)
        aggregate: Dict[str, List[float]] = {}
        for span in self.spans:
            duration = float(span.get("duration", 0.0))
            inner = children.get(span.get("span_id"), [])
            self_time = max(0.0, duration - sum(float(child.get("duration", 0.0)) for child in inner))
            slot = aggregate.setdefault(str(span.get("name", "")), [0.0, 0.0, 0.0])
            slot[0] += 1.0
            slot[1] += duration
            slot[2] += self_time
        ranked = sorted(aggregate.items(), key=lambda item: item[1][2], reverse=True)
        return [(name, int(count), total, self_time) for name, (count, total, self_time) in ranked[:top]]

    def render_tree(self, max_depth: Optional[int] = None) -> str:
        lines: List[str] = []

        def walk(groups: Sequence["SpanGroup"], depth: int) -> None:
            if max_depth is not None and depth >= max_depth:
                return
            for group in groups:
                suffix = f" ×{group.count}" if group.count > 1 else ""
                lines.append(
                    "  " * depth
                    + f"{group.name}{suffix}  total {_format_seconds(group.total)}"
                    + f"  self {_format_seconds(group.self_time)}"
                )
                walk(group.children, depth + 1)

        walk(self.span_tree(), 0)
        return "\n".join(lines)

    def summary(self, top: int = 10) -> str:
        """The ``python -m repro.telemetry summarize`` report body."""
        pids = {span.get("pid") for span in self.spans if span.get("pid") is not None}
        parts: List[str] = []
        parts.append(f"{len(self.spans)} span(s) from {len(pids) or 1} process(es)")
        tree = self.render_tree()
        if tree:
            parts.append("")
            parts.append("Span tree (siblings grouped by name):")
            parts.append(tree)
        spots = self.hotspots(top=top)
        if spots:
            parts.append("")
            parts.append(f"Top {len(spots)} hotspots by self time:")
            width = max(len(name) for name, _, _, _ in spots)
            for rank, (name, count, total, self_time) in enumerate(spots, start=1):
                parts.append(
                    f"{rank:3d}. {name.ljust(width)}  ×{count:<5d}"
                    f" self {_format_seconds(self_time):>9}  total {_format_seconds(total):>9}"
                )
        slow = self.render_slowest(top=top)
        if slow:
            parts.append("")
            parts.append(slow)
        metrics = self.to_prometheus()
        if metrics:
            parts.append("")
            parts.append("Metrics:")
            parts.append(metrics.rstrip("\n"))
        return "\n".join(parts)


class SpanGroup:
    """Aggregated siblings of one span name at one tree level."""

    __slots__ = ("name", "count", "total", "self_time", "children")

    def __init__(
        self, name: str, count: int, total: float, self_time: float, children: List["SpanGroup"]
    ) -> None:
        self.name = name
        self.count = count
        self.total = total
        self.self_time = self_time
        self.children = children


def _group_spans(
    spans: Sequence[Dict[str, Any]],
    children: Dict[Optional[str], List[Dict[str, Any]]],
) -> List[SpanGroup]:
    buckets: Dict[str, List[Dict[str, Any]]] = {}
    order: List[str] = []
    for span in sorted(spans, key=lambda span: float(span.get("start", 0.0))):
        name = str(span.get("name", ""))
        if name not in buckets:
            buckets[name] = []
            order.append(name)
        buckets[name].append(span)
    groups: List[SpanGroup] = []
    for name in order:
        members = buckets[name]
        total = sum(float(span.get("duration", 0.0)) for span in members)
        descendants: List[Dict[str, Any]] = []
        for span in members:
            descendants.extend(children.get(span.get("span_id"), []))
        child_groups = _group_spans(descendants, children)
        child_total = sum(group.total for group in child_groups)
        groups.append(SpanGroup(name, len(members), total, max(0.0, total - child_total), child_groups))
    groups.sort(key=lambda group: group.total, reverse=True)
    return groups


def _tree(
    spans: Sequence[Dict[str, Any]],
) -> Tuple[List[Dict[str, Any]], Dict[Optional[str], List[Dict[str, Any]]]]:
    """``(roots, children by parent span_id)``, placing every span exactly once.

    A span is a root when its parent is not among ``spans``, and also — what
    only a forged or damaged trace holds — when its own ``span_id`` or its
    parent's repeats, or when its parent chain loops back to it.
    """
    counts = Counter(span.get("span_id") for span in spans if span.get("span_id"))
    by_id = {span["span_id"]: span for span in spans if counts[span.get("span_id")] == 1}

    def parent(span: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        if counts[span.get("span_id")] > 1:
            return None
        return by_id.get(span.get("parent_id"))

    # Walk each parent chain once; a chain that meets itself marks its loop.
    looped: Set[int] = set()
    settled: Set[int] = set()
    for span in spans:
        path: List[Dict[str, Any]] = []
        position: Dict[int, int] = {}
        node: Optional[Dict[str, Any]] = span
        while node is not None and id(node) not in settled:
            if id(node) in position:
                looped.update(id(member) for member in path[position[id(node)]:])
                break
            position[id(node)] = len(path)
            path.append(node)
            node = parent(node)
        settled.update(position)

    roots: List[Dict[str, Any]] = []
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for span in spans:
        up = parent(span)
        if up is None or id(span) in looped:
            roots.append(span)
        else:
            children.setdefault(up["span_id"], []).append(span)
    return roots, children


def _matching(series: Dict[MetricKey, _V], name: str, labels: Dict[str, Any]) -> List[Tuple[MetricKey, _V]]:
    """The series of ``name`` whose label sets include ``labels``."""
    want = set(_label_key(labels))
    return [(key, value) for key, value in series.items() if key[0] == name and want <= set(key[1])]


def _timeline(spans: Sequence[Dict[str, Any]]) -> Tuple[Dict[int, float], float]:
    """``(offsets, extent)``: each span's ``wall`` less the earliest (keyed by ``id(span)``), and the last end."""
    origin = min(float(span.get("wall", 0.0)) for span in spans)
    offsets = {id(span): float(span.get("wall", 0.0)) - origin for span in spans}
    return offsets, max(0.0, max(offsets[id(span)] + float(span.get("duration", 0.0)) for span in spans))


def _well_formed_span(event: Dict[str, Any]) -> bool:
    """Whether every field the renderers read has the type a recorded span gives it."""
    try:
        _number(event.get("start", 0.0)), _number(event.get("wall", 0.0)), _number(event.get("duration", 0.0))
    except (TypeError, ValueError):
        return False
    return (
        isinstance(event.get("name", ""), str)
        and isinstance(event.get("span_id"), _ID_TYPES)
        and isinstance(event.get("parent_id"), _ID_TYPES)
        and isinstance(event.get("trace_id"), _ID_TYPES)
        and isinstance(event.get("pid"), (int, type(None)))
        and isinstance(event.get("attrs") or {}, dict)
    )


def _num(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
