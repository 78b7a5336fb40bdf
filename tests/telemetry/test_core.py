"""Core telemetry semantics: specs, no-op mode, span lineage, aggregates."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.telemetry import TelemetrySnapshot, telemetry_from_spec
from repro.telemetry.core import JsonlSink, MemSink


# ------------------------------------------------------------------ specs


def test_spec_off_and_empty_mean_disabled():
    assert telemetry_from_spec(None) is None
    assert telemetry_from_spec("off") is None
    assert telemetry_from_spec("") is None
    assert telemetry_from_spec("  off  ") is None


def test_spec_mem_and_jsonl(tmp_path):
    mem = telemetry_from_spec("mem")
    assert isinstance(mem.sink, MemSink)
    jsonl = telemetry_from_spec(f"jsonl:{tmp_path / 'trace.jsonl'}")
    assert isinstance(jsonl.sink, JsonlSink)
    jsonl.close()


def test_spec_rejects_unknown_and_pathless_jsonl():
    with pytest.raises(ValueError):
        telemetry_from_spec("statsd:localhost")
    with pytest.raises(ValueError):
        telemetry_from_spec("jsonl:")


# ------------------------------------------------------------------ disabled mode


def test_disabled_mode_is_a_no_op_but_spans_still_measure():
    telemetry.configure("off")
    assert not telemetry.enabled()
    assert telemetry.current() is None
    # Every primitive is callable and records nothing.
    telemetry.counter("c", 3, where="here")
    telemetry.gauge("g", 7)
    telemetry.histogram("h", 0.5)
    with telemetry.span("work", detail=1) as handle:
        pass
    # The handle measured its own region even though nothing was recorded
    # (Verifier.run reuses elapsed_seconds in AuditReport either way) …
    assert handle.elapsed_seconds >= 0.0
    # … and never minted an ID or touched the (absent) sink.
    assert handle.span_id == ""
    assert not telemetry.snapshot().spans
    assert not telemetry.snapshot().counters


# ------------------------------------------------------------------ span lineage


def test_nested_spans_record_parent_ids():
    telemetry.configure("mem", propagate=False)
    with telemetry.span("outer") as outer:
        with telemetry.span("middle") as middle:
            with telemetry.span("inner") as inner:
                pass
        with telemetry.span("sibling") as sibling:
            pass
    snapshot = telemetry.snapshot()
    by_name = {span["name"]: span for span in snapshot.spans}
    assert by_name["outer"]["parent_id"] is None
    assert by_name["middle"]["parent_id"] == outer.span_id
    assert by_name["inner"]["parent_id"] == middle.span_id
    assert by_name["sibling"]["parent_id"] == outer.span_id
    assert inner.parent_id == middle.span_id
    assert sibling.parent_id == outer.span_id


def test_span_records_error_attribute_on_exception():
    telemetry.configure("mem", propagate=False)
    with pytest.raises(ValueError):
        with telemetry.span("doomed"):
            raise ValueError("nope")
    (span,) = telemetry.snapshot().spans_named("doomed")
    assert span["attrs"]["error"] == "ValueError"


def test_concurrent_threads_get_independent_span_stacks():
    import threading

    telemetry.configure("mem", propagate=False)
    barrier = threading.Barrier(2)
    ids = {}

    def work(label: str) -> None:
        with telemetry.span(f"root-{label}") as root:
            barrier.wait(timeout=10)  # both roots open simultaneously
            with telemetry.span(f"leaf-{label}") as leaf:
                pass
            ids[label] = (root.span_id, leaf.parent_id)

    threads = [threading.Thread(target=work, args=(label,)) for label in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    # Each leaf parents to its own thread's root, not the other thread's.
    assert ids["a"][1] == ids["a"][0]
    assert ids["b"][1] == ids["b"][0]
    assert ids["a"][0] != ids["b"][0]


# ------------------------------------------------------------------ metric aggregates


def test_counter_gauge_histogram_aggregate_and_label_canonicalization():
    telemetry.configure("mem", propagate=False)
    telemetry.counter("reqs", 2, a=1, b=2)
    telemetry.counter("reqs", 3, b=2, a=1)  # same series, different kwarg order
    telemetry.counter("reqs", 5, a=9)
    telemetry.gauge("depth", 3, queue="q")
    telemetry.gauge("depth", 1, queue="q")
    telemetry.histogram("batch", 10)
    telemetry.histogram("batch", 2)

    snapshot = telemetry.snapshot()
    assert snapshot.counter_total("reqs", a=1, b=2) == 5
    assert snapshot.counter_total("reqs") == 10
    key = ("depth", (("queue", "q"),))
    assert snapshot.gauges[key] == (1.0, 3.0)  # last=1, high-water=3
    assert snapshot.gauge_high_water("depth", queue="q") == 3.0
    ((_, histogram),) = [item for item in snapshot.histograms.items()]
    assert histogram == (2.0, 12.0, 2.0, 10.0)  # count, sum, min, max


# ------------------------------------------------------------------ drain / ingest


def test_drain_then_ingest_merges_under_extra_labels():
    # Worker side: buffer locally, then drain the piggyback blob.
    telemetry.configure("mem", propagate=False)
    with telemetry.span("cluster.task", mode="map"):
        telemetry.counter("work.items", 4)
        telemetry.gauge("work.depth", 5)
        telemetry.gauge("work.depth", 2)
        telemetry.histogram("work.seconds", 0.3, exemplar="a" * 32)
        telemetry.histogram("work.seconds", 0.02)
    blob = telemetry.drain()
    assert blob, "drain returned nothing"
    assert telemetry.snapshot().spans == []  # drain popped the buffer

    # Coordinator side: a fresh telemetry ingests the blob with a worker label.
    telemetry.configure("mem", propagate=False)
    telemetry.ingest(blob, worker="w-7")
    snapshot = telemetry.snapshot()
    (span,) = snapshot.spans_named("cluster.task")
    assert span["attrs"]["worker"] == "w-7"
    assert span["attrs"]["mode"] == "map"
    assert snapshot.counter_total("work.items", worker="w-7") == 4

    # One merge rule: reading the blob with the label added renders the same text.
    labelled = [
        event if event["type"] == "span" else dict(event, labels={**event["labels"], "worker": "w-7"})
        for event in blob
    ]
    offline = TelemetrySnapshot.from_events(labelled)
    assert offline.to_prometheus() == snapshot.to_prometheus()
    assert offline.histogram_exemplars == {("work.seconds", (("worker", "w-7"),)): "a" * 32}
    assert offline.gauges[("work.depth", (("worker", "w-7"),))] == (2.0, 5.0)


def test_ingest_merges_gauge_high_water_without_clobbering_last():
    telemetry.configure("mem", propagate=False)
    telemetry.gauge("depth", 2)
    telemetry.ingest([{"type": "gauge", "name": "depth", "labels": {}, "value": 1, "max": 9}])
    snapshot = telemetry.snapshot()
    assert snapshot.gauges[("depth", ())] == (1.0, 9.0)


# ------------------------------------------------------------------ rendering


def test_prometheus_rendering():
    telemetry.configure("mem", propagate=False)
    telemetry.counter("ledger.append.ballots", 6, backend="memory")
    telemetry.gauge("pipeline.queue.depth", 2, queue="source")
    with telemetry.span("tally.mix"):
        pass
    text = telemetry.snapshot().to_prometheus()
    assert 'repro_ledger_append_ballots_total{backend="memory"} 6' in text
    assert 'repro_pipeline_queue_depth{queue="source"} 2' in text
    assert 'repro_pipeline_queue_depth_max{queue="source"} 2' in text
    assert 'repro_span_seconds_count{name="tally.mix"} 1' in text


def test_span_tree_groups_siblings_and_attributes_self_time():
    events = [
        {"type": "span", "name": "root", "span_id": "r", "parent_id": None, "start": 0.0, "duration": 10.0},
        {"type": "span", "name": "leaf", "span_id": "l1", "parent_id": "r", "start": 1.0, "duration": 3.0},
        {"type": "span", "name": "leaf", "span_id": "l2", "parent_id": "r", "start": 5.0, "duration": 4.0},
        {"type": "span", "name": "orphan", "span_id": "o", "parent_id": "gone", "start": 2.0, "duration": 1.0},
    ]
    snapshot = TelemetrySnapshot.from_events(events)
    roots = {group.name: group for group in snapshot.span_tree()}
    assert set(roots) == {"root", "orphan"}  # unknown parent promotes to root
    root = roots["root"]
    assert root.self_time == pytest.approx(3.0)  # 10 - (3 + 4)
    (leaves,) = root.children
    assert leaves.count == 2 and leaves.total == pytest.approx(7.0)
    rendered = snapshot.render_tree()
    assert "leaf ×2" in rendered
    hotspots = snapshot.hotspots(top=2)
    assert hotspots[0][0] == "leaf"  # 7s self beats root's 3s self
