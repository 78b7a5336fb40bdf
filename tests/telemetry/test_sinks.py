"""Sink behaviour: JSONL atomicity under concurrent writers, env re-attach."""

from __future__ import annotations

import ast
import json
import multiprocessing
import os
import pathlib
import re
import subprocess
import sys
import threading

import pytest

from repro import telemetry
from repro.telemetry import TelemetrySnapshot
from repro.telemetry.__main__ import summarize
from repro.telemetry.core import JsonlSink, read_jsonl

EVENTS_PER_WRITER = 200

#: What forks a Python child without exec-ing a fresh interpreter.
FORKING_NAMES = {"fork", "forkpty", "register_at_fork", "ProcessPoolExecutor"}


def _write_events(path: str, writer: int) -> None:
    sink = JsonlSink(path)
    for index in range(EVENTS_PER_WRITER):
        sink.emit({"type": "counter", "name": "stress", "labels": {"writer": str(writer)},
                   "value": 1, "seq": index, "pid": os.getpid()})
    sink.close()


def test_jsonl_lines_stay_atomic_under_processes_and_threads(tmp_path):
    """N processes + N threads hammer one trace file; every line must parse.

    O_APPEND plus one unbuffered write per line is the whole crash-safety
    story — if writes interleaved mid-line, json.loads would fail below.
    """
    path = str(tmp_path / "trace.jsonl")
    context = multiprocessing.get_context("fork")
    processes = [context.Process(target=_write_events, args=(path, writer)) for writer in range(3)]
    threads = [threading.Thread(target=_write_events, args=(path, 100 + writer)) for writer in range(3)]
    for worker in processes + threads:
        worker.start()
    for process in processes:
        process.join(timeout=60)
        assert process.exitcode == 0
    for thread in threads:
        thread.join(timeout=60)

    raw_lines = [line for line in open(path, "rb").read().splitlines() if line.strip()]
    assert len(raw_lines) == 6 * EVENTS_PER_WRITER
    events = [json.loads(line) for line in raw_lines]  # raises if any line tore
    per_writer = {}
    for event in events:
        per_writer.setdefault(event["labels"]["writer"], set()).add(event["seq"])
    assert all(len(seen) == EVENTS_PER_WRITER for seen in per_writer.values())
    # read_jsonl agrees with the strict parse.
    assert len(list(read_jsonl(path))) == len(events)


def test_read_jsonl_skips_torn_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"type":"span","name":"ok"}\n{"type":"sp\n{"type":"counter","name":"c","value":1}\n')
    events = list(read_jsonl(str(path)))
    assert [event.get("name") for event in events] == ["ok", "c"]


def test_damaged_trace_events_are_skipped_not_raised(tmp_path):
    """A JSON-valid line with one wrong-typed field is skipped like a torn one."""
    path = tmp_path / "trace.jsonl"
    path.write_text(
        '{"type":"counter","name":"ok","labels":{"w":"1"},"value":2}\n'
        '{"type":"counter","name":"x","labels":["w"],"value":1}\n'
        '{"type":"counter","name":"x","labels":{},"value":"abc"}\n'
        '{"type":"histogram","name":"h","labels":{},"count":"z","sum":1,"min":1,"max":1}\n'
        '{"type":"span","name":"bad","span_id":"b","trace_id":"t","wall":1.0,"duration":"x"}\n'
        '{"type":"span","name":"good","span_id":"g","trace_id":"t","wall":1.0,"duration":0.5}\n'
    )
    report = summarize(str(path))
    assert "good" in report and "bad" not in report
    snapshot = TelemetrySnapshot.from_jsonl(str(path))
    assert 'repro_ok_total{w="1"} 2' in snapshot.to_prometheus()
    assert snapshot.counter_total("ok") == 2
    assert snapshot.counter_total("x") == 0 and snapshot.histograms == {}
    assert [span["name"] for span in snapshot.spans] == ["good"]


@pytest.mark.parametrize(
    "forged",
    [
        # Two spans share a span_id, and one names the other as its parent.
        [("a", "root"), ("a", "a"), ("c", "a")],
        # Two spans name each other as parent; a third hangs off the loop.
        [("a", "b"), ("b", "a"), ("c", "a")],
        # A span is its own parent.
        [("a", "a"), ("c", "a")],
    ],
    ids=["repeated-span-id", "parent-loop", "self-parent"],
)
def test_a_forged_span_tree_places_every_span_once(forged):
    """Repeated ids and parent loops become roots: no renderer recurses
    without end, and none drops a span it counted."""
    snapshot = TelemetrySnapshot.from_events(
        {"type": "span", "name": f"s{index}", "span_id": span_id, "parent_id": parent,
         "trace_id": "t", "wall": 1.0 + index, "duration": 0.5}
        for index, (span_id, parent) in enumerate(forged)
    )
    names = sorted(f"s{index}" for index in range(len(forged)))

    def flatten(groups):
        return [name for group in groups for name in [group.name] * group.count + flatten(group.children)]

    assert sorted(flatten(snapshot.span_tree())) == names
    waterfall = snapshot.render_waterfall("t")
    assert f"{len(forged)} span(s)" in waterfall
    assert sorted(re.findall(r"\bs\d\b", waterfall)) == names
    assert sorted(re.findall(r"\bs\d\b", snapshot.render_tree())) == names
    assert snapshot.summary()


@pytest.mark.parametrize("spec", ["mem", "jsonl"])
def test_every_recorded_span_carries_a_wall_stamp(tmp_path, spec):
    """Waterfalls align spans on ``wall`` alone; this is what lets them."""
    telemetry.configure(spec if spec == "mem" else f"jsonl:{tmp_path / 'trace.jsonl'}", propagate=False)
    with telemetry.span("outer"):
        with telemetry.span("inner"):
            pass
    spans = telemetry.snapshot().spans
    assert sorted(span["name"] for span in spans) == ["inner", "outer"]
    assert all(span["wall"] > 0 for span in spans)


def test_subprocess_reattaches_from_environment(tmp_path):
    """A child process with ``REPRO_TELEMETRY`` set joins the same trace.

    This is the process-pool propagation contract: the parent configures, the environment
    carries the spec, and the child's lazy resolve attaches the jsonl sink —
    its spans stream in live and its counters flush at exit.
    """
    path = tmp_path / "trace.jsonl"
    spec = f"jsonl:{path}"
    child = (
        "from repro import telemetry\n"
        "assert telemetry.enabled(), 'child did not attach from REPRO_TELEMETRY'\n"
        "with telemetry.span('child.work', role='subprocess'):\n"
        "    telemetry.counter('child.items', 5)\n"
    )
    env = dict(os.environ)
    env["REPRO_TELEMETRY"] = spec
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")) if part
    )
    subprocess.run([sys.executable, "-c", child], env=env, check=True, timeout=60)

    snapshot = TelemetrySnapshot.from_jsonl(str(path))
    (span,) = snapshot.spans_named("child.work")
    assert span["attrs"]["role"] == "subprocess"
    assert span["pid"] != os.getpid()
    assert snapshot.counter_total("child.items") == 5


def test_nothing_in_the_package_forks_a_python_child():
    """Telemetry keeps no at-fork hook: cluster workers and the gateway child
    are fork+exec subprocesses that attach as above.  A forked child would
    inherit the parent's span stacks and buffered events instead."""
    root = pathlib.Path(telemetry.__file__).resolve().parents[1]
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            for name in names:
                if name.split(".")[0] == "multiprocessing" or name in FORKING_NAMES:
                    offenders.append(f"{path.relative_to(root)}:{node.lineno} {name}")
    assert offenders == []


def test_configure_off_flushes_metrics_into_the_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    telemetry.configure(f"jsonl:{path}", propagate=False)
    telemetry.counter("late.metric", 3)
    telemetry.configure("off")  # detach must flush, not drop, the aggregates
    snapshot = TelemetrySnapshot.from_jsonl(str(path))
    assert snapshot.counter_total("late.metric") == 3
