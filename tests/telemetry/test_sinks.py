"""Sink behaviour: JSONL atomicity under concurrent writers, env re-attach."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import threading

from repro import telemetry
from repro.telemetry import TelemetrySnapshot
from repro.telemetry.core import JsonlSink, read_jsonl

EVENTS_PER_WRITER = 200


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


def test_configure_off_flushes_metrics_into_the_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    telemetry.configure(f"jsonl:{path}", propagate=False)
    telemetry.counter("late.metric", 3)
    telemetry.configure("off")  # detach must flush, not drop, the aggregates
    snapshot = TelemetrySnapshot.from_jsonl(str(path))
    assert snapshot.counter_total("late.metric") == 3
