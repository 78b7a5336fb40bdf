"""Instrumentation coverage: phase spans, executor parenting, pipeline gauges."""

from __future__ import annotations

import cluster_tasks

from repro import telemetry
from repro.election.config import ElectionConfig
from repro.election.pipeline import VotegralElection
from repro.runtime.executor import SerialExecutor
from repro.runtime.pipeline import StreamPipeline
from repro.telemetry.__main__ import main as telemetry_cli

PHASES = {"tally.sig-check", "tally.mix", "tally.tag", "tally.join", "tally.decrypt"}
REGISTRATION = {"registration.phase", "registration.scan", "registration.print"}


def test_serial_election_emits_all_five_phase_spans():
    config = ElectionConfig(num_voters=4, num_mixers=2, proof_rounds=2, telemetry_spec="mem")
    outcome = VotegralElection(config).run()
    assert outcome.counts_match_intent
    snapshot = telemetry.snapshot()
    assert PHASES <= set(snapshot.span_names())
    assert REGISTRATION <= set(snapshot.span_names())
    # The ledger instrumentation rode along.
    assert snapshot.counter_total("ledger.append.ballots") > 0
    assert snapshot.spans_named("ledger.read")
    # audit.run timed the verification (its elapsed_seconds feeds AuditReport).
    assert snapshot.spans_named("audit.run")


def _phase_spans(snapshot, exclude=()):
    """(name, attribute names) of every tally phase span, sorted."""
    return sorted(
        (span["name"], tuple(sorted(span["attrs"])))
        for span in snapshot.spans
        if span["name"] in PHASES - set(exclude)
    )


def test_stream_opens_one_ballot_read_pipeline_and_keeps_the_serial_phase_spans(monkeypatch):
    """``stream`` moves the ledger read onto the ``ballot-read`` read-ahead
    and nothing else: tag, join, decrypt and every mixer emit their spans
    from the call sites the serial schedule uses (one span each, the same
    attributes — no per-shard stage spans)."""
    opened = []
    run = StreamPipeline.run

    def recording_run(self, *args, **kwargs):
        opened.append(self.name)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(StreamPipeline, "run", recording_run)

    shapes = {}
    for spec in ("serial", "stream:2"):
        config = ElectionConfig(
            num_voters=4, num_mixers=2, proof_rounds=2, pipeline_spec=spec, telemetry_spec="mem",
        )
        outcome = VotegralElection(config).run()
        assert outcome.counts_match_intent
        shapes[spec] = telemetry.snapshot()
        telemetry.configure("off")

    assert opened == ["ballot-read"]  # one pipeline, under stream only
    serial, streamed = shapes["serial"], shapes["stream:2"]
    assert PHASES <= set(streamed.span_names())
    assert _phase_spans(streamed) == _phase_spans(serial)
    assert [name for name, _ in _phase_spans(streamed, exclude={"tally.mix", "tally.sig-check"})] == [
        "tally.decrypt", "tally.join", "tally.tag",
    ]
    assert not serial.spans_named("pipeline.stage")
    assert {span["attrs"]["pipeline"] for span in streamed.spans_named("pipeline.stage")} == {"ballot-read"}
    # The bounded queue sampled its depth; the high-water mark survives.
    assert streamed.gauge_high_water("pipeline.queue.depth") is not None


def test_executor_map_span_nests_under_caller_across_backends(cluster_executor):
    """The cluster's fan-out span parents into the caller's span — the process
    boundary the trace must not lose; the serial reference emits none."""
    telemetry.configure("mem", propagate=False)
    with telemetry.span("caller") as caller:
        assert SerialExecutor().map(cluster_tasks.square, [1, 2]) == [1, 4]
        assert cluster_executor.map(cluster_tasks.square, list(range(32))) == [i * i for i in range(32)]
    (map_span,) = telemetry.snapshot().spans_named("executor.map")
    assert map_span["parent_id"] == caller.span_id
    assert map_span["attrs"]["items"] == 32
    assert map_span["attrs"]["backend"] == cluster_executor.name


def test_summarize_cli(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    telemetry.configure(f"jsonl:{path}", propagate=False)
    with telemetry.span("tally.mix", mixer=0):
        with telemetry.span("executor.map", backend="serial"):
            pass
    telemetry.counter("cluster.dispatch", 3, worker="w-0")
    telemetry.configure("off")

    assert telemetry_cli(["summarize", str(path)]) == 0
    out = capsys.readouterr().out
    assert "tally.mix" in out
    assert "executor.map" in out
    assert "repro_cluster_dispatch_total" in out

    assert telemetry_cli(["summarize", str(tmp_path / "missing.jsonl")]) == 2


def test_off_never_reaches_the_span_machinery(monkeypatch):
    """Telemetry ``off``, as counts rather than a timing ratio: a whole
    election allocates no span id, attaches no context, opens no trace and
    records nothing — registration's phase, scan and print spans included."""
    from repro.telemetry import core

    opened = []

    class RecordingHandle(core.SpanHandle):
        __slots__ = ()

        def __init__(self, name, attrs, state):
            opened.append(name)
            super().__init__(name, attrs, state)

    monkeypatch.setattr(telemetry, "SpanHandle", RecordingHandle)
    calls = []
    for name in ("_new_span_id", "attach", "new_trace"):
        monkeypatch.setattr(
            core, name,
            lambda *args, _name=name, _original=getattr(core, name): (
                calls.append(_name) or _original(*args)
            ),
        )
    config = ElectionConfig(num_voters=4, num_mixers=2, proof_rounds=2, telemetry_spec="off")
    outcome = VotegralElection(config).run()
    assert outcome.counts_match_intent
    assert REGISTRATION <= set(opened)
    assert calls == []
    assert core._ACTIVE_SPANS == {}
    snapshot = telemetry.snapshot()
    assert not (snapshot.spans or snapshot.counters or snapshot.gauges or snapshot.histograms)
