"""Fleet telemetry: worker spans piggyback onto one merged coordinator snapshot.

The cluster's observability contract (PR 6): when the coordinator process
has telemetry attached, the WELCOME frame asks workers to buffer spans in
memory, each RESULT frame carries the drained blob back, and the
coordinator's snapshot covers the whole fleet — per-worker ``cluster.task``
spans, dispatch/reassign counters, the tally phase spans and (for a
streaming ledger read) queue-depth high-water marks — in one trace file an
operator can feed to ``python -m repro.telemetry summarize``.
"""

from __future__ import annotations

import logging
import os
import threading
import time

import pytest

import cluster_tasks

from repro import telemetry
from repro.election import ElectionConfig, VotegralElection
from repro.runtime.executor import executor_from_spec
from repro.telemetry import TelemetrySnapshot
from repro.telemetry.__main__ import summarize

PHASES = {"tally.sig-check", "tally.mix", "tally.tag", "tally.join", "tally.decrypt"}


@pytest.fixture(autouse=True)
def clean_telemetry():
    yield
    telemetry.configure("off")
    os.environ.pop("REPRO_TELEMETRY", None)


def test_cluster_tally_produces_one_merged_snapshot(tmp_path):
    """The acceptance path: cluster:2 + streaming ledger read + jsonl -> one fleet trace."""
    trace = tmp_path / "trace.jsonl"
    config = ElectionConfig(
        num_voters=4, num_mixers=2, proof_rounds=2,
        executor_spec="cluster:2", pipeline_spec="stream:2",
        telemetry_spec=f"jsonl:{trace}",
    )
    election = VotegralElection(config)
    try:
        outcome = election.run()
        assert outcome.counts_match_intent
    finally:
        election.executor.close()
        telemetry.configure("off")  # detach flushes coordinator aggregates

    snapshot = TelemetrySnapshot.from_jsonl(str(trace))
    # All five tally phases.
    assert PHASES <= set(snapshot.span_names())
    # Per-worker task spans arrived piggybacked on RESULT frames and were
    # re-labelled by the coordinator on ingest: each names an enrolled worker.
    # (Which of the two served a 4-voter election's few tasks, and whether one
    # was reassigned, is the schedule's business; the 12-task test below pins
    # both workers.)
    task_workers = {span["attrs"].get("worker") for span in snapshot.spans_named("cluster.task")}
    assert task_workers and task_workers <= {"local-0", "local-1"}
    # Coordinator scheduling counters, including the series a healthy run
    # pre-registers at zero (an absent reassign series would say nothing).
    assert snapshot.counter_total("cluster.enroll") == 2
    assert snapshot.counter_total("cluster.dispatch") > 0
    assert ("cluster.reassign", ()) in snapshot.counters
    # The ledger read's bounded queue reported its high-water mark.
    assert snapshot.gauge_high_water("pipeline.queue.depth") >= 1
    # And the operator-facing summary renders the whole fleet.
    report = summarize(str(trace))
    assert "cluster.task" in report
    assert "repro_cluster_dispatch_total" in report


def test_worker_task_spans_parent_under_the_dispatch_span():
    """Distributed trace continuity: TASK frames carry the dispatching call's
    traceparent, so every worker-side ``cluster.task`` span — piggybacked back
    on RESULT frames — parents under the coordinator's ``executor.map`` span
    in one trace, not in per-worker orphan traces."""
    telemetry.configure("mem", propagate=False)
    executor = executor_from_spec("cluster:2")
    try:
        executor.warm()
        results = executor.map(cluster_tasks.square, list(range(12)))
        assert results == [value * value for value in range(12)]

        snapshot = telemetry.snapshot()
        (dispatch,) = snapshot.spans_named("executor.map")
        tasks = snapshot.spans_named("cluster.task")
        assert len(tasks) >= 2
        for task in tasks:
            assert task["trace_id"] == dispatch["trace_id"]
            assert task["parent_id"] == dispatch["span_id"]
        # Both workers contributed to the same trace.
        assert {span["attrs"].get("worker") for span in tasks} == {"local-0", "local-1"}
        # And the snapshot's per-trace grouping sees one end-to-end trace.
        chain = snapshot.trace_spans(dispatch["trace_id"])
        assert len(chain) == 1 + len(tasks)
    finally:
        executor.close()


def test_orderly_close_is_not_a_worker_loss(caplog, monkeypatch):
    """SHUTDOWN makes each worker close its socket, and its reader thread may
    see that before ``shutdown`` retires the worker itself: once the
    coordinator is closed that is routine — no WARNING, no loss counted."""
    caplog.set_level(logging.DEBUG, logger="repro.cluster.coordinator")
    telemetry.configure("mem", propagate=False)
    executor = executor_from_spec("cluster:2")
    retire = executor.coordinator._retire

    def reader_thread_wins(worker, reason):
        if reason == "coordinator shutdown":
            time.sleep(0.3)  # the worker has closed and its reader retired it by now
        retire(worker, reason)

    monkeypatch.setattr(executor.coordinator, "_retire", reader_thread_wins)
    try:
        executor.warm()
        assert executor.map(cluster_tasks.square, list(range(12))) == [v * v for v in range(12)]
    finally:
        executor.close()
    messages = [r.getMessage() for r in caplog.records]
    assert sum("retired (connection lost)" in message for message in messages) == 2
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []
    # Only the zero-valued series the coordinator pre-registers: no worker-labelled loss.
    lost = [key for key in telemetry.snapshot().counters if key[0] == "cluster.worker.lost"]
    assert lost == [("cluster.worker.lost", ())]
    assert telemetry.snapshot().counter_total("cluster.worker.lost") == 0


def test_worker_kill_mid_shard_keeps_survivor_spans_in_snapshot(caplog):
    """Kill one worker mid-shard: the group completes on the survivor, the
    reassignment is counted (and warned about), and the survivor's spans still merge."""
    caplog.set_level(logging.WARNING, logger="repro.cluster.coordinator")
    telemetry.configure("mem", propagate=False)
    executor = executor_from_spec("cluster:2")
    try:
        executor.warm()
        victim = executor.worker_processes[0]
        threading.Timer(0.25, victim.kill).start()
        results = executor.starmap(cluster_tasks.slow_echo, [(i, 0.05) for i in range(40)])
        assert results == list(range(40))

        snapshot = telemetry.snapshot()
        # The victim's death was observed and its in-flight shards moved.
        assert snapshot.counter_total("cluster.worker.lost") >= 1
        assert snapshot.counter_total("cluster.reassign") >= 1
        assert any("lost" in r.getMessage() for r in caplog.records if r.levelno == logging.WARNING)
        # The survivor's task spans kept arriving after the kill.
        task_workers = {span["attrs"].get("worker") for span in snapshot.spans_named("cluster.task")}
        assert "local-1" in task_workers
        served = len(snapshot.spans_named("cluster.task"))
        assert served >= 8  # the fan-out produced 8 chunks; all were traced
    finally:
        executor.close()
