"""Smoke test of the end-to-end benchmark (collected by the tier-1 run).

Runs all five workloads at toy sizes through ``run.py --smoke`` and checks
the shape of what comes out — names, units, the contract line — not the
numbers, which at these sizes mean nothing.  The three ``run.py`` processes
run side by side to keep the file under ten seconds.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import catalogue
import compare
import harness
import stats
from spans import PRIMITIVE, STAGE, Span, Tracer, self_times

HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "7"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    commands = {
        "all": RUN + ["--trace", "--out", str(out)],
        "one": RUN + ["--workload", "tally_modp2048", "--trace", "0"],
        "corrupt": RUN + ["--workload", "tally_modp2048", "--corrupt"],
    }
    processes = {
        key: subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for key, command in commands.items()
    }
    finished = {}
    for key, process in processes.items():
        stdout, stderr = process.communicate(timeout=120)
        finished[key] = (process.returncode, stdout, stderr)
    return finished, out


@pytest.fixture(scope="module")
def contract():
    return catalogue.load_contract()


def test_contract_names_are_well_formed_and_unique(contract):
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in contract["workloads"]] == list(catalogue.WORKLOADS)
    assert contract["paths"] == ["benchmarks/e2e"]
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert set(catalogue.UNIVERSAL_PHASES) < set(catalogue.end_to_end_names(contract))
    # The issue's named phase metrics ride in the per-layer list with the same unit.
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for metric in catalogue.PHASE_METRICS:
        assert units[metric.name] == metric.unit
        assert set(metric.workloads) <= set(catalogue.WORKLOADS)


def test_smoke_run_emits_every_workload_and_metric(runs, contract):
    finished, out = runs
    code, stdout, stderr = finished["all"]
    assert code == 0, stdout + stderr
    document = json.loads(out.read_text())
    header = document["header"]
    for key in ("git_sha", "python", "nproc", "bigint_backend", "crypto.bigint.modexp2048_us",
                "seed", "settings", "sizes", "environment"):
        assert key in header
    assert header["bigint_backend"] == "python"
    assert header["environment"]["pinned"] == {"REPRO_BIGINT": "python"}
    assert list(document["workloads"]) == list(catalogue.WORKLOADS)
    for name, result in document["workloads"].items():
        assert not result["problems"], (name, result["problems"])
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["end_to_end"]) == set(catalogue.end_to_end_names(contract))
        assert all(value > 0 for value in result["end_to_end"].values()), name
        assert set(result["per_layer"]) == set(catalogue.per_layer_names(contract))
        assert all(math.isfinite(value) for value in result["per_layer"].values()), name
        expected_phases = {m.name for m in catalogue.PHASE_METRICS if name in m.workloads}
        assert set(result["phases"]) == expected_phases
        # Printed by name, with the unit.
        for metric in contract["end_to_end"]:
            assert re.search(rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$",
                             stdout, re.M)
    # Each layer is exercised by some workload: no per-layer metric is dead.
    for metric in contract["per_layer"]:
        if metric["name"] in ("audit.failed", "gateway.failed", "gateway.shed",
                              "gateway.generator.late_share",
                              "runtime.precompute.power.calls", "runtime.precompute.power.self_s",
                              "runtime.precompute.table_hit_share"):
            continue  # zero when nothing goes wrong / toy groups build no tables
        assert any(
            result["per_layer"][metric["name"]] for result in document["workloads"].values()
        ), metric["name"]
    assert document["workloads"]["election_ed25519"]["spans"]


def test_single_workload_prints_the_contract_line(runs, contract):
    code, stdout, stderr = runs[0]["one"]
    assert code == 0, stdout + stderr
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(catalogue.end_to_end_names(contract))
    for metric in contract["end_to_end"]:
        entry = line["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0


def test_a_forged_ballot_signature_fails_the_run(runs):
    code, stdout, _ = runs[0]["corrupt"]
    assert code == 1
    assert "FAILED CHECK" in stdout
    assert json.loads(stdout.strip().splitlines()[-1])["correct"] is False


# ------------------------------------------------------------------ unit tests


def _span(span_id, parent, name, start, end, tier=STAGE):
    return Span(span_id, parent, name, tier, 0, start, end, 0)


def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        _span(0, None, "phase", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 1, "a.inner", 2.0, 3.0),
        _span(3, 0, "b", 5.0, 9.0),
        _span(4, None, "elsewhere", 0.0, 2.0),
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 2.0}


def test_tiers_nest_independently():
    clock = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(clock)))

    def leaf():
        return "x"

    primitive = tracer.wrap(leaf, "prim", PRIMITIVE)
    inner = tracer.wrap(primitive, "inner", STAGE)
    outer = tracer.wrap(lambda: (primitive(), inner()), "outer", STAGE)
    outer()
    spans = {span.name: span for span in tracer.spans if span.name != "prim"}
    prims = [span for span in tracer.spans if span.name == "prim"]
    # A stage's parent is the enclosing stage; a primitive never parents a stage.
    assert spans["inner"].parent_id == spans["outer"].span_id
    assert all(span.parent_id is None for span in prims)
    selfs = self_times(tracer.spans)
    assert selfs[spans["outer"].span_id] == spans["outer"].duration - spans["inner"].duration


def test_generator_wrapper_times_pulls_not_the_consumer():
    clock = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(clock)))
    pages = tracer.wrap_generator(lambda: iter("ab"), "read", STAGE)
    assert list(pages()) == ["a", "b"]
    assert [span.value for span in tracer.spans] == [1, 1, 0]
    assert all(span.duration == 1.0 for span in tracer.spans)


def test_install_and_uninstall_restore_the_original():
    class Thing:
        def work(self):
            return 1

    original = Thing.__dict__["work"]
    tracer = Tracer()
    tracer.install(Thing, "work", "thing.work", STAGE)
    assert Thing().work() == 1 and len(tracer.spans) == 1
    tracer.uninstall()
    assert Thing.__dict__["work"] is original


def test_a_phase_is_scaled_by_the_calibration_readings_around_it(monkeypatch):
    readings = iter([[0.030, 0.030], [0.050, 0.050], [0.050, 0.050], [0.020, 0.020]])
    monkeypatch.setattr(harness, "modexp2048_seconds", lambda samples: next(readings))
    clock = harness.PhaseClock()
    with clock.phase("slow"):
        pass
    # The host took 30 and 50 ms over a 20 ms modexp: it ran at half speed.
    assert clock.scaled["slow"] == pytest.approx(clock.wall["slow"] / 2)
    start, end = clock.window["slow"]
    assert end - start == clock.wall["slow"]
    unscaled = harness.PhaseClock(probe=False)
    with unscaled.phase("any"):
        pass
    assert unscaled.scaled["any"] == unscaled.wall["any"]


def test_a_run_reports_the_mean_of_its_faster_half():
    assert stats.typical([3.0]) == 3.0
    assert stats.typical([5.0, 1.0, 3.0]) == 2.0
    assert stats.typical([4.0, 1.0, 9.0, 2.0]) == 1.5
    assert stats.typical_by_key([{"a": 1.0, "b": 8.0}, {"a": 3.0, "b": 2.0}]) == {"a": 1.0, "b": 2.0}


def test_highest_percentile_needs_ten_samples_beyond_it():
    assert stats.highest_percentile(10) is None
    assert stats.highest_percentile(20) == 50.0
    assert stats.highest_percentile(99) == 50.0
    assert stats.highest_percentile(100) == 90.0
    assert stats.highest_percentile(999) == 90.0
    assert stats.highest_percentile(1000) == 99.0
    assert stats.highest_percentile(10_000) == 99.9
    samples = [float(value) for value in range(1, 101)]
    assert stats.percentile(samples, 50.0) == 50.0
    assert stats.percentile(samples, 99.0) == 99.0
    assert stats.samples_beyond(100, 90.0) == 10
    # A failed request is +inf and lands in the tail, not in the median.
    assert stats.percentile(samples[:-1] + [math.inf], 50.0) == 50.0
    assert stats.percentile(samples[:-1] + [math.inf], 100.0) == math.inf


def test_compare_verdicts():
    assert compare.verdict([10.0], [10.9], "lower", 0.10) == compare.OK
    assert compare.verdict([10.0], [11.1], "lower", 0.10) == compare.REGRESSED
    assert compare.verdict([10.0], [8.0], "lower", 0.10) == compare.OK
    assert compare.verdict([100.0], [84.0], "higher", 0.15) == compare.REGRESSED
    assert compare.verdict([100.0], [86.0], "higher", 0.15) == compare.OK
    # An absolute floor under the relative bound: 0.3 s on a 1 s set-up is noise.
    assert compare.verdict([1.0], [1.3], "lower", 0.20, floor=0.5) == compare.OK
    # The medians of several runs are compared, not single readings.
    steady = [10.0, 10.1, 9.9, 10.0, 10.2]
    assert compare.verdict(steady, [11.5, 11.4, 11.6, 11.5, 11.3], "lower", 0.10) == compare.REGRESSED
    # Runs that spread wider than the bound resolve nothing, whichever way the medians lie,
    noisy = [8.0, 10.0, 12.0, 9.0, 11.0]
    assert compare.verdict(noisy, [11.5, 11.4, 11.6, 11.5, 11.3], "lower", 0.10) == compare.UNRESOLVED
    assert compare.verdict(noisy, noisy, "lower", 0.10) == compare.UNRESOLVED
    # unless every run of the candidate beats every run of the base;
    assert compare.verdict(noisy, [7.0, 7.5, 7.2, 7.1, 7.9], "lower", 0.10) == compare.OK
    # and below five runs a side the quartiles are not trusted at all.
    assert compare.verdict(noisy[:4], [11.5, 11.4, 11.6, 11.5], "lower", 0.10) == compare.REGRESSED


def test_compare_reads_a_file_or_a_directory_of_runs(runs, tmp_path):
    out = runs[1]
    (tmp_path / "one.json").write_text(out.read_text())
    (tmp_path / "two.json").write_text(out.read_text())
    assert len(compare.load_runs(str(tmp_path))) == 2
    assert compare.main([str(out), str(tmp_path)]) == 0
