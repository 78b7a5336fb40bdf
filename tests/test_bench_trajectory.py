"""The root ``BENCH_e2e.json`` trajectory and ``benchmarks/trajectory.py``, which appends to it."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]
GATED = [metric["name"] for metric in CONTRACT["end_to_end"]]

_spec = importlib.util.spec_from_file_location("trajectory", ROOT / "benchmarks" / "trajectory.py")
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)


def _run_file(directory, name, *, trace, seed=1, count=7.0, sha="abc"):
    """A ``run.py --out`` file reduced to what a trajectory entry reads."""
    result = {"end_to_end": {metric: float(seed) for metric in GATED}}
    if trace:
        result["per_layer"] = dict.fromkeys(trajectory.COUNTS, count)
    header = {
        "git_sha": sha, "seed": seed, trajectory.CALIBRATION: 20_000.0 + seed,
        "settings": {"seconds": 20.0, "trace": trace, "smoke": False},
    }
    path = directory / name
    path.write_text(json.dumps({"header": header, "workloads": dict.fromkeys(WORKLOADS, result)}))
    return str(path)


def test_entries_are_appended_with_medians_and_counts(tmp_path):
    target = tmp_path / "BENCH_e2e.json"
    runs = [_run_file(tmp_path, f"seed{seed}.json", trace=0, seed=seed) for seed in (1, 2, 3)]
    traced = _run_file(tmp_path, "traced.json", trace=1)
    trajectory.main(["first", *runs, traced], target)
    first = json.loads(target.read_text())
    trajectory.main(["second", *runs, traced], target)
    both = json.loads(target.read_text())

    assert both[:1] == first and [entry["label"] for entry in both] == ["first", "second"]
    entry = both[1]
    assert (entry["git_sha"], entry["runs"], entry["seeds"]) == ("abc", 3, [1, 2, 3])
    assert entry[trajectory.CALIBRATION] == 20_002.0
    assert list(entry["workloads"]) == WORKLOADS
    for workload in entry["workloads"].values():
        assert workload["metrics"] == {metric: 2.0 for metric in GATED}
        assert workload["counts"] == {name: 7 for name in trajectory.COUNTS}


def test_a_label_whose_runs_disagree_is_refused_and_nothing_is_written(tmp_path):
    target = tmp_path / "BENCH_e2e.json"
    untraced = _run_file(tmp_path, "seed1.json", trace=0)
    traced = _run_file(tmp_path, "traced.json", trace=1)
    trajectory.main(["kept", untraced, traced], target)
    before = target.read_text()

    recount = _run_file(tmp_path, "recount.json", trace=1, count=8.0)
    other_commit = _run_file(tmp_path, "other.json", trace=0, sha="def")
    for label, paths, reason in [
        ("counts", [untraced, traced, recount], "disagree on the counts"),
        ("commits", [untraced, other_commit, traced], "different commits"),
        ("no-counts", [untraced, untraced], "--trace"),
        ("kept", [untraced, traced], "already in"),
    ]:
        with pytest.raises(SystemExit) as refusal:
            trajectory.main([label, *paths], target)
        assert label in str(refusal.value.code) and reason in str(refusal.value.code)
        assert target.read_text() == before


def test_the_checked_in_trajectory_is_whole():
    entries = json.loads((ROOT / "BENCH_e2e.json").read_text())
    assert len(entries) >= 2 and len({entry["label"] for entry in entries}) == len(entries)
    for entry in entries:
        assert entry["git_sha"] and entry["runs"] == len(entry["seeds"]) and entry[trajectory.CALIBRATION] > 0
        assert list(entry["workloads"]) == WORKLOADS
        for workload in entry["workloads"].values():
            assert list(workload["metrics"]) == GATED and all(value > 0 for value in workload["metrics"].values())
            assert list(workload["counts"]) == list(trajectory.COUNTS)
