"""Append one entry to the root ``BENCH_e2e.json`` trajectory.

    python3 benchmarks/trajectory.py "PR 17: what changed" runs/*.json

Takes ``benchmarks/e2e/run.py --out`` files of one commit: untraced runs give the gated metrics' medians, ``--trace``
runs the counts that repeat exactly.  Refused (exit 1): a label already present, runs of two commits, unequal counts.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALIBRATION = "crypto.bigint.modexp2048_us"
COUNTS = ("crypto.exp.calls", "runtime.precompute.power.calls", "audit.plan.checks", "cluster.tasks",
          "ledger.append.calls")


def entry(label: str, runs: list, contract: dict) -> dict:
    traced = [run for run in runs if run["header"]["settings"]["trace"]]
    untraced = [run for run in runs if not run["header"]["settings"]["trace"]]
    if not traced or not untraced or any(run["header"]["settings"]["smoke"] for run in runs):
        raise ValueError("needs untraced and --trace runs, none of them --smoke")
    shas = sorted({run["header"]["git_sha"] for run in runs})
    if len(shas) != 1:
        raise ValueError(f"runs of different commits: {shas}")
    workloads = {}
    for name in (workload["name"] for workload in contract["workloads"]):
        counts = {tuple(int(run["workloads"][name]["per_layer"][count]) for count in COUNTS) for run in traced}
        if len(counts) != 1:
            raise ValueError(f"runs disagree on the counts {COUNTS} of {name}: {sorted(counts)}")
        medians = {
            metric["name"]: statistics.median(run["workloads"][name]["end_to_end"][metric["name"]] for run in untraced)
            for metric in contract["end_to_end"]
        }
        workloads[name] = {"metrics": medians, "counts": dict(zip(COUNTS, counts.pop()))}
    return {
        "label": label, "git_sha": shas[0], "runs": len(untraced),
        "seeds": sorted(run["header"]["seed"] for run in untraced),
        CALIBRATION: statistics.median(run["header"][CALIBRATION] for run in untraced), "workloads": workloads,
    }


def main(argv: list, target: Path = ROOT / "BENCH_e2e.json") -> None:
    if len(argv) < 3:
        sys.exit(__doc__)
    trajectory = json.loads(target.read_text()) if target.exists() else []
    try:
        if any(old["label"] == argv[0] for old in trajectory):
            raise ValueError(f"already in {target.name}")
        runs = [json.loads(Path(path).read_text()) for path in argv[1:]]
        trajectory.append(entry(argv[0], runs, json.loads((ROOT / "BENCHMARK.json").read_text())))
    except ValueError as error:
        sys.exit(f"refused {argv[0]!r}: {error}")
    target.write_text(json.dumps(trajectory, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
