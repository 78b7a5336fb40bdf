"""Compare two sets of ``run.py --out`` files, metric by metric.

    python3 benchmarks/e2e/compare.py A B

A is the base, B the candidate; each is one ``--out`` file or a directory of
them (the same commit run several times, seeds may differ).  For every
workload both sides hold and every end-to-end metric of it, prints each
side's median, the ratio B/A, the bound, and a verdict:

* ``ok``          B's median is not worse than A's by more than the bound;
* ``regressed``   it is;
* ``unresolved``  either side has five or more runs and they spread (distance
                  between the quartiles over the median) wider than the
                  bound, so the medians cannot tell — unless every run of B
                  reads better than every run of A, which is ``ok``.

With one run a side there is no spread to judge by and a move beyond the
bound is ``regressed``.  Exits 1 if any row regressed, 2 if the runs differ
in ``--seconds``, ``--trace`` or ``--smoke``, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import catalogue
from stats import spread

OK, REGRESSED, UNRESOLVED = "ok", "regressed", "unresolved"

#: Quartiles of fewer runs than this are extrapolated, not measured.
MIN_RUNS_FOR_SPREAD = 5


def verdict(
    base: Sequence[float], candidate: Sequence[float], better: str, bound: float, floor: float = 0.0
) -> str:
    """Judge one metric from each side's runs.

    ``bound`` is a share of the base's median; a move smaller than ``floor``,
    in the metric's unit, is never a regression.
    """
    sign = 1.0 if better == "lower" else -1.0
    spreads = [spread(runs) for runs in (base, candidate) if len(runs) >= MIN_RUNS_FOR_SPREAD]
    if any(found is not None and found > bound for found in spreads):
        clear_win = max(sign * value for value in candidate) < min(sign * value for value in base)
        return OK if clear_win else UNRESOLVED
    base_median = statistics.median(base)
    worse_by = sign * (statistics.median(candidate) - base_median)
    return OK if worse_by <= max(bound * abs(base_median), floor) else REGRESSED


def load_runs(path: str) -> List[dict]:
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    if not files:
        raise ValueError(f"no run files in {path}")
    return [json.loads(file.read_text()) for file in files]


def _metrics(contract: dict, workload: str) -> List[Tuple[str, str, str, float, float]]:
    rows = [
        (m["name"], m["unit"], m["better"], m["bound"],
         catalogue.SETUP_FLOOR_SECONDS if m["name"] == "setup_s" else 0.0)
        for m in contract["end_to_end"]
    ]
    rows += [
        (m.name, m.unit, m.better, m.bound, 0.0)
        for m in catalogue.PHASE_METRICS
        if workload in m.workloads
    ]
    return rows


def _values(runs: List[dict], workload: str) -> Dict[str, List[float]]:
    """Every metric of ``workload`` across the runs that hold it, ``failed_share`` included."""
    values: Dict[str, List[float]] = {}
    for run in runs:
        result = run["workloads"].get(workload)
        if result is None:
            continue
        row = {**result["end_to_end"], **result["phases"],
               "failed_share": result["failed"] / max(1, result["attempted"])}
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    return values


def compare(base: List[dict], candidate: List[dict], contract: dict) -> Tuple[List[str], bool]:
    lines = [
        f"{'workload':<24} {'metric':<22} {'A':>12} {'B':>12} {'B/A':>8} {'bound':>6}  verdict"
    ]
    regressed = False
    for workload in catalogue.WORKLOADS:
        a, b = _values(base, workload), _values(candidate, workload)
        if not a or not b:
            continue
        failed_a, failed_b = max(a["failed_share"]), max(b["failed_share"])
        state = OK if failed_b <= failed_a else REGRESSED
        regressed |= state == REGRESSED
        lines.append(
            f"{workload:<24} {'failed_share':<22} {failed_a:>12.6g} {failed_b:>12.6g} {'':>8} {'0':>6}  {state}"
        )
        for name, unit, better, bound, floor in _metrics(contract, workload):
            state = verdict(a[name], b[name], better, bound, floor)
            regressed |= state == REGRESSED
            median_a, median_b = statistics.median(a[name]), statistics.median(b[name])
            lines.append(
                f"{workload:<24} {name:<22} {median_a:>12.6g} {median_b:>12.6g} "
                f"{median_b / median_a:>8.3f} {bound:>6.2f}  {state}  "
                f"[{unit}, {better} is better, base A, {len(a[name])} and {len(b[name])} runs]"
            )
    return lines, regressed


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, candidate = load_runs(argv[0]), load_runs(argv[1])
    settings = {json.dumps(run["header"]["settings"], sort_keys=True) for run in base + candidate}
    if len(settings) > 1:
        print(
            f"the runs were made with different settings and cannot be compared: {sorted(settings)}",
            file=sys.stderr,
        )
        return 2
    lines, regressed = compare(base, candidate, catalogue.load_contract())
    for key in ("git_sha", "seed"):
        print(
            f"{key}: A={sorted({run['header'][key] for run in base})}  "
            f"B={sorted({run['header'][key] for run in candidate})}"
        )
    calibration = [
        statistics.median(run["header"]["crypto.bigint.modexp2048_us"] for run in runs)
        for runs in (base, candidate)
    ]
    print(f"crypto.bigint.modexp2048_us (median): A={calibration[0]:.0f}  B={calibration[1]:.0f}")
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
