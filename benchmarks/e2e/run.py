"""One command for the whole stack's benchmark.

    python3 benchmarks/e2e/run.py --seed 1                       # all five workloads
    python3 benchmarks/e2e/run.py --seed 1 --workload cast_bulk  # one of them
    python3 benchmarks/e2e/run.py --seed 1 --trace --out run.json

Every run checks what the program produced before it reports a number and
exits non-zero if a check fails.  The last line of standard output is one
JSON object: for a single workload, the contract the driver reads
(``correct``, ``attempted``, ``failed``, ``metrics``); see README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import catalogue
import harness

#: ``--smoke`` measures for this long where the driver's ``--seconds`` is not given.
SMOKE_SECONDS = 0.4

#: A run holds at least this many repetitions (so ``setup_s`` is the median of
#: at least as many set-ups), or one per half with ``--trace`` and ``--smoke``.
MIN_REPETITIONS = 3


def parse_args(argv: Optional[List[str]], contract: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=catalogue.WORKLOADS,
        help="run this workload (repeatable; default: all five)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seeds every generated input")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long each workload measures; the driver passes BENCHMARK.json's "
        f"run_seconds, which is also the default ({contract['run_seconds']})",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="measure half the time untraced and half with the benchmark's "
        "wrappers installed; report the per-layer metrics",
    )
    parser.add_argument("--out", help="write header, every metric and the spans to this JSON file")
    parser.add_argument(
        "--smoke", action="store_true",
        help="toy sizes, a fraction of a second each: exercises every path, measures nothing",
    )
    parser.add_argument(
        "--corrupt", action="store_true",
        help="self-test: forge one ballot signature on the synthetic boards; the run must fail",
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(contract["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.workload = args.workload or list(catalogue.WORKLOADS)
    return args


def run_workload(name: str, args: argparse.Namespace, contract: dict, modexp_us: float) -> dict:
    """Set up, measure and check one workload; returns everything it found."""
    from spans import Tracer, to_json
    from workloads import WORKLOAD_CLASSES, measure

    sizes = catalogue.sizes_for(name, args.smoke)
    seconds = args.seconds / 2 if args.trace else args.seconds
    min_repetitions = 1 if (args.trace or args.smoke) else MIN_REPETITIONS
    with harness.scratch_directory() as scratch:
        workload = WORKLOAD_CLASSES[name](sizes, args.seed, scratch, corrupt=args.corrupt)
        untraced = measure(workload, seconds, min_repetitions, None, probe=not args.smoke)
        traced = None
        origin = time.perf_counter()
        if args.trace:
            traced = measure(workload, seconds, min_repetitions, Tracer(), probe=not args.smoke)

    end_to_end = {key: untraced.phases[key] for key in catalogue.UNIVERSAL_PHASES + ("setup_s",)}
    end_to_end["peak_rss_mb"] = harness.peak_rss_mb()

    def named(timings: Dict[str, float]) -> Dict[str, float]:
        return {
            metric.name: timings[metric.name]
            for metric in catalogue.PHASE_METRICS
            if name in metric.workloads
        }

    halves = [untraced] + ([traced] if traced is not None else [])
    result = {
        "sizes": sizes,
        "end_to_end": end_to_end,
        "phases": named(untraced.phases),
        "repetitions": untraced.repetitions,
        "notes": untraced.notes,
        "attempted": sum(half.attempted for half in halves),
        "failed": sum(half.failed for half in halves),
        "problems": [problem for half in halves for problem in half.problems],
    }
    if traced is not None:
        per_layer = {metric["name"]: 0.0 for metric in contract["per_layer"]}
        per_layer.update(traced.layers)
        # The traced half's own phase times, so the layer times beside them add up.
        per_layer.update(named(traced.chosen))
        per_layer["crypto.bigint.modexp2048_us"] = modexp_us
        per_layer["trace_overhead_ratio"] = traced.phases["wall_s"] / untraced.phases["wall_s"]
        unknown = sorted(set(per_layer) - set(catalogue.per_layer_names(contract)))
        if unknown:
            raise harness.BenchmarkError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        result["per_layer"] = per_layer
        result["spans"] = to_json(traced.spans, origin)
    return result


def contract_line(result: dict, contract: dict, trace: bool) -> str:
    """The driver's one-line JSON: end-to-end metrics untraced, per-layer traced."""
    declared = contract["per_layer"] if trace else contract["end_to_end"]
    values = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps(
        {
            "correct": not result["problems"],
            "attempted": max(1, result["attempted"]),
            "failed": result["failed"],
            "metrics": {
                metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                for metric in declared
            },
        }
    )


def print_result(name: str, result: dict, contract: dict) -> None:
    units = {metric["name"]: metric["unit"] for section in ("end_to_end", "per_layer")
             for metric in contract[section]}
    print(f"\n== {name}  ({len(result['repetitions'])} repetitions, sizes {json.dumps(result['sizes'])})")
    harness.print_metrics(
        "end to end:",
        [(key, value, units[key]) for key, value in {**result["end_to_end"], **result["phases"]}.items()]
        + [("failed_share", result["failed"] / max(1, result["attempted"]), "share")],
    )
    notes = result["notes"]
    if notes.get("highest_percentile") is not None:
        print(
            f"  highest percentile with >= 10 of {notes['samples']} samples beyond it: "
            f"p{notes['highest_percentile']:g} = {notes['highest_percentile_ms']:.3f} ms"
        )
    if "per_layer" in result:
        harness.print_metrics(
            "per layer (traced half):",
            [(key, value, units[key]) for key, value in result["per_layer"].items()],
        )
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    try:
        contract = catalogue.load_contract()
        args = parse_args(argv, contract)
        environment = {**harness.pin_environment(), "sqlite_synchronous": "off"}
    except (OSError, ValueError, harness.BenchmarkError) as error:
        print(f"benchmark cannot start: {error}", file=sys.stderr)
        return 2
    harness.raise_on_sigterm()
    harness.skip_sqlite_fsync()

    modexp_us = harness.calibrate_modexp2048_us(samples=3 if args.smoke else 20)
    try:
        if len(args.workload) == 1:
            (name,) = args.workload
            results = {name: run_workload(name, args, contract, modexp_us)}
            print_result(name, results[name], contract)
        else:
            results = run_each_in_a_child(args)
    except harness.BenchmarkError as error:
        print(f"benchmark invalid: {error}", file=sys.stderr)
        return 3

    if args.out:
        header = harness.run_header(
            args.seed, environment, modexp_us,
            {name: result["sizes"] for name, result in results.items()},
            {"seconds": args.seconds, "trace": args.trace, "smoke": args.smoke},
        )
        with open(args.out, "w") as handle:
            json.dump({"header": header, "workloads": results}, handle, indent=1)
            handle.write("\n")

    correct = all(not result["problems"] for result in results.values())
    if len(results) == 1:
        (result,) = results.values()
        print(contract_line(result, contract, bool(args.trace)))
    else:
        print(json.dumps({
            "correct": correct,
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "workloads": {name: result["end_to_end"] for name, result in results.items()},
        }))
    return 0 if correct else 1


def run_each_in_a_child(args: argparse.Namespace) -> Dict[str, dict]:
    """Several workloads: one process each, as the driver runs them.

    ``peak_rss_mb`` is a high-water mark of the process, and fixed-base tables
    and group singletons outlive a workload; a process of its own keeps one
    workload's numbers out of the next one's.
    """
    results: Dict[str, dict] = {}
    with harness.scratch_directory() as scratch:
        for name in args.workload:
            out = Path(scratch, f"{name}.json")
            command = [
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
            ]
            command += ["--smoke"] if args.smoke else []
            command += ["--corrupt"] if args.corrupt else []
            child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
            try:
                stdout, _ = child.communicate()
            finally:
                harness.terminate(child)
            # Everything but the child's own contract line.
            print("\n".join(stdout.splitlines()[:-1]), flush=True)
            if child.returncode not in (0, 1):
                raise harness.BenchmarkError(f"workload {name} exited {child.returncode}")
            results[name] = json.loads(out.read_text())["workloads"][name]
    return results


if __name__ == "__main__":
    sys.exit(main())
