"""``python -m repro.telemetry`` — offline trace tooling.

Three subcommands over a trace written by the ``jsonl:<path>`` telemetry
spec:

- ``summarize <trace.jsonl>`` — span tree with self/total times, top-N
  self-time hotspots, slowest traces, and a Prometheus-style metrics block.
- ``trace <trace.jsonl> <trace_id>`` — the waterfall for one trace
  (``trace_id`` may be a unique prefix).
- ``slowest <trace.jsonl> [N]`` — the N slowest traces by end-to-end
  duration, with the trace IDs to feed back into ``trace``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.telemetry.snapshot import TelemetrySnapshot


def summarize(path: str, top: int = 10) -> str:
    snapshot = TelemetrySnapshot.from_jsonl(path)
    header = f"Trace {path}: "
    return header + snapshot.summary(top=top)


def waterfall(path: str, trace_id: str, width: int = 48) -> str:
    snapshot = TelemetrySnapshot.from_jsonl(path)
    return snapshot.render_waterfall(trace_id, width=width)


def slowest(path: str, top: int = 10) -> str:
    ranked = TelemetrySnapshot.from_jsonl(path).render_slowest(top=top)
    if not ranked:
        return "no traces (spans carry no trace_id — trace written before tracing?)"
    hint = "Render one: python -m repro.telemetry trace <trace.jsonl> <trace_id>"
    return f"Trace {path}: {ranked}\n\n{hint}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Offline tooling for repro telemetry traces.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    summarize_cmd = commands.add_parser(
        "summarize", help="render a span tree, hotspots, and metrics from a JSONL trace"
    )
    summarize_cmd.add_argument("trace", help="path to a trace written by the jsonl:<path> spec")
    summarize_cmd.add_argument(
        "--top", type=int, default=10, help="number of self-time hotspots to list (default 10)"
    )

    trace_cmd = commands.add_parser(
        "trace", help="render the waterfall for one trace_id (unique prefixes accepted)"
    )
    trace_cmd.add_argument("trace", help="path to a trace written by the jsonl:<path> spec")
    trace_cmd.add_argument("trace_id", help="32-hex trace ID (or a unique prefix)")
    trace_cmd.add_argument(
        "--width", type=int, default=48, help="bar width in characters (default 48)"
    )

    slowest_cmd = commands.add_parser(
        "slowest", help="list the N slowest traces by end-to-end duration"
    )
    slowest_cmd.add_argument("trace", help="path to a trace written by the jsonl:<path> spec")
    slowest_cmd.add_argument(
        "top", type=int, nargs="?", default=10, help="how many traces to list (default 10)"
    )

    options = parser.parse_args(argv)
    if not os.path.exists(options.trace):
        print(f"no such trace file: {options.trace}", file=sys.stderr)
        return 2

    if options.command == "summarize":
        print(summarize(options.trace, top=options.top))
        return 0
    if options.command == "trace":
        print(waterfall(options.trace, options.trace_id, width=options.width))
        return 0
    if options.command == "slowest":
        print(slowest(options.trace, top=options.top))
        return 0
    parser.error(f"unknown command {options.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
