"""Formatting and aggregation helpers shared by the benchmark scripts.

The benchmarks print the same rows/series the paper's figures report; these
helpers keep that presentation uniform (a plain-text table per figure, with a
"paper" column next to the "measured" column where the paper states a
number).
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.spec import env


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sequence."""
    return statistics.median(values)


def format_seconds(seconds: float) -> str:
    """Human-readable duration (µs/ms/s/min/h/years as appropriate)."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} µs"
    if seconds < 1:
        return f"{seconds * 1e3:.1f} ms"
    if seconds < 120:
        return f"{seconds:.2f} s"
    if seconds < 7200:
        return f"{seconds / 60:.1f} min"
    if seconds < 86400 * 3:
        return f"{seconds / 3600:.1f} h"
    years = seconds / (365.25 * 86400)
    if years >= 1:
        return f"{years:,.0f} years"
    return f"{seconds / 86400:.1f} days"


@dataclass(frozen=True)
class SeriesPoint:
    """One point of a figure series (e.g. tally latency at a voter count)."""

    series: str
    x: float
    y: float
    extrapolated: bool = False


@dataclass
class ResultTable:
    """A simple fixed-width table printer for benchmark output."""

    title: str
    columns: List[str]
    rows: List[List[str]] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        self.rows.append([str(cell) for cell in cells])

    def render(self) -> str:
        widths = [len(column) for column in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(column.ljust(widths[index]) for index, column in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - console output
        print("\n" + self.render() + "\n")


def emit_bench_json(name: str, payload: Dict[str, object]) -> Optional[Path]:
    """Write machine-readable results to ``$REPRO_BENCH_JSON_DIR/BENCH_<name>.json``.

    CI sets ``REPRO_BENCH_JSON_DIR`` and uploads the resulting files as build
    artifacts, so perf regressions are diagnosable from numbers rather than
    captured stdout.  A no-op (returning ``None``) when the variable is
    unset, so local runs and plain pytest invocations stay side-effect free.
    """
    directory = env("REPRO_BENCH_JSON_DIR")
    if not directory:
        return None
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    path = target / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
    return path


def format_speedup(baseline_seconds: float, value_seconds: float) -> str:
    """Render ``baseline/value`` as a speedup factor (e.g. ``3.2x``)."""
    if value_seconds <= 0:
        return "-"
    return f"{baseline_seconds / value_seconds:.2f}x"


def speedup_table(
    title: str,
    baseline_label: str,
    timings: "Dict[str, float]",
) -> ResultTable:
    """A table of wall-clock timings with a speedup column vs. a baseline.

    ``timings`` maps a configuration label (e.g. ``"process:4"``) to wall
    seconds; the entry named ``baseline_label`` anchors the speedup column.
    """
    baseline = timings[baseline_label]
    table = ResultTable(title=title, columns=["backend", "wall clock", "speedup"])
    for label, seconds in timings.items():
        table.add_row(label, format_seconds(seconds), format_speedup(baseline, seconds))
    return table


def series_to_table(title: str, points: Iterable[SeriesPoint], x_label: str = "voters") -> ResultTable:
    """Pivot a list of series points into a table with one column per series."""
    by_series: Dict[str, Dict[float, SeriesPoint]] = {}
    xs: List[float] = []
    for point in points:
        by_series.setdefault(point.series, {})[point.x] = point
        if point.x not in xs:
            xs.append(point.x)
    xs.sort()
    table = ResultTable(title=title, columns=[x_label] + list(by_series))
    for x in xs:
        row = [f"{int(x):,}"]
        for series in by_series:
            point = by_series[series].get(x)
            if point is None:
                row.append("-")
            else:
                suffix = " *" if point.extrapolated else ""
                row.append(format_seconds(point.y) + suffix)
        table.add_row(*row)
    return table
