"""Formatting helpers shared by the paper-figure scripts.

The scripts print the same rows/series the paper's figures report; these
helpers keep that presentation uniform (a plain-text table per figure, with a
"paper" column next to the "measured" column where the paper states a
number).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List


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
