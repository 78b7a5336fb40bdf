"""Table and series formatting shared by the paper-figure scripts."""

from repro.bench.harness import ResultTable, SeriesPoint, format_seconds, series_to_table

__all__ = [
    "ResultTable",
    "SeriesPoint",
    "format_seconds",
    "series_to_table",
]
