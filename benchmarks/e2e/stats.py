"""Order statistics used by the benchmark: what a run reports, spreads and percentiles."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: The percentiles a latency report may quote, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: A percentile is quoted only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile distance as a share of the median (``None`` below 2 samples).

    The figure the driver computes over ten runs of one workload;
    ``compare.py`` takes it over each side's runs the same way.
    """
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else None


def _rank(count: int, pct: float) -> int:
    """Nearest rank, 1-based; the epsilon keeps 99.9 % of 10 000 at 9 990."""
    return max(1, math.ceil(pct * count / 100.0 - 1e-9))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; a sample of ``inf`` (a failed request) sorts last."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank ``pct``."""
    return count - _rank(count, pct)


def highest_percentile(count: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` with ≥ 10 of ``count`` samples beyond it."""
    best = None
    for pct in PERCENTILES:
        if samples_beyond(count, pct) >= MIN_SAMPLES_BEYOND:
            best = pct
    return best


def tail_report(samples: Sequence[float]) -> Tuple[Optional[float], Optional[float]]:
    """``(highest reportable percentile, its value)`` of a latency sample."""
    pct = highest_percentile(len(samples))
    return pct, (percentile(samples, pct) if pct is not None else None)


def typical(values: Sequence[float]) -> float:
    """What a run reports for one timing, given its value in every repetition.

    The mean of the faster half.  What is left after scaling to reference
    speed is one-sided — a stalled ``fsync``, a descheduled child — plus the
    calibration's own error, which is not; dropping the slower half removes
    the first and averaging the rest tames the second.
    """
    ordered = sorted(values)
    return statistics.mean(ordered[: (len(ordered) + 1) // 2])


def typical_by_key(rows: Sequence[dict]) -> dict:
    """:func:`typical` of every key over a list of ``{key: value}`` rows that share their keys."""
    return {key: typical([row[key] for row in rows]) for key in rows[0]}
