"""Sample summaries: medians, quartiles, and the tail-percentile rule.

A timing is reported as its median plus the *highest* percentile that
still has at least ten samples beyond it — with 60 samples that is the
75th, with 110 the 90th, with fewer than 40 there is no tail to report.
"""

from __future__ import annotations

import math
import statistics

#: Tail percentiles a summary may report, lowest first.
TAIL_PERCENTILES = (75, 90, 95, 99)

#: A tail percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile of ``samples`` (``0 < p <= 100``)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie strictly beyond percentile ``p``."""
    return count - max(1, math.ceil(p / 100.0 * count)) if count else 0


def highest_supported_percentile(count: int) -> int | None:
    """The highest tail percentile with enough samples beyond it."""
    supported = [
        p for p in TAIL_PERCENTILES if samples_beyond(count, p) >= MIN_SAMPLES_BEYOND
    ]
    return supported[-1] if supported else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / median if median else math.inf


def summarize(samples: list[float]) -> dict:
    """Count, quartiles and the supported tail of one timing sample."""
    q1, median, q3 = quartiles(samples)
    summary = {"n": len(samples), "q1": q1, "median": median, "q3": q3}
    tail = highest_supported_percentile(len(samples))
    if tail is not None:
        summary["tail"] = {"p": tail, "value": percentile(samples, tail)}
    return summary
