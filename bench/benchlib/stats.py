"""Percentiles with a sample-count rule, and spread summaries.

A percentile is only reported when at least :data:`MIN_BEYOND` samples
lie beyond it: p95 needs 200 samples, p99 needs 1000.  A tail estimate
resting on fewer samples moves with every run and would make any
regression bound meaningless.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, Dict, List, Optional, Sequence

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The requested percentile has fewer than MIN_BEYOND samples beyond it."""


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    return int(math.floor(count * (100.0 - q) / 100.0 + 1e-9))


def min_samples(q: float) -> int:
    """Smallest sample count for which the ``q``-th percentile is reportable."""
    return int(math.ceil(MIN_BEYOND * 100.0 / (100.0 - q) - 1e-9))


def highest_percentile(count: int, q: float) -> Optional[float]:
    """``q``, or the highest percentile below it that has :data:`MIN_BEYOND`
    of ``count`` samples beyond it; None when not even the median has."""
    highest = min(q, 100.0 - MIN_BEYOND * 100.0 / count) if count else 0.0
    return highest if highest >= 50.0 else None


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation between order statistics).

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples lie beyond it.  The median (q=50) needs 20 samples.
    """
    count = len(values)
    if samples_beyond(count, q) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {count} samples has {samples_beyond(count, q)} beyond it; "
            f"need {MIN_BEYOND} (at least {min_samples(q)} samples)"
        )
    ordered = sorted(values)
    rank = (count - 1) * q / 100.0
    low = int(math.floor(rank))
    high = min(low + 1, count - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


CHUNK = 200


def chunks(values: Sequence[float], size: int = CHUNK) -> List[List[float]]:
    """Consecutive chunks of at least ``size`` values (one chunk if fewer)."""
    count = max(1, len(values) // size)
    bounds = [round(i * len(values) / count) for i in range(count + 1)]
    return [list(values[bounds[i]:bounds[i + 1]]) for i in range(count)]


def chunked(values: Sequence[float], statistic: Callable[[List[float]], float],
            size: int = CHUNK) -> List[float]:
    """``statistic`` of each consecutive chunk of ``values`` (see :func:`chunks`).

    The median of these is the reported value: on a shared machine a
    burst of interference slows a stretch of consecutive operations,
    which moves a pooled percentile but only a minority of chunks.
    """
    return [statistic(chunk) for chunk in chunks(values, size) if chunk]


def median(values: Sequence[float]) -> float:
    """Plain median, for repeat summaries where the percentile rule does
    not apply (a handful of per-seed or per-setup values)."""
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def p50(values: Sequence[float]) -> float:
    """Median under the sample rule; a plain median for the few samples
    of a smoke run; 0 when there are none (a layer that never ran)."""
    if not values:
        return 0.0
    try:
        return percentile(values, 50)
    except TooFewSamples:
        return median(values)


def tail(values: Sequence[float], q: float) -> float:
    """The q-th percentile, or the maximum when too few samples support it."""
    if not values:
        return 0.0
    try:
        return percentile(values, q)
    except TooFewSamples:
        return max(values)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def latency_metrics(values_ms: Sequence[float]):
    """``p50_ms`` and ``p95_ms``: the median over chunks of each chunk's
    percentile, with their spread over the chunks.

    A chunk holds at least 200 operations, enough for its p95.  On a
    shared host the median of chunk p95s usually spread less from run to
    run than the p95 of the pooled run: a burst of interference fills
    the tail of the chunks it hits, not of the others.
    """
    per_chunk = {
        "p50_ms": chunked(values_ms, p50),
        "p95_ms": chunked(values_ms, lambda chunk: tail(chunk, 95)),
    }
    return (
        {name: median(values) for name, values in per_chunk.items()},
        {name: spread(values) for name, values in per_chunk.items()},
    )


def spread(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """min / quartiles / median / max / IQR of repeated measurements.

    Quartiles follow :func:`statistics.quantiles` (its default
    "exclusive" method), the same rule ``bench/compare.py`` applies.
    With one value the quartiles collapse onto it.
    """
    values = [float(v) for v in values]
    if not values:
        return {"n": 0, "min": None, "q1": None, "median": None, "q3": None,
                "max": None, "iqr": None}
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "min": min(values),
        "q1": q1,
        "median": float(statistics.median(values)),
        "q3": q3,
        "max": max(values),
        "iqr": q3 - q1,
    }

