"""Percentiles and spreads over latency samples.

Percentiles use the nearest-rank rule on the sorted samples.  A tail
percentile is only reported when at least :data:`MIN_BEYOND` samples lie
beyond it, so a "p99" never rests on one or two outliers.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile (``0 < q <= 1``) of sorted values.

    The rank is ``ceil(q * n)`` (1-based), so ``q = 0.5`` over ten
    samples is the fifth smallest and ``q = 1`` is the maximum.
    """
    if not sorted_values:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q`` nearest rank."""
    return count - max(1, math.ceil(q * count))


def tail(sorted_values: Sequence[float], q: float) -> float | None:
    """The ``q`` percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if beyond(len(sorted_values), q) < MIN_BEYOND:
        return None
    return nearest_rank(sorted_values, q)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)
