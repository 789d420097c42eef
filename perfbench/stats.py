"""Summary statistics of the benchmark: medians, spreads and the tail rule."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Percentiles the latency tail is chosen from, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (the ``inclusive`` method) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(
    values: Sequence[float], candidates: Sequence[float] = TAIL_CANDIDATES, min_beyond: int = MIN_BEYOND
) -> Optional[Tuple[float, float]]:
    """The highest candidate percentile with at least ``min_beyond`` samples
    strictly above its value, as ``(percentile, value)``; ``None`` when even
    the lowest candidate has too few samples beyond it."""
    for pct in sorted(candidates, reverse=True):
        if not values:
            break
        value = percentile(values, pct)
        if sum(1 for sample in values if sample > value) >= min_beyond:
            return pct, value
    return None


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and spread (interquartile range over the median).

    The quartiles are those of ``statistics.quantiles(values, n=4)``; a single
    sample has zero spread.
    """
    if not values:
        raise ValueError("summary of an empty sample")
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}
