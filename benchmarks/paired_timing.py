"""Interleaved A/B timing for the benchmark speed gates.

A gate such as "the throughput tier runs at least 2.5x the exact tier" is a
ratio of two timings.  Taken as two best-of-N blocks, one after the other, a
burst of load from another process during one block moves one side only,
and the gate flakes.  Here every round times the baseline and each candidate
back to back, with the order reversed on alternate rounds, so a burst either
lands inside one round's pair or on few rounds.  A gate reads the median of
the per-round ratios; the summary also carries the quartiles and a seeded
percentile-bootstrap interval of that median.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

#: Rounds of interleaved timings behind each gated ratio (odd: a true median).
PAIRED_ROUNDS = 9


def interleaved_times(
    callables: Mapping[str, Callable[[], object]], rounds: int = PAIRED_ROUNDS
) -> Tuple[Dict[str, object], Dict[str, List[float]]]:
    """Call every callable once per round and time each call.

    Even rounds run the callables in mapping order, odd rounds in reverse, so
    no callable always runs first (cold caches) or last.  Returns the last
    result of each callable and its per-round wall times in seconds.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    names = list(callables)
    results: Dict[str, object] = {}
    times: Dict[str, List[float]] = {name: [] for name in names}
    for index in range(rounds):
        for name in names if index % 2 == 0 else names[::-1]:
            start = time.perf_counter()
            results[name] = callables[name]()
            times[name].append(time.perf_counter() - start)
    return results, times


def paired_speedups(baseline_s: Sequence[float], candidate_s: Sequence[float]) -> List[float]:
    """Per-round ``baseline / candidate`` ratios of two interleaved series."""
    if len(baseline_s) != len(candidate_s):
        raise ValueError(
            f"paired series differ in length: {len(baseline_s)} vs {len(candidate_s)}"
        )
    return [base / candidate for base, candidate in zip(baseline_s, candidate_s)]


def ratio_summary(
    ratios: Sequence[float], confidence: float = 0.95, samples: int = 2000, seed: int = 0
) -> Dict[str, object]:
    """Median, quartiles and a seeded percentile-bootstrap CI of the median."""
    values = np.asarray(ratios, dtype=float)
    if values.size == 0:
        raise ValueError("ratio_summary needs at least one ratio")
    draws = np.random.default_rng(seed).integers(0, values.size, size=(samples, values.size))
    medians = np.median(values[draws], axis=1)
    tail = (1.0 - confidence) / 2.0
    low, high = np.quantile(medians, [tail, 1.0 - tail])
    q1, median, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    return {
        "median": round(float(median), 3),
        "q1": round(float(q1), 3),
        "q3": round(float(q3), 3),
        "ci": [round(float(low), 3), round(float(high), 3)],
        "confidence": confidence,
        "rounds": int(values.size),
    }
