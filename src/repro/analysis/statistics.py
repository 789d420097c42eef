"""Iteration statistics: accuracy distributions, success probabilities, time-to-solution.

These are the aggregate quantities the paper's evaluation reports on top of
raw per-iteration accuracies: best/average accuracy (Table 1), exact-solution
counts (e.g. "6 times among 40 iterations" for the 49-node problem), and the
time-to-solution metrics customary for probabilistic solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.exceptions import AnalysisError
from repro.core.results import SolveResult


@dataclass(frozen=True)
class IterationStatistics:
    """Summary statistics of a multi-iteration experiment."""

    num_iterations: int
    best_accuracy: float
    worst_accuracy: float
    mean_accuracy: float
    std_accuracy: float
    num_exact: int
    success_probability: float

    @classmethod
    def from_result(cls, result: SolveResult, exact_threshold: float = 1.0) -> "IterationStatistics":
        """Build statistics from a :class:`SolveResult`."""
        accuracies = result.accuracies
        exact = int(np.sum(accuracies >= exact_threshold - 1e-12))
        return cls(
            num_iterations=result.num_iterations,
            best_accuracy=float(accuracies.max()),
            worst_accuracy=float(accuracies.min()),
            mean_accuracy=float(accuracies.mean()),
            std_accuracy=float(accuracies.std()),
            num_exact=exact,
            success_probability=exact / result.num_iterations,
        )

    def as_dict(self) -> Dict[str, float]:
        """Return the statistics as a flat dictionary (for reports)."""
        return {
            "iterations": self.num_iterations,
            "best": self.best_accuracy,
            "worst": self.worst_accuracy,
            "mean": self.mean_accuracy,
            "std": self.std_accuracy,
            "exact": self.num_exact,
            "success_probability": self.success_probability,
        }


def time_to_solution(
    single_run_time: float,
    success_probability: float,
    target_confidence: float = 0.99,
) -> float:
    """Expected time to reach a success with the usual TTS formula.

    ``TTS = t_run * ln(1 - confidence) / ln(1 - p_success)``; returns infinity
    when no run succeeded and ``t_run`` when every run succeeds.
    """
    if single_run_time < 0:
        raise AnalysisError("single_run_time must be non-negative")
    if not 0.0 < target_confidence < 1.0:
        raise AnalysisError("target_confidence must be in (0, 1)")
    if success_probability <= 0.0:
        return float("inf")
    if success_probability >= 1.0:
        return single_run_time
    repeats = np.log(1.0 - target_confidence) / np.log(1.0 - success_probability)
    return float(single_run_time * max(1.0, repeats))
