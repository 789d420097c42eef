"""Figure 5 reproduction: accuracy-per-iteration and Hamming-distance data.

Figure 5 of the paper has three panels per problem size (49, 400, 1024 nodes):

* (a) the 4-coloring accuracy of each of the 40 iterations,
* (b) the 1st-stage max-cut accuracy of each iteration,
* (c) a histogram of the pairwise Hamming distances between the 40 solutions.

:func:`run_figure5` produces all three series per problem and
:func:`render_figure5` prints them in the layout of the figure.  Solves are
planned as runtime jobs (``plan_figure5_requests``) and executed through
:meth:`repro.runtime.runner.ExperimentRunner.solve_many`, so a multi-worker
runner shards the three problems across processes and a cache-backed runner
skips sizes Table 1 already solved under the same seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.reporting import accuracy_series_text, text_histogram
from repro.core.config import MSROPMConfig
from repro.experiments.problems import (
    FIGURE5_SIZES,
    default_config,
    scaled_iterations,
    scaled_problem,
    scaled_spec,
)
from repro.runtime.runner import ExperimentRunner, SolveRequest


@dataclass
class Figure5Series:
    """The Figure 5 data for one problem size."""

    problem_name: str
    num_nodes: int
    coloring_accuracies: np.ndarray
    maxcut_accuracies: np.ndarray
    hamming_distances: np.ndarray
    stage_correlation: float

    @property
    def best_accuracy(self) -> float:
        """Best 4-coloring accuracy across the iterations."""
        return float(self.coloring_accuracies.max())

    @property
    def mean_accuracy(self) -> float:
        """Mean 4-coloring accuracy across the iterations."""
        return float(self.coloring_accuracies.mean())


@dataclass
class Figure5Result:
    """Figure 5 data for every problem size."""

    series: List[Figure5Series] = field(default_factory=list)

    def by_size(self, num_nodes: int) -> Figure5Series:
        """Return the series for a given (requested) problem size."""
        for series in self.series:
            if series.num_nodes == num_nodes or series.problem_name.startswith(str(num_nodes)):
                return series
        raise KeyError(f"no series for problem size {num_nodes}")


def plan_figure5_requests(
    sizes: Sequence[int] = FIGURE5_SIZES,
    iterations: Optional[int] = None,
    scale: float = 1.0,
    config: Optional[MSROPMConfig] = None,
    seed: int = 2025,
    engine: Optional[str] = None,
    precision: Optional[str] = None,
) -> List[SolveRequest]:
    """The solve requests Figure 5 schedules: one per plotted problem size.

    Seeds follow Table 1's ``seed + requested_size`` convention, so the
    overlapping sizes (49/400/1024) hash to the *same* jobs as Table 1's and
    resolve from cache when both experiments run in one suite.
    """
    config = config or default_config(seed)
    if engine is not None:
        config = config.with_updates(engine=engine)
    if precision is not None:
        config = config.with_updates(precision=precision)
    iterations = iterations if iterations is not None else scaled_iterations(scale)
    return [
        SolveRequest(
            spec=scaled_spec(requested_size, scale=scale),
            config=config,
            iterations=iterations,
            seed=seed + requested_size,
        )
        for requested_size in sizes
    ]


def run_figure5(
    sizes: Sequence[int] = FIGURE5_SIZES,
    iterations: Optional[int] = None,
    scale: float = 1.0,
    config: Optional[MSROPMConfig] = None,
    seed: int = 2025,
    engine: Optional[str] = None,
    precision: Optional[str] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Figure5Result:
    """Run the Figure 5 experiment (optionally scaled down) and collect the data.

    ``engine`` selects the replica engine for the per-problem solves
    (``None`` keeps the config's engine, batched by default); ``precision``
    the tier; ``runner`` supplies the execution runtime (``None`` = serial,
    uncached).
    """
    runner = runner or ExperimentRunner()
    requests = plan_figure5_requests(
        sizes=sizes,
        iterations=iterations,
        scale=scale,
        config=config,
        seed=seed,
        engine=engine,
        precision=precision,
    )
    solves = runner.solve_many(requests)
    result = Figure5Result()
    for requested_size, solve in zip(sizes, solves):
        problem = scaled_problem(requested_size, scale=scale)
        result.series.append(
            Figure5Series(
                problem_name=f"{requested_size}-node",
                num_nodes=problem.num_nodes,
                coloring_accuracies=solve.accuracies,
                maxcut_accuracies=solve.stage1_accuracies,
                hamming_distances=solve.hamming_distances(),
                stage_correlation=solve.stage_correlation(),
            )
        )
    return result


def render_figure5(result: Figure5Result) -> str:
    """Render the Figure 5 data (all three panels) as text."""
    blocks: List[str] = []
    blocks.append("Figure 5(a): 4-coloring accuracy per iteration")
    for series in result.series:
        blocks.append(accuracy_series_text(series.coloring_accuracies, label=f"  {series.problem_name}"))
    blocks.append("")
    blocks.append("Figure 5(b): 1st-stage max-cut accuracy per iteration")
    for series in result.series:
        blocks.append(accuracy_series_text(series.maxcut_accuracies, label=f"  {series.problem_name}"))
    blocks.append("")
    blocks.append("Figure 5(c): pairwise Hamming distances between solutions")
    for series in result.series:
        blocks.append(
            text_histogram(
                series.hamming_distances,
                num_bins=10,
                value_range=(0.0, 1.0),
                label=f"  {series.problem_name}",
            )
        )
    blocks.append("")
    blocks.append("Stage-1 vs final accuracy correlation (positive per the paper):")
    for series in result.series:
        blocks.append(f"  {series.problem_name}: {series.stage_correlation:+.3f}")
    return "\n".join(blocks)
