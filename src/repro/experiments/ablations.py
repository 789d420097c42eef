"""Design-choice ablations (not a paper table, but the paper's stated trade-offs).

Section 2.3 and Section 4.1 of the paper describe the design parameters that
were tuned empirically: coupling strength (too strong halts the oscillation),
SHIL strength (too weak fails to discretize, too strong deforms waveforms),
and the per-stage annealing time (20 ns was "empirically determined to be
enough").  These ablations quantify those trade-offs on the 49-node benchmark
using the sweep harness, and additionally compare the multi-stage 2-SHIL
approach against the single-stage N-SHIL architecture on the same instance —
the paper's central architectural claim.

Every sweep accepts a ``runner`` (:class:`repro.runtime.runner.ExperimentRunner`)
and forwards it to :mod:`repro.analysis.sweep`, which expands the grid into
runtime solve jobs — so ablations shard across worker processes and reuse the
result cache like every other experiment.  ``None`` keeps the serial,
uncached behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.analysis.sweep import (
    SweepResult,
    annealing_time_sweep,
    coupling_strength_sweep,
    shil_strength_sweep,
)
from repro.baselines.single_stage_ropm import SingleStageROPM
from repro.core.config import MSROPMConfig
from repro.experiments.problems import default_config
from repro.graphs.generators import kings_graph
from repro.units import ns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runner import ExperimentRunner


@dataclass
class MultiVsSingleStageResult:
    """Accuracy of the multi-stage MSROPM vs the single-stage N-SHIL ROPM."""

    multi_stage_accuracies: np.ndarray
    single_stage_accuracies: np.ndarray

    @property
    def multi_stage_mean(self) -> float:
        """Mean accuracy of the multi-stage machine."""
        return float(self.multi_stage_accuracies.mean())

    @property
    def single_stage_mean(self) -> float:
        """Mean accuracy of the single-stage machine."""
        return float(self.single_stage_accuracies.mean())

    @property
    def advantage(self) -> float:
        """Mean-accuracy advantage of the multi-stage approach."""
        return self.multi_stage_mean - self.single_stage_mean


def run_coupling_ablation(
    rows: int = 7,
    strengths: Sequence[float] = (0.02, 0.05, 0.1, 0.2, 0.4),
    iterations: int = 5,
    config: Optional[MSROPMConfig] = None,
    seed: int = 11,
    runner: Optional["ExperimentRunner"] = None,
) -> SweepResult:
    """Sweep the B2B coupling strength on a ``rows x rows`` King's graph."""
    graph = kings_graph(rows, rows)
    return coupling_strength_sweep(
        graph,
        strengths,
        base_config=config or default_config(seed),
        iterations=iterations,
        seed=seed,
        runner=runner,
    )


def run_shil_ablation(
    rows: int = 7,
    strengths: Sequence[float] = (0.05, 0.1, 0.25, 0.5, 0.9),
    iterations: int = 5,
    config: Optional[MSROPMConfig] = None,
    seed: int = 12,
    runner: Optional["ExperimentRunner"] = None,
) -> SweepResult:
    """Sweep the SHIL injection strength on a ``rows x rows`` King's graph."""
    graph = kings_graph(rows, rows)
    return shil_strength_sweep(
        graph,
        strengths,
        base_config=config or default_config(seed),
        iterations=iterations,
        seed=seed,
        runner=runner,
    )


def run_annealing_time_ablation(
    rows: int = 7,
    annealing_times_ns: Sequence[float] = (2.0, 5.0, 10.0, 20.0, 40.0),
    iterations: int = 5,
    config: Optional[MSROPMConfig] = None,
    seed: int = 13,
    runner: Optional["ExperimentRunner"] = None,
) -> SweepResult:
    """Sweep the per-stage annealing duration (the paper's empirically chosen 20 ns)."""
    graph = kings_graph(rows, rows)
    times = [ns(value) for value in annealing_times_ns]
    return annealing_time_sweep(
        graph,
        times,
        base_config=config or default_config(seed),
        iterations=iterations,
        seed=seed,
        runner=runner,
    )


def run_detuning_ablation(
    rows: int = 7,
    detuning_stds: Sequence[float] = (0.0, 0.005, 0.01, 0.02, 0.05),
    iterations: int = 5,
    config: Optional[MSROPMConfig] = None,
    seed: int = 15,
    runner: Optional["ExperimentRunner"] = None,
):
    """Ablation: robustness to static oscillator frequency mismatch (process variation).

    The paper simulates identical oscillators; real 65 nm rings spread by a few
    per-mill to a few per-cent.  Injection locking tolerates mismatch only up
    to its locking range, so the accuracy should be flat for small mismatch and
    degrade once the detuning becomes comparable to the SHIL/coupling rates.
    """
    from repro.analysis.sweep import sweep_configuration

    graph = kings_graph(rows, rows)
    base = config or default_config(seed)
    return sweep_configuration(
        graph,
        base,
        {"frequency_detuning_std": list(detuning_stds)},
        iterations=iterations,
        seed=seed,
        runner=runner,
    )


def run_multi_vs_single_stage(
    rows: int = 7,
    iterations: int = 10,
    config: Optional[MSROPMConfig] = None,
    seed: int = 14,
    runner: Optional["ExperimentRunner"] = None,
) -> MultiVsSingleStageResult:
    """Compare 4-coloring via 2 stages (MSROPM) against 4-coloring via one 4-SHIL stage.

    The single-stage machine must discretize phases at 4 points in one shot
    (a 4th-order SHIL); the paper argues the multi-stage decomposition reaches
    higher accuracy because each stage only needs robust binary discrimination.
    """
    from repro.runtime.runner import ExperimentRunner

    graph = kings_graph(rows, rows)
    config = config or default_config(seed)
    runner = runner or ExperimentRunner()
    multi = runner.solve(graph, config, iterations=iterations, seed=seed)
    single = SingleStageROPM(graph, num_colors=4, config=config).solve(iterations=iterations, seed=seed)
    return MultiVsSingleStageResult(
        multi_stage_accuracies=multi.accuracies,
        single_stage_accuracies=single.accuracies,
    )
