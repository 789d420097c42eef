"""Experiment harness: one module per paper table/figure, plus ablations."""

from repro.experiments.problems import (
    FIGURE5_SIZES,
    PAPER_ITERATIONS,
    TABLE1_SIZES,
    BenchmarkProblem,
    default_config,
    scaled_iterations,
    scaled_problem,
)
from repro.experiments.fig3_waveforms import Figure3Result, render_figure3, run_figure3
from repro.experiments.fig5_accuracy import (
    Figure5Result,
    Figure5Series,
    plan_figure5_requests,
    render_figure5,
    run_figure5,
)
from repro.experiments.table1_stats import (
    Table1Result,
    Table1Row,
    plan_table1_requests,
    power_scaling_series,
    run_table1,
)
from repro.experiments.table2_comparison import Table2Result, plan_table2_requests, run_table2
from repro.experiments.scenario_matrix import (
    SCENARIO_BASELINES,
    ScenarioMatrixResult,
    ScenarioRow,
    plan_scenario_requests,
    run_scenario_matrix,
)
from repro.experiments.suite import SuiteResult
from repro.experiments.energy_landscape import (
    EnergyLandscapeResult,
    IntervalTrace,
    render_energy_landscape,
    run_energy_landscape,
)
from repro.experiments.ablations import (
    MultiVsSingleStageResult,
    run_annealing_time_ablation,
    run_coupling_ablation,
    run_detuning_ablation,
    run_multi_vs_single_stage,
    run_shil_ablation,
)

__all__ = [
    "BenchmarkProblem",
    "scaled_problem",
    "scaled_iterations",
    "default_config",
    "PAPER_ITERATIONS",
    "TABLE1_SIZES",
    "FIGURE5_SIZES",
    "Figure3Result",
    "run_figure3",
    "render_figure3",
    "Figure5Result",
    "Figure5Series",
    "run_figure5",
    "render_figure5",
    "Table1Result",
    "Table1Row",
    "run_table1",
    "power_scaling_series",
    "Table2Result",
    "run_table2",
    "plan_table1_requests",
    "plan_table2_requests",
    "plan_figure5_requests",
    "SuiteResult",
    "SCENARIO_BASELINES",
    "ScenarioMatrixResult",
    "ScenarioRow",
    "plan_scenario_requests",
    "run_scenario_matrix",
    "MultiVsSingleStageResult",
    "run_coupling_ablation",
    "run_shil_ablation",
    "run_annealing_time_ablation",
    "run_detuning_ablation",
    "run_multi_vs_single_stage",
    "EnergyLandscapeResult",
    "IntervalTrace",
    "run_energy_landscape",
    "render_energy_landscape",
]
