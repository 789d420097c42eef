"""Tests for the experiment harness (Figures 3 and 5, Tables 1 and 2, ablations)."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.circuit import PAPER_POWER_MW
from repro.experiments import (
    FIGURE5_SIZES,
    PAPER_ITERATIONS,
    TABLE1_SIZES,
    default_config,
    power_scaling_series,
    render_figure3,
    render_figure5,
    run_coupling_ablation,
    run_figure3,
    run_figure5,
    run_multi_vs_single_stage,
    run_shil_ablation,
    run_table1,
    run_table2,
    scaled_iterations,
    scaled_problem,
)
from repro.experiments.fig5_accuracy import Figure5Result
from repro.experiments.problems import scaled_spec


class TestProblems:
    def test_paper_problem_sizes(self):
        for size in TABLE1_SIZES:
            problem = scaled_problem(size, scale=1.0)
            assert problem.graph.num_nodes == size
            assert problem.name == f"{size}-node"

    def test_paper_iterations_constant(self):
        assert PAPER_ITERATIONS == 40
        assert set(FIGURE5_SIZES) == {49, 400, 1024}

    def test_scaled_problem_shrinks(self):
        scaled = scaled_problem(1024, scale=0.1)
        assert scaled.graph.num_nodes < 1024
        assert scaled.graph.num_nodes >= 16
        assert scaled_problem(49, scale=1.0).graph.num_nodes == 49

    @pytest.mark.parametrize("scale", [1.0, 0.25, 0.1])
    @pytest.mark.parametrize("size", TABLE1_SIZES)
    def test_scaled_spec_is_the_problem_spec(self, size, scale):
        """Planners schedule by ``scaled_spec`` without building the graph; it
        must be the spec of the problem the graph-building path solves."""
        problem = scaled_problem(size, scale=scale)
        assert scaled_spec(size, scale) == problem.spec
        assert problem.spec.build().num_nodes == problem.graph.num_nodes == problem.num_nodes

    def test_scaled_iterations(self):
        assert scaled_iterations(1.0) == 40
        assert scaled_iterations(0.1) == 5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            scaled_problem(123)
        with pytest.raises(ConfigurationError):
            scaled_problem(49, scale=0.0)
        with pytest.raises(ConfigurationError):
            scaled_iterations(2.0)

    def test_default_config(self):
        config = default_config(seed=5)
        assert config.num_colors == 4
        assert config.seed == 5


class TestFigure3:
    def test_run_and_render(self, fast_config):
        result = run_figure3(rows=3, cols=3, config=fast_config.with_updates(record_every=1), seed=3)
        # After the final SHIL the oscillators occupy at most 4 of the 8 phase bins.
        assert result.final_num_clusters <= 4
        assert len(result.snapshots) == 6
        assert result.waveforms.voltages.shape[1] == len(result.traced_oscillators)
        text = render_figure3(result)
        assert "Figure 3" in text
        assert "shil-2" in text

    def test_two_phase_clustering_after_stage1(self, fast_config):
        result = run_figure3(rows=3, cols=3, config=fast_config.with_updates(record_every=1), seed=4)
        after_shil1 = next(snapshot for snapshot in result.snapshots if snapshot.label == "shil-1")
        # SHIL 1 binarizes phases to (near) 0/180 degrees: bins 0 and 4 of 8.
        assert after_shil1.num_phase_clusters <= 3


class TestFigure5:
    def test_scaled_run_structure(self, fast_config):
        result = run_figure5(sizes=(49,), iterations=4, scale=0.5, config=fast_config, seed=11)
        series = result.by_size(49)
        assert series.coloring_accuracies.shape == (4,)
        assert series.maxcut_accuracies.shape == (4,)
        assert series.hamming_distances.shape == (6,)
        assert 0.0 <= series.mean_accuracy <= 1.0
        assert series.best_accuracy >= series.mean_accuracy

    def test_render_contains_all_panels(self, fast_config):
        result = run_figure5(sizes=(49,), iterations=3, scale=0.3, config=fast_config, seed=12)
        text = render_figure5(result)
        assert "Figure 5(a)" in text
        assert "Figure 5(b)" in text
        assert "Figure 5(c)" in text
        assert "correlation" in text

    def test_by_size_missing(self):
        with pytest.raises(KeyError):
            Figure5Result(series=[]).by_size(49)


class TestTable1:
    def test_scaled_rows(self, fast_config):
        result = run_table1(sizes=(49, 400), iterations=3, scale=0.3, config=fast_config, seed=13)
        assert len(result.rows) == 2
        first = result.rows[0]
        assert first.search_space_text() == "4^49"
        assert first.iterations == 3
        assert 0.0 <= first.top_accuracy <= 1.0
        assert first.average_power_w > 0
        text = result.render()
        assert "Table 1" in text
        assert "4^400" in text

    def test_power_comparison_available(self, fast_config):
        result = run_table1(sizes=(49,), iterations=2, scale=0.3, config=fast_config, seed=14)
        comparison = result.paper_power_comparison()
        assert 49 in comparison
        assert comparison[49]["paper_mw"] == PAPER_POWER_MW[49]

    def test_power_scaling_series_is_linear_in_size(self):
        series = power_scaling_series()
        assert set(series) == set(TABLE1_SIZES)
        values = [series[size] for size in sorted(series)]
        assert values == sorted(values)
        # Per-node power decreases slightly with size (controller amortization),
        # mirroring the paper's trend.
        per_node = {size: series[size] / size for size in series}
        assert per_node[2116] < per_node[49]


class TestTable2:
    def test_measured_rows_and_render(self, fast_config):
        result = run_table2(
            msropm_nodes=400, comparison_nodes=49, iterations=3, scale=0.3, config=fast_config, seed=15
        )
        text = result.render()
        assert "MSROPM (this work)" in text
        assert "3-SHIL" in text
        assert "ROIM" in text
        assert "cited" in text
        assert result.msropm_accuracies.shape == (3,)
        assert result.ropm_accuracies.shape == (3,)
        assert result.roim_accuracies.shape == (3,)

    def test_msropm_outperforms_single_stage_on_its_problem(self, fast_config):
        """The paper's architectural claim: multi-stage beats single-stage N-SHIL."""
        comparison = run_multi_vs_single_stage(rows=5, iterations=4, config=fast_config, seed=16)
        assert comparison.multi_stage_mean >= comparison.single_stage_mean
        assert comparison.advantage >= 0.0


class TestAblations:
    def test_coupling_ablation_runs(self, fast_config):
        sweep = run_coupling_ablation(rows=4, strengths=(0.05, 0.1), iterations=2, config=fast_config, seed=17)
        assert len(sweep.points) == 2

    def test_shil_ablation_detects_weak_injection(self, fast_config):
        """Very weak SHIL discretizes poorly; the nominal strength must not be worse."""
        sweep = run_shil_ablation(rows=4, strengths=(0.02, 0.25), iterations=3, config=fast_config, seed=18)
        by_strength = {point.overrides["shil_strength"]: point.mean_accuracy for point in sweep.points}
        assert by_strength[0.25] >= by_strength[0.02] - 0.05
