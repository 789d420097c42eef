"""End-to-end integration tests tying the whole stack together.

These tests exercise the public API the way the examples and benchmarks do:
solve the paper's smallest benchmark, compare against the exact baseline and
the software heuristics, and check the cross-layer invariants (accuracy
decomposition across stages, power/timing bookkeeping).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MSROPM, MSROPMConfig, kings_graph
from repro.baselines import anneal_coloring, exact_coloring
from repro.circuit import PowerModel, TimingPlan
from repro.core.metrics import coloring_accuracy
from repro.units import ns


@pytest.fixture(scope="module")
def solved_7x7():
    """One shared 49-node solve used by several integration checks."""
    config = MSROPMConfig(
        num_colors=4,
        timing=TimingPlan(initialization=ns(2.0), annealing=ns(12.0), shil_settling=ns(4.0)),
        time_step=0.04e-9,
        record_every=25,
        seed=2025,
    )
    machine = MSROPM(kings_graph(7, 7), config)
    return machine, machine.solve(iterations=8, seed=2025)


class TestEndToEnd:
    def test_accuracy_against_exact_baseline(self, solved_7x7):
        machine, result = solved_7x7
        exact = exact_coloring(machine.graph, 4)
        assert exact.is_proper(machine.graph)
        # The machine's best accuracy should be close to the exact solution's 1.0,
        # matching the paper's 49-node behaviour (average 98%, best 100%).
        assert result.best_accuracy >= 0.95
        assert result.accuracies.mean() >= 0.9

    def test_accuracy_decomposes_over_stages(self, solved_7x7):
        """Accuracy = (stage-1 cut + stage-2 cuts) / total edges for every run."""
        machine, result = solved_7x7
        total_edges = machine.graph.num_edges
        for iteration in result.iterations:
            cut_sum = sum(stage.cut_value for stage in iteration.stage_results)
            assert iteration.accuracy == pytest.approx(cut_sum / total_edges)

    def test_stage1_accuracy_positively_tracks_final(self, solved_7x7):
        _, result = solved_7x7
        if np.std(result.stage1_accuracies) > 1e-9 and np.std(result.accuracies) > 1e-9:
            assert result.stage_correlation() > -0.5  # never strongly negative

    def test_solutions_differ_across_iterations(self, solved_7x7):
        """The probabilistic nature of the machine: repeated runs find different solutions."""
        _, result = solved_7x7
        distances = result.hamming_distances()
        assert distances.max() > 0.0

    def test_run_time_is_the_timing_plan_total(self, solved_7x7):
        machine, result = solved_7x7
        assert result.average_run_time() == pytest.approx(machine.config.total_run_time)

    def test_power_model_on_machine(self, solved_7x7):
        machine, _ = solved_7x7
        power = machine.estimated_power(PowerModel())
        assert 0.001 < power < 0.1  # tens of mW for a 49-node fabric

    def test_machine_vs_simulated_annealing(self, solved_7x7):
        machine, result = solved_7x7
        sa = anneal_coloring(machine.graph, 4, seed=1)
        assert abs(result.best_accuracy - coloring_accuracy(machine.graph, sa)) < 0.15

    def test_convenience_api(self):
        config = MSROPMConfig(
            num_colors=4,
            timing=TimingPlan(initialization=ns(1.0), annealing=ns(6.0), shil_settling=ns(3.0)),
            time_step=0.05e-9,
        )
        result = MSROPM(kings_graph(4, 4), config).solve(iterations=2, seed=7)
        assert result.num_iterations == 2
        assert result.best.coloring.covers(result.graph)


class TestEightColorExtension:
    def test_three_stage_machine_colors_with_eight_colors(self):
        """The paper's proposed extension: more stages -> more colors."""
        config = MSROPMConfig(
            num_colors=8,
            timing=TimingPlan(initialization=ns(1.0), annealing=ns(8.0), shil_settling=ns(3.0)),
            time_step=0.05e-9,
            seed=5,
        )
        graph = kings_graph(5, 5)
        machine = MSROPM(graph, config)
        result = machine.solve(iterations=2, seed=5)
        assert machine.time_to_solution() / ns(1.0) == pytest.approx(36.0)
        assert result.num_colors == 8
        # 8 colors on a 4-chromatic graph: high accuracy should be easy.
        assert result.best_accuracy >= 0.95
        assert all(color < 8 for coloring in result.colorings for color in coloring.used_colors())
