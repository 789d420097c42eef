"""Tests for the software and prior-work baselines."""

from __future__ import annotations

import pytest

from repro.exceptions import ColoringError, ConfigurationError
from repro.baselines import (
    AnnealingSchedule,
    ROIMMaxCut,
    SingleStageROPM,
    anneal_coloring,
    anneal_maxcut,
    exact_coloring,
    exact_coloring_backtracking,
    exact_coloring_sat,
    exact_kings_coloring,
    tabucol,
    TabuParameters,
)
from repro.graphs import kings_graph
from repro.ising import MaxCutProblem, kings_graph_reference_cut
from graph_builders import complete_graph, cycle_graph, grid_graph


class TestAnnealingSchedule:
    def test_temperature_endpoints(self):
        schedule = AnnealingSchedule(initial_temperature=2.0, final_temperature=0.02, sweeps=100)
        assert schedule.temperature(0) == pytest.approx(2.0)
        assert schedule.temperature(99) == pytest.approx(0.02)
        assert schedule.temperature(50) < schedule.temperature(10)

    def test_single_sweep(self):
        assert AnnealingSchedule(sweeps=1).temperature(0) == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AnnealingSchedule(initial_temperature=0.0)
        with pytest.raises(ConfigurationError):
            AnnealingSchedule(final_temperature=5.0, initial_temperature=1.0)
        with pytest.raises(ConfigurationError):
            AnnealingSchedule(sweeps=0)


class TestSimulatedAnnealing:
    def test_sa_colors_kings_graph_well(self):
        graph = kings_graph(5, 5)
        coloring = anneal_coloring(graph, 4, seed=1)
        assert coloring.covers(graph)
        assert coloring.accuracy(graph) >= 0.95

    def test_sa_finds_proper_coloring_of_easy_graph(self):
        graph = cycle_graph(8)
        coloring = anneal_coloring(graph, 2, seed=2)
        assert coloring.is_proper(graph)

    def test_sa_respects_initial_coloring(self):
        graph = kings_graph(4, 4)
        from repro.graphs import kings_graph_reference_coloring

        initial = kings_graph_reference_coloring(4, 4)
        coloring = anneal_coloring(graph, 4, seed=3, initial=initial)
        assert coloring.is_proper(graph)  # cannot do worse than a zero-conflict start

    def test_sa_validation(self):
        with pytest.raises(ConfigurationError):
            anneal_coloring(cycle_graph(4), 1)

    def test_sa_maxcut_beats_random_on_average(self):
        graph = kings_graph(5, 5)
        problem = MaxCutProblem(graph)
        partition = anneal_maxcut(problem, seed=4)
        assert problem.cut_value(partition) >= 0.85 * kings_graph_reference_cut(5, 5)

    def test_sa_maxcut_bipartite_optimal(self):
        graph = grid_graph(4, 4)
        problem = MaxCutProblem(graph)
        partition = anneal_maxcut(problem, seed=5)
        assert problem.cut_value(partition) == graph.num_edges


class TestTabucol:
    def test_tabucol_solves_kings_four_coloring(self):
        graph = kings_graph(5, 5)
        coloring = tabucol(graph, 4, seed=1)
        assert coloring.is_proper(graph)

    def test_tabucol_cannot_three_color_kings(self):
        graph = kings_graph(4, 4)
        coloring = tabucol(graph, 3, seed=2, parameters=TabuParameters(max_iterations=500))
        assert not coloring.is_proper(graph)
        assert coloring.accuracy(graph) > 0.7  # still a decent approximation

    def test_tabucol_with_initial(self):
        from repro.graphs import kings_graph_reference_coloring

        graph = kings_graph(4, 4)
        coloring = tabucol(graph, 4, seed=3, initial=kings_graph_reference_coloring(4, 4))
        assert coloring.is_proper(graph)

    def test_tabucol_validation(self):
        with pytest.raises(ConfigurationError):
            tabucol(cycle_graph(4), 1)
        with pytest.raises(ConfigurationError):
            TabuParameters(max_iterations=0)


class TestExactBaselines:
    def test_exact_kings_closed_form(self):
        graph = kings_graph(6, 6)
        coloring = exact_kings_coloring(graph)
        assert coloring.is_proper(graph)

    def test_exact_kings_rejects_non_kings(self):
        with pytest.raises(ColoringError):
            exact_kings_coloring(grid_graph(4, 4))

    def test_backtracking_matches_sat_on_small_graphs(self):
        for graph in (cycle_graph(5), kings_graph(3, 3), complete_graph(4)):
            for colors in (2, 3, 4):
                by_backtracking = exact_coloring_backtracking(graph, colors)
                by_sat = exact_coloring_sat(graph, colors)
                assert (by_backtracking is None) == (by_sat is None)
                if by_backtracking is not None:
                    assert by_backtracking.is_proper(graph)

    def test_backtracking_empty_graph(self):
        from repro.graphs import Graph

        assert exact_coloring_backtracking(Graph(), 3) is not None

    def test_exact_coloring_auto_dispatch(self):
        kings = kings_graph(5, 5)
        assert exact_coloring(kings, 4).is_proper(kings)
        cycle = cycle_graph(7)
        assert exact_coloring(cycle, 3).is_proper(cycle)
        assert exact_coloring(cycle, 2) is None

    def test_exact_coloring_engine_selection(self):
        graph = cycle_graph(6)
        assert exact_coloring(graph, 2, prefer="sat").is_proper(graph)
        assert exact_coloring(graph, 2, prefer="backtracking").is_proper(graph)
        with pytest.raises(ColoringError):
            exact_coloring(graph, 2, prefer="quantum")


class TestSingleStageROPM:
    def test_three_coloring_of_triangular_lattice(self, fast_config):
        """A 3-SHIL ROPM should 3-color a (3-chromatic) triangular lattice reasonably well."""
        graph = grid_graph(4, 4)
        for r in range(3):
            for c in range(3):
                graph.add_edge((r, c), (r + 1, c + 1))
        machine = SingleStageROPM(graph, num_colors=3, config=fast_config)
        result = machine.solve(iterations=4, seed=5)
        assert result.best_accuracy >= 0.8
        assert all(coloring.num_colors == 3 for coloring in result.colorings)

    def test_run_time_is_single_stage(self, fast_config):
        machine = SingleStageROPM(kings_graph(3, 3), num_colors=3, config=fast_config)
        assert machine.run_time == pytest.approx(fast_config.timing.total_for_stages(1))

    def test_validation(self, fast_config):
        from repro.graphs import Graph

        with pytest.raises(ConfigurationError):
            SingleStageROPM(kings_graph(3, 3), num_colors=1, config=fast_config)
        with pytest.raises(ConfigurationError):
            SingleStageROPM(Graph(), num_colors=3, config=fast_config)
        machine = SingleStageROPM(kings_graph(3, 3), num_colors=3, config=fast_config)
        with pytest.raises(ConfigurationError):
            machine.solve(iterations=0)


class TestROIM:
    def test_maxcut_on_bipartite_graph_is_near_perfect(self, fast_config):
        graph = grid_graph(5, 5)
        roim = ROIMMaxCut(graph, config=fast_config)
        best = roim.best_of(iterations=3, seed=1)
        assert best.accuracy >= 0.9

    def test_kings_graph_cut_quality(self, fast_config):
        graph = kings_graph(5, 5)
        roim = ROIMMaxCut(graph, config=fast_config, reference_cut=kings_graph_reference_cut(5, 5))
        best = roim.best_of(iterations=3, seed=2)
        assert best.accuracy >= 0.85
        assert best.partition.covers(graph)

    def test_run_time_and_validation(self, fast_config):
        from repro.graphs import Graph

        roim = ROIMMaxCut(kings_graph(3, 3), config=fast_config)
        assert roim.run_time == pytest.approx(fast_config.timing.total_for_stages(1))
        with pytest.raises(ConfigurationError):
            ROIMMaxCut(Graph(), config=fast_config)
        with pytest.raises(ConfigurationError):
            roim.solve(iterations=0)
