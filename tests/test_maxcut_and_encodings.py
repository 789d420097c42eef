"""Tests for the max-cut utilities."""

from __future__ import annotations

import pytest

from repro.exceptions import ReproError
from repro.graphs import Bipartition, Graph, kings_graph
from repro.ising import MaxCutProblem, kings_graph_reference_cut
from graph_builders import balanced_halves, cycle_graph


class TestMaxCut:
    def test_cut_value_bipartite_optimum(self):
        graph = Graph(edges=[(("L", i), ("R", j)) for i in range(3) for j in range(3)])
        problem = MaxCutProblem(graph)
        partition = Bipartition.from_sets([("L", i) for i in range(3)], [("R", i) for i in range(3)])
        assert problem.cut_value(partition) == 9
        assert problem.accuracy(partition) == 1.0

    def test_cut_value_from_spins(self):
        graph = cycle_graph(4)
        problem = MaxCutProblem(graph)
        spins = {0: 1, 1: -1, 2: 1, 3: -1}
        assert problem.cut_value_from_spins(spins) == 4

    def test_weighted_cut(self):
        graph = cycle_graph(3)
        problem = MaxCutProblem(graph, weights={(0, 1): 5.0})
        partition = Bipartition.from_sets([0], [1, 2])
        assert problem.cut_value(partition) == pytest.approx(5.0 + 1.0)

    def test_weight_for_non_edge(self):
        with pytest.raises(ReproError):
            MaxCutProblem(cycle_graph(4)).weight(0, 2)

    def test_to_ising_energy_relation(self):
        """H(s) = W - 2*cut(s) for the antiferromagnetic mapping with unit strength."""
        graph = kings_graph(3, 3)
        problem = MaxCutProblem(graph)
        ising = problem.to_ising(strength=1.0)
        partition = balanced_halves(graph)
        spins = {node: 1 if partition.side_of(node) == 0 else -1 for node in graph.nodes}
        energy = ising.energy(spins)
        cut = problem.cut_value(partition)
        assert energy == pytest.approx(problem.total_weight() - 2 * cut)

    def test_accuracy_reports_raw_ratio_beyond_reference(self):
        # A cut that beats a heuristic reference must be visible as > 1.0;
        # clipping happens only at the presentation layer.
        graph = cycle_graph(4)
        problem = MaxCutProblem(graph)
        partition = Bipartition.from_sets([0, 2], [1, 3])
        assert problem.accuracy(partition, reference_cut=2) == 2.0
        assert problem.accuracy(partition) == 1.0  # total-weight reference

    def test_presentation_layer_clips_with_warning(self):
        from repro.analysis.reporting import format_accuracy, present_accuracy

        with pytest.warns(UserWarning, match="better-than-reference"):
            assert present_accuracy(2.0) == 1.0
        with pytest.warns(UserWarning):
            assert format_accuracy(1.25) == "1.000"
        assert present_accuracy(0.75) == 0.75
        assert present_accuracy(-0.5) == 0.0

    def test_accuracy_range_text_clips_raw_ratios(self):
        from repro.analysis.comparison import accuracy_range_text

        with pytest.warns(UserWarning, match="better-than-reference"):
            assert accuracy_range_text(0.9, 1.1) == "90%-100%"
        assert accuracy_range_text(0.5, 1.0) == "50%-100%"

    @pytest.mark.parametrize("rows,cols", [(4, 4), (7, 7), (5, 8)])
    def test_kings_reference_cut_counts_cross_row_edges(self, rows, cols):
        """The reference cut keeps horizontal edges and cuts vertical + diagonal ones."""
        expected = cols * (rows - 1) + 2 * (rows - 1) * (cols - 1)
        assert kings_graph_reference_cut(rows, cols) == expected

    def test_kings_reference_cut_validation(self):
        with pytest.raises(ReproError):
            kings_graph_reference_cut(0, 4)
