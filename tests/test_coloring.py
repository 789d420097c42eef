"""Tests for the Coloring data structure and classical heuristics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ColoringError
from repro.graphs import Coloring, dsatur_coloring, kings_graph, kings_graph_reference_coloring
from graph_builders import complete_graph, cycle_graph, random_coloring


class TestColoring:
    def test_valid_construction(self):
        coloring = Coloring(assignment={1: 0, 2: 1}, num_colors=2)
        assert coloring.color_of(1) == 0
        assert coloring.used_colors() == {0, 1}

    def test_out_of_range_color(self):
        with pytest.raises(ColoringError):
            Coloring(assignment={1: 5}, num_colors=4)

    def test_non_integer_color(self):
        with pytest.raises(ColoringError):
            Coloring(assignment={1: 0.5}, num_colors=4)

    def test_zero_colors(self):
        with pytest.raises(ColoringError):
            Coloring(assignment={}, num_colors=0)

    def test_missing_node_raises(self):
        coloring = Coloring(assignment={1: 0}, num_colors=2)
        with pytest.raises(ColoringError):
            coloring.color_of(2)

    def test_conflicts_and_accuracy(self):
        graph = cycle_graph(4)
        proper = Coloring(assignment={0: 0, 1: 1, 2: 0, 3: 1}, num_colors=2)
        improper = Coloring(assignment={0: 0, 1: 0, 2: 0, 3: 0}, num_colors=2)
        assert proper.is_proper(graph)
        assert proper.accuracy(graph) == 1.0
        assert improper.num_conflicts(graph) == 4
        assert improper.accuracy(graph) == 0.0

    def test_accuracy_empty_graph(self):
        from repro.graphs import Graph

        graph = Graph(nodes=[1, 2])
        coloring = Coloring(assignment={1: 0, 2: 0}, num_colors=2)
        assert coloring.accuracy(graph) == 1.0

    def test_color_classes(self):
        coloring = Coloring(assignment={1: 0, 2: 0, 3: 1}, num_colors=2)
        classes = coloring.color_classes()
        assert classes[0] == {1, 2}
        assert classes[1] == {3}

    def test_array_round_trip(self):
        graph = cycle_graph(5)
        coloring = random_coloring(graph, 3, seed=1)
        array = coloring.as_array(graph)
        back = Coloring.from_array(graph, array, 3)
        assert back.assignment == coloring.assignment

    def test_from_array_wrong_length(self):
        with pytest.raises(ColoringError):
            Coloring.from_array(cycle_graph(4), [0, 1], 2)

    def test_as_array_uncovered(self):
        graph = cycle_graph(4)
        coloring = Coloring(assignment={0: 0}, num_colors=2)
        with pytest.raises(ColoringError):
            coloring.as_array(graph)

    def test_relabeled_preserves_propriety(self):
        graph = cycle_graph(6)
        coloring = Coloring.from_array(graph, [0, 1, 0, 1, 0, 1], 2)
        swapped = coloring.relabeled({0: 1, 1: 0})
        assert swapped.is_proper(graph)
        assert swapped.color_of(0) == 1

    def test_relabeled_missing_color(self):
        coloring = Coloring(assignment={1: 0, 2: 1}, num_colors=2)
        with pytest.raises(ColoringError):
            coloring.relabeled({0: 1})

class TestHeuristics:
    def test_dsatur_is_proper_and_tight_on_kings(self):
        graph = kings_graph(6, 6)
        coloring = dsatur_coloring(graph)
        assert coloring.is_proper(graph)
        assert len(coloring.used_colors()) == 4  # King's graphs are 4-chromatic

    def test_dsatur_complete_graph(self):
        graph = complete_graph(5)
        coloring = dsatur_coloring(graph)
        assert coloring.is_proper(graph)
        assert len(coloring.used_colors()) == 5

class TestKingsReference:
    @pytest.mark.parametrize("rows,cols", [(2, 2), (5, 5), (7, 7), (6, 9)])
    def test_reference_coloring_proper(self, rows, cols):
        graph = kings_graph(rows, cols)
        coloring = kings_graph_reference_coloring(rows, cols)
        assert coloring.is_proper(graph)
        assert coloring.accuracy(graph) == 1.0

    def test_reference_coloring_uses_four_colors(self):
        coloring = kings_graph_reference_coloring(4, 4)
        assert coloring.used_colors() == {0, 1, 2, 3}

    def test_reference_coloring_invalid_dims(self):
        with pytest.raises(ColoringError):
            kings_graph_reference_coloring(0, 3)


class TestColoringProperties:
    @given(side=st.integers(min_value=2, max_value=6), seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_accuracy_between_zero_and_one(self, side, seed):
        graph = kings_graph(side, side)
        coloring = random_coloring(graph, 4, seed=seed)
        accuracy = coloring.accuracy(graph)
        assert 0.0 <= accuracy <= 1.0

    @given(side=st.integers(min_value=2, max_value=6), seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_accuracy_is_one_minus_normalized_potts_energy(self, side, seed):
        """The paper's accuracy (Sec. 4) is 1 - H_Potts / |E| with unit couplings
        (Eq. 3): the energy counts the monochromatic edges."""
        graph = kings_graph(side, side)
        coloring = random_coloring(graph, 4, seed=seed)
        energy = sum(1 for u, v in graph.edges() if coloring.color_of(u) == coloring.color_of(v))
        assert coloring.accuracy(graph) == pytest.approx(1.0 - energy / graph.num_edges)

    @given(side=st.integers(min_value=2, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_dsatur_never_beats_clique_bound(self, side):
        graph = kings_graph(side, side)
        coloring = dsatur_coloring(graph)
        # King's graphs contain 4-cliques (2x2 blocks), so at least 4 colors are needed.
        assert len(coloring.used_colors()) >= 4

    @given(
        permutation=st.permutations(list(range(4))),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=20, deadline=None)
    def test_accuracy_invariant_under_relabeling(self, permutation, seed):
        graph = kings_graph(4, 4)
        coloring = random_coloring(graph, 4, seed=seed)
        relabeled = coloring.relabeled(dict(enumerate(permutation)))
        assert relabeled.accuracy(graph) == pytest.approx(coloring.accuracy(graph))
