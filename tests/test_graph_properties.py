"""Tests for structural graph properties and chromatic bounds."""

from __future__ import annotations

from repro.graphs import (
    chromatic_number_bounds,
    degree_statistics,
    greedy_chromatic_upper_bound,
    is_bipartite,
    kings_graph,
    max_clique_lower_bound,
    two_coloring,
    Graph,
)
from graph_builders import complete_graph, cycle_graph, grid_graph


class TestDegreeStatistics:
    def test_kings_graph(self):
        stats = degree_statistics(kings_graph(5, 5))
        assert stats["min"] == 3
        assert stats["max"] == 8
        assert 0 < stats["density"] < 1

    def test_empty_graph(self):
        stats = degree_statistics(Graph())
        assert stats["mean"] == 0.0


class TestBipartiteness:
    def test_grid_is_bipartite(self):
        assert is_bipartite(grid_graph(4, 5))

    def test_kings_is_not_bipartite(self):
        assert not is_bipartite(kings_graph(3, 3))

    def test_even_cycle_bipartite_odd_not(self):
        assert is_bipartite(cycle_graph(6))
        assert not is_bipartite(cycle_graph(5))

    def test_two_coloring_valid(self):
        graph = grid_graph(3, 3)
        colors = two_coloring(graph)
        assert colors is not None
        for u, v in graph.edges():
            assert colors[u] != colors[v]


class TestCliqueAndChromatic:
    def test_clique_bound_kings(self):
        # Every 2x2 block of a King's graph is a 4-clique.
        assert max_clique_lower_bound(kings_graph(4, 4)) >= 4

    def test_clique_bound_complete(self):
        assert max_clique_lower_bound(complete_graph(6)) == 6

    def test_greedy_upper_bound_kings(self):
        assert greedy_chromatic_upper_bound(kings_graph(5, 5)) == 4

    def test_bounds_ordering(self):
        for graph in (kings_graph(4, 4), grid_graph(4, 4), cycle_graph(7), complete_graph(5)):
            lower, upper = chromatic_number_bounds(graph)
            assert lower <= upper

    def test_bounds_bipartite(self):
        lower, upper = chromatic_number_bounds(grid_graph(3, 3))
        assert (lower, upper) == (2, 2)

    def test_bounds_empty(self):
        assert chromatic_number_bounds(Graph()) == (0, 0)
