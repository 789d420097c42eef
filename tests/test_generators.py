"""Tests for the benchmark graph generators."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.graphs import (
    PAPER_PROBLEM_SIDES,
    PAPER_PROBLEM_SIZES,
    erdos_renyi_graph,
    kings_graph,
    kings_graph_reference_coloring,
    random_planar_triangulation,
    random_regular_like_graph,
    is_kings_graph_shape,
)
from repro.ising import kings_graph_reference_cut
from graph_builders import complete_graph, cycle_graph, grid_graph

#: Board shapes from a single cell through strips to non-square boards.
KINGS_SHAPES = [(1, 1), (1, 6), (2, 2), (3, 5), (6, 4)]


class TestKingsGraph:
    def test_size_7x7(self):
        graph = kings_graph(7, 7)
        assert graph.num_nodes == 49
        # 2*r*c - r - c horizontal+vertical plus 2*(r-1)*(c-1) diagonals
        assert graph.num_edges == (7 * 6) * 2 + 2 * 6 * 6

    def test_interior_degree_is_eight(self):
        graph = kings_graph(5, 5)
        assert graph.degree((2, 2)) == 8

    def test_corner_degree_is_three(self):
        graph = kings_graph(5, 5)
        assert graph.degree((0, 0)) == 3
        assert graph.degree((4, 4)) == 3

    def test_edge_degree_is_five(self):
        graph = kings_graph(5, 5)
        assert graph.degree((0, 2)) == 5

    def test_degree_signature_check(self):
        assert is_kings_graph_shape(kings_graph(6, 6))
        assert not is_kings_graph_shape(grid_graph(6, 6))

    def test_rectangular(self):
        graph = kings_graph(2, 3)
        assert graph.num_nodes == 6
        assert graph.has_edge((0, 0), (1, 1))

    def test_invalid_sizes(self):
        with pytest.raises(GraphError):
            kings_graph(0, 3)

    @pytest.mark.parametrize("num_nodes", PAPER_PROBLEM_SIZES)
    def test_paper_sizes(self, num_nodes):
        side = PAPER_PROBLEM_SIDES[num_nodes]
        graph = kings_graph(side, side)
        assert graph.num_nodes == num_nodes
        assert graph.num_nodes == side * side

    @pytest.mark.parametrize("rows,cols", KINGS_SHAPES)
    def test_edge_count_and_degree_bound(self, rows, cols):
        graph = kings_graph(rows, cols)
        assert graph.num_nodes == rows * cols
        # Horizontal and vertical neighbours plus two diagonals per 2x2 block.
        horizontal, vertical = rows * (cols - 1), (rows - 1) * cols
        assert graph.num_edges == horizontal + vertical + 2 * (rows - 1) * (cols - 1)
        assert max(graph.degrees().values()) <= 8


class TestKingsReferenceSolutions:
    @pytest.mark.parametrize("rows,cols", KINGS_SHAPES)
    def test_reference_coloring_is_proper(self, rows, cols):
        graph = kings_graph(rows, cols)
        coloring = kings_graph_reference_coloring(rows, cols)
        assert coloring.covers(graph)
        assert coloring.is_proper(graph)
        # Every 2x2 block needs four colors; a strip needs two, a cell one.
        assert len(coloring.used_colors()) == min(rows, 2) * min(cols, 2)

    @pytest.mark.parametrize("rows,cols", KINGS_SHAPES)
    def test_reference_cut_separates_row_parities(self, rows, cols):
        # Row-parity striping cuts every edge between adjacent rows: one
        # vertical per column and two diagonals per column gap.
        assert kings_graph_reference_cut(rows, cols) == (rows - 1) * (3 * cols - 2)


class TestOtherGenerators:
    def test_grid(self):
        graph = grid_graph(3, 4)
        assert graph.num_nodes == 12
        assert graph.num_edges == 3 * 3 + 2 * 4
        assert graph.degree((1, 1)) == 4

    def test_cycle(self):
        graph = cycle_graph(6)
        assert graph.num_edges == 6
        assert all(degree == 2 for degree in graph.degrees().values())

    def test_tiny_cycles(self):
        assert cycle_graph(1).num_edges == 0
        assert cycle_graph(2).num_edges == 1

    def test_complete(self):
        graph = complete_graph(5)
        assert graph.num_edges == 10

    def test_erdos_renyi_bounds(self):
        empty = erdos_renyi_graph(10, 0.0, seed=1)
        full = erdos_renyi_graph(10, 1.0, seed=1)
        assert empty.num_edges == 0
        assert full.num_edges == 45

    def test_erdos_renyi_deterministic(self):
        a = erdos_renyi_graph(15, 0.3, seed=4)
        b = erdos_renyi_graph(15, 0.3, seed=4)
        assert set(a.edges()) == set(b.edges())

    def test_erdos_renyi_invalid_probability(self):
        with pytest.raises(GraphError):
            erdos_renyi_graph(10, 1.5)

    def test_random_regular_like(self):
        graph = random_regular_like_graph(20, 4, seed=2)
        assert graph.num_nodes == 20
        assert max(graph.degrees().values()) <= 4 + 1  # allow slight deviation

    def test_random_regular_like_invalid_degree(self):
        with pytest.raises(GraphError):
            random_regular_like_graph(5, 5)

    def test_random_planar_triangulation(self):
        graph = random_planar_triangulation(30, seed=3)
        assert graph.num_nodes == 30
        # Planar graphs satisfy E <= 3V - 6.
        assert graph.num_edges <= 3 * 30 - 6
        assert graph.is_connected()

    def test_random_planar_minimum_points(self):
        with pytest.raises(GraphError):
            random_planar_triangulation(2)
