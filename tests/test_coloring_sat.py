"""Tests for the graph-coloring SAT encoder and SAT-based exact coloring."""

from __future__ import annotations

import pytest

from repro.exceptions import SATError
from repro.graphs import Graph, kings_graph
from repro.sat import encode_coloring, sat_coloring, solve_cnf
from graph_builders import complete_graph, cycle_graph, grid_graph


class TestEncoding:
    def test_variable_count(self):
        graph = cycle_graph(4)
        encoding = encode_coloring(graph, 3)
        assert encoding.formula.num_variables == 12

    def test_clause_structure(self):
        graph = cycle_graph(3)
        encoding = encode_coloring(graph, 2, symmetry_breaking=False)
        # per node: 1 at-least-one + 1 at-most-one pair; per edge: 2 color clauses
        assert encoding.formula.num_clauses == 3 * (1 + 1) + 3 * 2

    def test_symmetry_breaking_adds_units(self):
        graph = complete_graph(4)
        plain = encode_coloring(graph, 4, symmetry_breaking=False)
        broken = encode_coloring(graph, 4, symmetry_breaking=True)
        assert broken.formula.num_clauses > plain.formula.num_clauses

    def test_decode_requires_sat(self):
        graph = cycle_graph(3)
        encoding = encode_coloring(graph, 2)
        result = solve_cnf(encoding.formula)
        assert result.is_unsat
        with pytest.raises(SATError):
            encoding.decode(result)

    def test_invalid_num_colors(self):
        with pytest.raises(SATError):
            encode_coloring(cycle_graph(3), 0)


class TestSatColoring:
    def test_even_cycle_two_colorable(self):
        graph = cycle_graph(6)
        coloring = sat_coloring(graph, 2)
        assert coloring is not None
        assert coloring.is_proper(graph)

    def test_odd_cycle_not_two_colorable(self):
        assert sat_coloring(cycle_graph(5), 2) is None

    def test_odd_cycle_three_colorable(self):
        graph = cycle_graph(5)
        coloring = sat_coloring(graph, 3)
        assert coloring is not None and coloring.is_proper(graph)

    def test_kings_graph_not_three_colorable(self):
        assert sat_coloring(kings_graph(3, 3), 3) is None

    def test_kings_graph_four_colorable(self):
        graph = kings_graph(4, 4)
        coloring = sat_coloring(graph, 4)
        assert coloring is not None and coloring.is_proper(graph)

    def test_complete_graph_needs_n_colors(self):
        assert sat_coloring(complete_graph(4), 3) is None
        assert sat_coloring(complete_graph(4), 4) is not None


class TestChromaticNumber:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (grid_graph(1, 5), 2),
            (cycle_graph(6), 2),
            (cycle_graph(5), 3),
            (grid_graph(3, 3), 2),
            (kings_graph(3, 3), 4),
            (complete_graph(5), 5),
        ],
    )
    def test_known_chromatic_numbers(self, graph, expected):
        coloring = sat_coloring(graph, expected)
        assert coloring is not None and coloring.is_proper(graph)
        assert sat_coloring(graph, expected - 1) is None

    def test_edgeless_graph(self):
        graph = Graph(nodes=[1, 2, 3])
        coloring = sat_coloring(graph, 1)
        assert coloring is not None and coloring.is_proper(graph)
        assert coloring.used_colors() == {0}
