"""Tests for DIMACS / JSON graph serialization."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.graphs import (
    from_dimacs,
    from_json,
    kings_graph,
    read_dimacs,
    read_json,
    to_dimacs,
    to_json,
    write_dimacs,
)


class TestDimacs:
    def test_round_trip_structure(self):
        graph = kings_graph(3, 3)
        text = to_dimacs(graph, comment="3x3 kings")
        back = from_dimacs(text)
        assert back.num_nodes == graph.num_nodes
        assert back.num_edges == graph.num_edges

    def test_header_line(self):
        text = to_dimacs(kings_graph(2, 2))
        assert "p edge 4 6" in text

    def test_comment_lines_preserved_as_comments(self):
        text = to_dimacs(kings_graph(2, 2), comment="line one\nline two")
        assert text.count("\nc ") >= 1 or text.startswith("c ")

    def test_parse_ignores_comments_and_self_loops(self):
        text = "c hello\np edge 3 3\ne 1 2\ne 2 2\ne 2 3\n"
        graph = from_dimacs(text)
        assert graph.num_nodes == 3
        assert graph.num_edges == 2

    def test_parse_requires_problem_line(self):
        with pytest.raises(GraphError):
            from_dimacs("e 1 2\n")

    def test_parse_rejects_unknown_record(self):
        with pytest.raises(GraphError):
            from_dimacs("p edge 2 1\nx 1 2\n")

    def test_parse_rejects_too_many_edges(self):
        with pytest.raises(GraphError):
            from_dimacs("p edge 3 1\ne 1 2\ne 2 3\n")

    def test_parse_rejects_out_of_range_endpoints(self):
        # Historically "p edge 3 2\ne 2 9" silently grew the graph to 4+ nodes.
        with pytest.raises(GraphError, match="outside 1..3.*line 2"):
            from_dimacs("p edge 3 2\ne 2 9\n")
        with pytest.raises(GraphError, match="outside"):
            from_dimacs("p edge 3 2\ne 0 2\n")
        with pytest.raises(GraphError, match="outside"):
            from_dimacs("p edge 3 2\ne -1 2\n")

    def test_parse_rejects_edges_before_header(self):
        with pytest.raises(GraphError, match="before the problem line at line 2"):
            from_dimacs("c comment\ne 1 2\np edge 3 2\n")

    def test_parse_rejects_duplicate_problem_line(self):
        with pytest.raises(GraphError, match="duplicate problem line at line 2"):
            from_dimacs("p edge 2 1\np edge 3 2\ne 1 2\n")

    def test_parse_rejects_non_integer_tokens(self):
        with pytest.raises(GraphError, match="non-integer.*line 2"):
            from_dimacs("p edge 3 3\ne one 2\n")
        with pytest.raises(GraphError, match="non-integer"):
            from_dimacs("p edge x 3\n")

    def test_parse_collapses_duplicate_edges(self):
        graph = from_dimacs("p edge 3 4\ne 1 2\ne 2 1\ne 1 2\ne 2 3\n")
        assert graph.num_nodes == 3
        assert graph.num_edges == 2

    def test_declared_node_count_is_authoritative(self):
        # Isolated trailing nodes must exist even with no incident edges.
        graph = from_dimacs("p edge 5 1\ne 1 2\n")
        assert graph.num_nodes == 5
        assert graph.num_edges == 1

    def test_file_round_trip(self, tmp_path):
        graph = kings_graph(3, 4)
        path = tmp_path / "graph.col"
        write_dimacs(graph, path)
        back = read_dimacs(path)
        assert back.num_edges == graph.num_edges
        assert back.name == "graph"


class TestJson:
    def test_round_trip_with_tuple_labels(self):
        graph = kings_graph(3, 3)
        back = from_json(to_json(graph))
        assert set(back.nodes) == set(graph.nodes)
        assert set(map(frozenset, back.edges())) == set(map(frozenset, graph.edges()))

    def test_invalid_json(self):
        with pytest.raises(GraphError):
            from_json("{not json")

    def test_missing_fields(self):
        with pytest.raises(GraphError):
            from_json('{"nodes": []}')

    def test_file_round_trip(self, tmp_path):
        graph = kings_graph(2, 5)
        path = tmp_path / "graph.json"
        path.write_text(to_json(graph), encoding="utf-8")
        assert read_json(path).num_nodes == 10
