"""Tests for graph bipartitions and the divide-and-color split helpers."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.graphs import (
    Bipartition,
    cut_edges,
    cut_size,
    kings_graph,
    kings_graph_reference_coloring,
    partition_from_coloring_bit,
)
from graph_builders import cycle_graph


class TestBipartition:
    def test_from_sets(self):
        partition = Bipartition.from_sets([1, 2], [3])
        assert partition.side_of(1) == 0
        assert partition.side_of(3) == 1
        assert partition.nodes == {1, 2, 3}

    def test_overlap_rejected(self):
        with pytest.raises(GraphError):
            Bipartition.from_sets([1, 2], [2, 3])

    def test_from_labels(self):
        partition = Bipartition.from_labels({1: 0, 2: 1, 3: 0})
        assert partition.side_a == frozenset({1, 3})

    def test_from_labels_invalid(self):
        with pytest.raises(GraphError):
            Bipartition.from_labels({1: 2})

    def test_side_of_missing(self):
        partition = Bipartition.from_sets([1], [2])
        with pytest.raises(GraphError):
            partition.side_of(3)

    def test_labels_round_trip(self):
        labels = {1: 0, 2: 1, 3: 1}
        assert Bipartition.from_labels(labels).labels() == labels

    def test_covers(self):
        graph = cycle_graph(4)
        partition = Bipartition.from_sets([0, 2], [1, 3])
        assert partition.covers(graph)
        assert not Bipartition.from_sets([0], [1]).covers(graph)


class TestCuts:
    def test_cut_edges_cycle(self):
        graph = cycle_graph(4)
        partition = Bipartition.from_sets([0, 2], [1, 3])
        assert cut_size(graph, partition) == 4

    def test_cut_requires_coverage(self):
        graph = cycle_graph(4)
        with pytest.raises(GraphError):
            cut_edges(graph, Bipartition.from_sets([0], [1]))

    def test_partition_from_coloring_bit(self):
        coloring = kings_graph_reference_coloring(4, 4)
        partition = partition_from_coloring_bit(coloring.assignment, bit=1)
        # Bit 1 separates colors {0,1} (even rows) from {2,3} (odd rows).
        assert partition.side_of((0, 0)) == 0
        assert partition.side_of((1, 0)) == 1

    def test_partition_from_coloring_bit_negative(self):
        with pytest.raises(GraphError):
            partition_from_coloring_bit({1: 0}, bit=-1)

    def test_reference_partition_makes_subgraphs_bipartite(self):
        """Cutting a King's graph on the reference coloring's high bit leaves rows of paths."""
        from repro.graphs import is_bipartite

        graph = kings_graph(6, 6)
        coloring = kings_graph_reference_coloring(6, 6)
        partition = partition_from_coloring_bit(coloring.assignment, bit=1)
        assert is_bipartite(graph.subgraph(partition.side_a))
        assert is_bipartite(graph.subgraph(partition.side_b))
