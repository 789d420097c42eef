"""Small graphs, colorings and partitions the tests build their inputs from.

None of these is part of the library: the solver, the experiments and the
workload zoo never need them, so they live with the tests that do.
"""

from __future__ import annotations

import itertools

from repro.graphs.coloring import Coloring
from repro.graphs.graph import Graph
from repro.graphs.partition import Bipartition
from repro.rng import SeedLike, make_rng


def grid_graph(rows: int, cols: int) -> Graph:
    """A ``rows x cols`` rectangular grid graph (4-neighbour)."""
    graph = Graph(name=f"grid-{rows}x{cols}")
    for r in range(rows):
        for c in range(cols):
            graph.add_node((r, c))
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                graph.add_edge((r, c), (r + 1, c))
            if c + 1 < cols:
                graph.add_edge((r, c), (r, c + 1))
    return graph


def cycle_graph(num_nodes: int) -> Graph:
    """The cycle graph ``C_n`` (one node for n=1, one edge for n=2)."""
    graph = Graph(name=f"cycle-{num_nodes}")
    for i in range(num_nodes):
        graph.add_node(i)
    if num_nodes == 2:
        graph.add_edge(0, 1)
    elif num_nodes > 2:
        for i in range(num_nodes):
            graph.add_edge(i, (i + 1) % num_nodes)
    return graph


def complete_graph(num_nodes: int) -> Graph:
    """The complete graph ``K_n``."""
    graph = Graph(name=f"complete-{num_nodes}")
    for i in range(num_nodes):
        graph.add_node(i)
    for i, j in itertools.combinations(range(num_nodes), 2):
        graph.add_edge(i, j)
    return graph


def random_coloring(graph: Graph, num_colors: int, seed: SeedLike = None) -> Coloring:
    """A uniformly random (generally improper) ``num_colors``-coloring."""
    colors = make_rng(seed).integers(0, num_colors, size=graph.num_nodes)
    return Coloring.from_array(graph, colors, num_colors)


def balanced_halves(graph: Graph) -> Bipartition:
    """A balanced bipartition by alternating node order (not a max-cut)."""
    side_a = frozenset(graph.nodes[0::2])
    side_b = frozenset(graph.nodes[1::2])
    return Bipartition(side_a=side_a, side_b=side_b)
