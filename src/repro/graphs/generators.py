"""Benchmark graph generators.

The paper evaluates the MSROPM on custom planar 4-coloring problems laid out
as **King's graphs** (a grid where every cell is also connected to its diagonal
neighbours, i.e. the moves of a chess king), of sizes 49 (7x7), 400 (20x20),
1024 (32x32) and 2116 (46x46) nodes with all 8 edges per interior node active.

This module provides the King's graph generator together with the random
families of the workload zoo (Erdos-Renyi, near-regular graphs and random
planar triangulations).
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.rng import SeedLike, make_rng

GridNode = Tuple[int, int]

#: Problem sizes used in the paper's evaluation (Table 1 / Figure 5).
PAPER_PROBLEM_SIZES = (49, 400, 1024, 2116)

#: Side lengths of the square King's graphs matching the paper's sizes.
PAPER_PROBLEM_SIDES = {49: 7, 400: 20, 1024: 32, 2116: 46}


def _check_positive(name: str, value: int) -> None:
    if value <= 0:
        raise GraphError(f"{name} must be a positive integer, got {value}")


def kings_graph(rows: int, cols: Optional[int] = None, name: str = "") -> Graph:
    """Return the King's graph on a ``rows x cols`` board.

    Every node ``(r, c)`` is connected to its up-to-8 surrounding cells.  This
    is the benchmark topology of the paper: it is planar when drawn on the
    board, 4-chromatic for boards with at least a 2x2 block, and matches the
    nearest-neighbour coupling fabrics used by ROSC Ising machine chips.
    """
    if cols is None:
        cols = rows
    _check_positive("rows", rows)
    _check_positive("cols", cols)
    graph = Graph(name=name or f"kings-{rows}x{cols}")
    for r in range(rows):
        for c in range(cols):
            graph.add_node((r, c))
    offsets = [(-1, -1), (-1, 0), (-1, 1), (0, -1)]
    for r in range(rows):
        for c in range(cols):
            for dr, dc in offsets:
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    graph.add_edge((r, c), (rr, cc))
    return graph


def erdos_renyi_graph(num_nodes: int, edge_probability: float, seed: SeedLike = None, name: str = "") -> Graph:
    """Return a G(n, p) random graph."""
    _check_positive("num_nodes", num_nodes)
    if not 0.0 <= edge_probability <= 1.0:
        raise GraphError(f"edge_probability must be in [0, 1], got {edge_probability}")
    rng = make_rng(seed)
    graph = Graph(name=name or f"gnp-{num_nodes}-{edge_probability}")
    for i in range(num_nodes):
        graph.add_node(i)
    for i, j in itertools.combinations(range(num_nodes), 2):
        if rng.random() < edge_probability:
            graph.add_edge(i, j)
    return graph


def random_regular_like_graph(num_nodes: int, degree: int, seed: SeedLike = None, name: str = "") -> Graph:
    """Return a random graph where every node has degree close to ``degree``.

    A simple configuration-model style pairing with rejection of self-loops and
    duplicate edges; the result is "regular-like" rather than exactly regular,
    which is sufficient for workload generation in sweeps and tests.
    """
    _check_positive("num_nodes", num_nodes)
    if degree < 0 or degree >= num_nodes:
        raise GraphError(f"degree must be in [0, {num_nodes - 1}], got {degree}")
    rng = make_rng(seed)
    graph = Graph(name=name or f"regular-{num_nodes}-{degree}")
    for i in range(num_nodes):
        graph.add_node(i)
    stubs = [node for node in range(num_nodes) for _ in range(degree)]
    rng.shuffle(stubs)
    for a, b in zip(stubs[0::2], stubs[1::2]):
        if a != b and not graph.has_edge(a, b):
            graph.add_edge(a, b)
    return graph


def random_planar_triangulation(num_points: int, seed: SeedLike = None, name: str = "") -> Graph:
    """Return a random planar graph via a Delaunay triangulation of random points.

    Delaunay triangulations of points in general position are planar and, by
    the four-colour theorem, 4-colorable — making them natural extra workloads
    for the 4-coloring experiments beyond the King's graph benchmarks.
    """
    if num_points < 3:
        raise GraphError(f"num_points must be at least 3, got {num_points}")
    from scipy.spatial import Delaunay

    rng = make_rng(seed)
    points = rng.random((num_points, 2))
    triangulation = Delaunay(points)
    graph = Graph(name=name or f"planar-{num_points}")
    for i in range(num_points):
        graph.add_node(i)
    for simplex in triangulation.simplices:
        a, b, c = (int(x) for x in simplex)
        graph.add_edge(a, b)
        graph.add_edge(b, c)
        graph.add_edge(a, c)
    return graph
