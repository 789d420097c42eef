"""Structural graph properties and chromatic-number bounds.

These are used by the test-suite to validate generators (e.g. a King's graph
interior node has degree 8), by the experiment harness to report workload
statistics, and by the solvers to pick sensible defaults (e.g. the greedy
bound ``Delta + 1`` on the chromatic number).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.graphs.coloring import dsatur_coloring
from repro.graphs.graph import Graph, Node


def degree_statistics(graph: Graph) -> Dict[str, float]:
    """Return min / max / mean degree and the edge density of ``graph``."""
    if graph.num_nodes == 0:
        return {"min": 0.0, "max": 0.0, "mean": 0.0, "density": 0.0}
    degrees = np.array([graph.degree(node) for node in graph.nodes], dtype=float)
    n = graph.num_nodes
    max_edges = n * (n - 1) / 2
    density = graph.num_edges / max_edges if max_edges > 0 else 0.0
    return {
        "min": float(degrees.min()),
        "max": float(degrees.max()),
        "mean": float(degrees.mean()),
        "density": float(density),
    }


def is_bipartite(graph: Graph) -> bool:
    """Return ``True`` if ``graph`` is bipartite (2-colorable)."""
    return two_coloring(graph) is not None


def two_coloring(graph: Graph) -> Optional[Dict[Node, int]]:
    """Return a proper 2-coloring if one exists, else ``None`` (BFS check)."""
    colors: Dict[Node, int] = {}
    for start in graph.nodes:
        if start in colors:
            continue
        colors[start] = 0
        queue = [start]
        while queue:
            node = queue.pop()
            for neighbor in graph.neighbors(node):
                if neighbor not in colors:
                    colors[neighbor] = 1 - colors[node]
                    queue.append(neighbor)
                elif colors[neighbor] == colors[node]:
                    return None
    return colors


def max_clique_lower_bound(graph: Graph) -> int:
    """Return a greedy lower bound on the clique number (hence on chromatic number)."""
    if graph.num_nodes == 0:
        return 0
    best = 1
    for seed in graph.nodes:
        clique: Set[Node] = {seed}
        candidates = graph.neighbors(seed)
        while candidates:
            # Pick the candidate with the most connections into the remaining candidates.
            node = max(candidates, key=lambda n: (len(graph.neighbors(n) & candidates), -graph.node_index()[n]))
            clique.add(node)
            candidates = candidates & graph.neighbors(node)
        best = max(best, len(clique))
    return best


def greedy_chromatic_upper_bound(graph: Graph) -> int:
    """Return the number of colors used by DSATUR (an upper bound on chi)."""
    if graph.num_nodes == 0:
        return 0
    return len(dsatur_coloring(graph).used_colors())


def chromatic_number_bounds(graph: Graph) -> Tuple[int, int]:
    """Return ``(lower, upper)`` bounds on the chromatic number."""
    if graph.num_nodes == 0:
        return (0, 0)
    lower = max_clique_lower_bound(graph)
    if is_bipartite(graph):
        lower = max(lower, 1 if graph.num_edges == 0 else 2)
        return (lower, max(lower, 1 if graph.num_edges == 0 else 2))
    upper = greedy_chromatic_upper_bound(graph)
    return (lower, max(lower, upper))


def is_kings_graph_shape(graph: Graph) -> bool:
    """Heuristically check that ``graph`` looks like a full King's graph.

    Checks the degree signature: corner nodes have degree 3, edge nodes 5, and
    interior nodes 8.  Only meaningful for graphs generated on an ``(r, c)``
    integer lattice.
    """
    if graph.num_nodes == 0:
        return False
    try:
        rows = 1 + max(node[0] for node in graph.nodes)
        cols = 1 + max(node[1] for node in graph.nodes)
    except (TypeError, IndexError):
        return False
    if rows * cols != graph.num_nodes:
        return False
    for node in graph.nodes:
        r, c = node
        on_row_border = r in (0, rows - 1)
        on_col_border = c in (0, cols - 1)
        if rows == 1 or cols == 1:
            continue  # degenerate boards: skip the signature check
        if on_row_border and on_col_border:
            expected = 3
        elif on_row_border or on_col_border:
            expected = 5
        else:
            expected = 8
        if graph.degree(node) != expected:
            return False
    return True
