"""Exact coloring baselines.

The paper normalizes accuracy against exact solutions obtained with a generic
SAT solver.  Three exact engines are exposed:

* :func:`exact_coloring_sat` — the from-scratch DPLL solver on the direct CNF
  encoding (the general path, used for small/medium generic graphs),
* :func:`exact_coloring_backtracking` — a DSATUR-ordered backtracking search
  with forward checking (faster on small structured instances and a useful
  cross-check of the SAT path),
* :func:`exact_kings_coloring` — the closed-form proper 4-coloring of King's
  graphs (used for the large benchmark sizes where running a complete solver
  on a 2116-node instance would only re-derive the known pattern).

``exact_coloring`` dispatches between them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.exceptions import ColoringError
from repro.graphs.coloring import Coloring, kings_graph_reference_coloring
from repro.graphs.graph import Graph, Node
from repro.graphs.properties import is_kings_graph_shape
from repro.sat.coloring_sat import sat_coloring


def exact_kings_coloring(graph: Graph) -> Coloring:
    """Return the canonical proper 4-coloring of a King's graph.

    Raises :class:`ColoringError` if the graph is not a full King's graph on an
    integer lattice.
    """
    if not is_kings_graph_shape(graph):
        raise ColoringError("graph does not have the King's-graph degree signature")
    rows = 1 + max(node[0] for node in graph.nodes)
    cols = 1 + max(node[1] for node in graph.nodes)
    full = kings_graph_reference_coloring(rows, cols)
    assignment = {node: full.color_of(node) for node in graph.nodes}
    coloring = Coloring(assignment=assignment, num_colors=4)
    if not coloring.is_proper(graph):
        raise ColoringError("internal error: reference King's coloring is improper")
    return coloring


def exact_coloring_backtracking(
    graph: Graph, num_colors: int, max_nodes_expanded: int = 2_000_000
) -> Optional[Coloring]:
    """Exact K-coloring by DSATUR-ordered backtracking with forward checking.

    Returns ``None`` when the graph is not ``num_colors``-colorable; raises
    :class:`ColoringError` when the search exceeds ``max_nodes_expanded``.
    """
    if num_colors < 1:
        raise ColoringError(f"num_colors must be positive, got {num_colors}")
    nodes = graph.nodes
    if not nodes:
        return Coloring(assignment={}, num_colors=num_colors)
    index = graph.node_index()
    neighbors = {node: graph.neighbors(node) for node in nodes}

    assignment: Dict[Node, int] = {}
    domains: Dict[Node, set] = {node: set(range(num_colors)) for node in nodes}
    expanded = 0

    def select_node() -> Optional[Node]:
        unassigned = [node for node in nodes if node not in assignment]
        if not unassigned:
            return None
        # DSATUR: smallest remaining domain, then highest degree.
        return min(unassigned, key=lambda n: (len(domains[n]), -graph.degree(n), index[n]))

    def backtrack() -> bool:
        nonlocal expanded
        expanded += 1
        if expanded > max_nodes_expanded:
            raise ColoringError("backtracking search exceeded max_nodes_expanded")
        node = select_node()
        if node is None:
            return True
        for color in sorted(domains[node]):
            removed: List[Node] = []
            feasible = True
            for neighbor in neighbors[node]:
                if neighbor in assignment:
                    continue
                if color in domains[neighbor]:
                    domains[neighbor].discard(color)
                    removed.append(neighbor)
                    if not domains[neighbor]:
                        feasible = False
            if feasible:
                assignment[node] = color
                if backtrack():
                    return True
                del assignment[node]
            for neighbor in removed:
                domains[neighbor].add(color)
        return False

    if not backtrack():
        return None
    return Coloring(assignment=dict(assignment), num_colors=num_colors)


def exact_coloring_sat(graph: Graph, num_colors: int, max_decisions: Optional[int] = None) -> Optional[Coloring]:
    """Exact K-coloring via the from-scratch DPLL SAT solver (None = UNSAT)."""
    return sat_coloring(graph, num_colors, max_decisions=max_decisions)


def exact_coloring(graph: Graph, num_colors: int = 4, prefer: str = "auto") -> Optional[Coloring]:
    """Return an exact ``num_colors``-coloring, or ``None`` if none exists.

    ``prefer`` selects the engine: "auto" (King's closed form when applicable
    and ``num_colors`` >= 4, otherwise backtracking), "sat", "backtracking" or
    "kings".
    """
    if prefer not in ("auto", "sat", "backtracking", "kings"):
        raise ColoringError(f"unknown engine {prefer!r}")
    if prefer == "kings" or (prefer == "auto" and num_colors >= 4 and is_kings_graph_shape(graph)):
        coloring = exact_kings_coloring(graph)
        if coloring.num_colors <= num_colors:
            return Coloring(assignment=coloring.assignment, num_colors=num_colors)
        return coloring
    if prefer == "sat":
        return exact_coloring_sat(graph, num_colors)
    return exact_coloring_backtracking(graph, num_colors)
