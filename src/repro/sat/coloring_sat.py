"""Graph coloring → CNF encoding and SAT-based exact coloring.

The encoding is the standard direct encoding: one Boolean variable
``x_{v,k}`` per (vertex, color), "at least one color" and "at most one color"
clauses per vertex, and "different colors" clauses per edge.  Static symmetry
breaking fixes the colors of one maximal clique, which makes structured
instances (grids, King's graphs) propagate almost entirely without search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exceptions import SATError
from repro.graphs.coloring import Coloring
from repro.graphs.graph import Graph, Node
from repro.sat.cnf import CNF
from repro.sat.solver import SATResult, solve_cnf


@dataclass
class ColoringEncodingSAT:
    """A CNF encoding of the K-coloring of a graph, with its variable map."""

    graph: Graph
    num_colors: int
    formula: CNF
    variable_map: Dict[Tuple[Node, int], int]

    def decode(self, result: SATResult) -> Coloring:
        """Decode a satisfying assignment back into a :class:`Coloring`."""
        if not result.is_sat or result.assignment is None:
            raise SATError("cannot decode a non-SAT result")
        assignment: Dict[Node, int] = {}
        for node in self.graph.nodes:
            chosen: Optional[int] = None
            for color in range(self.num_colors):
                if result.assignment.get(self.variable_map[(node, color)], False):
                    chosen = color
                    break
            if chosen is None:
                raise SATError(f"node {node!r} has no color set in the SAT model")
            assignment[node] = chosen
        return Coloring(assignment=assignment, num_colors=self.num_colors)


def encode_coloring(graph: Graph, num_colors: int, symmetry_breaking: bool = True) -> ColoringEncodingSAT:
    """Build the direct CNF encoding of the ``num_colors``-coloring of ``graph``."""
    if num_colors < 1:
        raise SATError(f"num_colors must be positive, got {num_colors}")
    formula = CNF()
    variable_map: Dict[Tuple[Node, int], int] = {}
    for node in graph.nodes:
        for color in range(num_colors):
            variable_map[(node, color)] = formula.new_variable()
    for node in graph.nodes:
        literals = [variable_map[(node, color)] for color in range(num_colors)]
        formula.add_exactly_one(literals)
    for u, v in graph.edges():
        for color in range(num_colors):
            formula.add_clause([-variable_map[(u, color)], -variable_map[(v, color)]])
    if symmetry_breaking and graph.num_nodes:
        for position, node in enumerate(_greedy_clique(graph)):
            if position >= num_colors:
                break
            formula.add_clause([variable_map[(node, position)]])
    return ColoringEncodingSAT(graph=graph, num_colors=num_colors, formula=formula, variable_map=variable_map)


def _greedy_clique(graph: Graph) -> List[Node]:
    """Return a greedily grown clique starting from a maximum-degree node."""
    if graph.num_nodes == 0:
        return []
    start = max(graph.nodes, key=lambda node: (graph.degree(node), -graph.node_index()[node]))
    clique = [start]
    candidates = graph.neighbors(start)
    while candidates:
        node = max(candidates, key=lambda n: (len(graph.neighbors(n) & candidates), -graph.node_index()[n]))
        clique.append(node)
        candidates = candidates & graph.neighbors(node)
    return clique


def sat_coloring(graph: Graph, num_colors: int, max_decisions: Optional[int] = None) -> Optional[Coloring]:
    """Return a proper ``num_colors``-coloring found by the SAT solver, or None.

    ``None`` means the instance is unsatisfiable (not ``num_colors``-colorable).
    A search aborted by ``max_decisions`` raises so an "unknown" outcome is
    never silently confused with UNSAT.
    """
    encoding = encode_coloring(graph, num_colors)
    result = solve_cnf(encoding.formula, max_decisions=max_decisions)
    if result.is_unknown:
        raise SATError("SAT search aborted by the decision limit; result unknown")
    if result.is_unsat:
        return None
    coloring = encoding.decode(result)
    if not coloring.is_proper(graph):
        raise SATError("internal error: SAT model decodes to an improper coloring")
    return coloring
