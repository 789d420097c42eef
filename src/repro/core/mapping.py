"""Problem → oscillator-fabric mapping.

A problem graph is mapped one node per ROSC and one edge per B2B coupling.
Physical fabrics have a fixed sparse topology (the paper uses King's-graph
connectivity with nearest-neighbour couplings), so mapping also validates that
the problem's edges are realizable on the fabric and computes the ``L_EN``
programming (which couplings are enabled).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.exceptions import MappingError
from repro.graphs.graph import Graph, Node


@dataclass
class ProblemMapping:
    """The assignment of problem nodes to fabric oscillators.

    Attributes
    ----------
    problem_graph:
        The logical problem graph.
    fabric_graph:
        The physical coupling topology (defaults to the problem graph itself,
        i.e. a fabric fabricated to match the problem, as in the paper's
        custom implementations).
    placement:
        Mapping from problem node to fabric node.
    """

    problem_graph: Graph
    fabric_graph: Graph
    placement: Dict[Node, Node]

    def __post_init__(self) -> None:
        if set(self.placement.keys()) != set(self.problem_graph.nodes):
            raise MappingError("placement must cover exactly the problem graph's nodes")
        placed = list(self.placement.values())
        if len(set(placed)) != len(placed):
            raise MappingError("placement must be injective (one oscillator per problem node)")
        for fabric_node in placed:
            if not self.fabric_graph.has_node(fabric_node):
                raise MappingError(f"fabric node {fabric_node!r} does not exist")
        for u, v in self.problem_graph.edges():
            if not self.fabric_graph.has_edge(self.placement[u], self.placement[v]):
                raise MappingError(
                    f"problem edge ({u!r}, {v!r}) has no physical coupling between "
                    f"{self.placement[u]!r} and {self.placement[v]!r}"
                )

    # ------------------------------------------------------------------
    @property
    def num_used_oscillators(self) -> int:
        """Number of fabric oscillators actually used."""
        return len(self.placement)

    @property
    def utilization(self) -> float:
        """Fraction of fabric oscillators used by the problem."""
        return self.num_used_oscillators / self.fabric_graph.num_nodes

    def enabled_couplings(self) -> List[Tuple[Node, Node]]:
        """Fabric edges whose ``L_EN`` must be asserted (problem edges)."""
        return [
            (self.placement[u], self.placement[v]) for u, v in self.problem_graph.edges()
        ]

    def disabled_couplings(self) -> List[Tuple[Node, Node]]:
        """Fabric edges left unprogrammed (``L_EN`` low)."""
        enabled = set()
        for u, v in self.enabled_couplings():
            enabled.add((u, v))
            enabled.add((v, u))
        return [edge for edge in self.fabric_graph.edges() if edge not in enabled]

    def oscillator_of(self, problem_node: Node) -> Node:
        """Return the fabric oscillator assigned to ``problem_node``."""
        try:
            return self.placement[problem_node]
        except KeyError as exc:
            raise MappingError(f"problem node {problem_node!r} is not placed") from exc


def identity_mapping(problem_graph: Graph) -> ProblemMapping:
    """Map a problem onto a fabric built exactly for it (the paper's setting)."""
    placement = {node: node for node in problem_graph.nodes}
    return ProblemMapping(problem_graph=problem_graph, fabric_graph=problem_graph, placement=placement)
