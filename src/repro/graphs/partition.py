"""Graph partitioning helpers for the divide-and-color stages.

Stage 1 of the MSROPM splits the graph into two vertex sets (a max-cut); the
couplings that cross the cut are then disabled (``P_EN``), leaving two
independent subproblems for stage 2.  These helpers express that operation on
plain graphs so both the machine and the software baselines can reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

from repro.exceptions import GraphError
from repro.graphs.graph import Graph, Node


@dataclass(frozen=True)
class Bipartition:
    """A split of a graph's nodes into two disjoint sets.

    The two sides correspond to the two SHIL-locked phase groups after
    stage 1: ``side_a`` holds the 0-degree-locked oscillators, ``side_b`` the
    180-degree-locked ones.
    """

    side_a: FrozenSet[Node]
    side_b: FrozenSet[Node]

    def __post_init__(self) -> None:
        overlap = self.side_a & self.side_b
        if overlap:
            raise GraphError(f"partition sides overlap on {sorted(map(repr, overlap))}")

    @classmethod
    def from_sets(cls, side_a: Iterable[Node], side_b: Iterable[Node]) -> "Bipartition":
        """Build a bipartition from two iterables of nodes."""
        return cls(side_a=frozenset(side_a), side_b=frozenset(side_b))

    @classmethod
    def from_labels(cls, labels: Mapping[Node, int]) -> "Bipartition":
        """Build a bipartition from a node → {0, 1} label mapping."""
        side_a = {node for node, label in labels.items() if label == 0}
        side_b = {node for node, label in labels.items() if label == 1}
        extra = set(labels) - side_a - side_b
        if extra:
            raise GraphError(f"labels must be 0 or 1; offending nodes: {sorted(map(repr, extra))}")
        return cls(side_a=frozenset(side_a), side_b=frozenset(side_b))

    @property
    def nodes(self) -> Set[Node]:
        """All nodes covered by the partition."""
        return set(self.side_a) | set(self.side_b)

    def side_of(self, node: Node) -> int:
        """Return 0 if ``node`` is on side A, 1 if on side B."""
        if node in self.side_a:
            return 0
        if node in self.side_b:
            return 1
        raise GraphError(f"node {node!r} not covered by partition")

    def labels(self) -> Dict[Node, int]:
        """Return the node → side mapping."""
        result = {node: 0 for node in self.side_a}
        result.update({node: 1 for node in self.side_b})
        return result

    def covers(self, graph: Graph) -> bool:
        """Return ``True`` if every node of ``graph`` is assigned to a side."""
        return all(node in self.side_a or node in self.side_b for node in graph.nodes)


def cut_edges(graph: Graph, partition: Bipartition) -> List[Tuple[Node, Node]]:
    """Return the edges of ``graph`` that cross the partition."""
    if not partition.covers(graph):
        raise GraphError("partition does not cover every graph node")
    crossing = []
    for u, v in graph.edges():
        if partition.side_of(u) != partition.side_of(v):
            crossing.append((u, v))
    return crossing


def cut_size(graph: Graph, partition: Bipartition) -> int:
    """Return the number of edges crossing the partition (the cut value)."""
    return len(cut_edges(graph, partition))


def partition_from_coloring_bit(coloring_labels: Mapping[Node, int], bit: int) -> Bipartition:
    """Derive a bipartition from one bit of integer color labels.

    For 4-coloring via two max-cut stages, color ``c`` in ``{0..3}`` decomposes
    into bit 1 (the stage-1 partition) and bit 0 (the stage-2 partition within
    each side).
    """
    if bit < 0:
        raise GraphError(f"bit must be non-negative, got {bit}")
    side_a = {node for node, color in coloring_labels.items() if not (int(color) >> bit) & 1}
    side_b = {node for node, color in coloring_labels.items() if (int(color) >> bit) & 1}
    return Bipartition(side_a=frozenset(side_a), side_b=frozenset(side_b))
