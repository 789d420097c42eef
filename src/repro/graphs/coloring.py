"""Graph coloring data structures, validity checks and classical heuristics.

A *coloring* maps every node of a graph to an integer color ``0 .. K-1``.  The
MSROPM produces colorings by reading out oscillator phases; the DSATUR
heuristic here gives quick upper bounds on the chromatic number, and the
closed-form King's graph coloring is the reference solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ColoringError
from repro.graphs.graph import Graph, Node


@dataclass
class Coloring:
    """An assignment of integer colors to graph nodes.

    Attributes
    ----------
    assignment:
        Mapping from node to color (non-negative integer).
    num_colors:
        The number of colors the assignment is allowed to use (``K`` in
        K-coloring).  Colors must lie in ``[0, num_colors)``.
    """

    assignment: Dict[Node, int]
    num_colors: int

    def __post_init__(self) -> None:
        if self.num_colors <= 0:
            raise ColoringError(f"num_colors must be positive, got {self.num_colors}")
        for node, color in self.assignment.items():
            if not isinstance(color, (int, np.integer)):
                raise ColoringError(f"color of node {node!r} must be an integer, got {color!r}")
            if not 0 <= int(color) < self.num_colors:
                raise ColoringError(
                    f"color {color} of node {node!r} outside [0, {self.num_colors})"
                )
        # Normalize numpy integers to Python ints for stable hashing/serialization.
        self.assignment = {node: int(color) for node, color in self.assignment.items()}

    # ------------------------------------------------------------------
    def color_of(self, node: Node) -> int:
        """Return the color assigned to ``node``."""
        try:
            return self.assignment[node]
        except KeyError as exc:
            raise ColoringError(f"node {node!r} has no assigned color") from exc

    def covers(self, graph: Graph) -> bool:
        """Return ``True`` if every node of ``graph`` has a color."""
        return all(node in self.assignment for node in graph.nodes)

    def used_colors(self) -> Set[int]:
        """Return the set of colors actually used."""
        return set(self.assignment.values())

    def color_classes(self) -> Dict[int, Set[Node]]:
        """Return the partition of nodes into color classes."""
        classes: Dict[int, Set[Node]] = {}
        for node, color in self.assignment.items():
            classes.setdefault(color, set()).add(node)
        return classes

    def as_array(self, graph: Graph) -> np.ndarray:
        """Return the coloring as an integer array in the graph's node order."""
        if not self.covers(graph):
            raise ColoringError("coloring does not cover every node of the graph")
        return np.array([self.assignment[node] for node in graph.nodes], dtype=np.int64)

    @classmethod
    def from_array(cls, graph: Graph, colors: Sequence[int], num_colors: int) -> "Coloring":
        """Build a coloring from an array aligned with ``graph.nodes``."""
        colors = list(colors)
        if len(colors) != graph.num_nodes:
            raise ColoringError(
                f"expected {graph.num_nodes} colors, got {len(colors)}"
            )
        assignment = {node: int(color) for node, color in zip(graph.nodes, colors)}
        return cls(assignment=assignment, num_colors=num_colors)

    # ------------------------------------------------------------------
    def conflicting_edges(self, graph: Graph) -> List[Tuple[Node, Node]]:
        """Return the edges whose endpoints share a color (coloring violations)."""
        conflicts = []
        for u, v in graph.edges():
            if self.assignment.get(u) == self.assignment.get(v) and u in self.assignment:
                conflicts.append((u, v))
        return conflicts

    def num_conflicts(self, graph: Graph) -> int:
        """Return the number of monochromatic (violating) edges."""
        return len(self.conflicting_edges(graph))

    def is_proper(self, graph: Graph) -> bool:
        """Return ``True`` if the coloring is proper (no monochromatic edge)."""
        return self.covers(graph) and self.num_conflicts(graph) == 0

    def accuracy(self, graph: Graph) -> float:
        """Return the fraction of edges whose endpoints have different colors.

        This is the paper's accuracy metric for 4-colorable graphs: the
        normalized count of correctly colored neighbours, which equals 1.0 for
        an exact solution.
        """
        num_edges = graph.num_edges
        if num_edges == 0:
            return 1.0
        return 1.0 - self.num_conflicts(graph) / num_edges

    def relabeled(self, permutation: Mapping[int, int]) -> "Coloring":
        """Return a coloring with colors renamed by ``permutation``.

        Proper colorings are invariant under color permutations; metrics like
        the Hamming distance must account for that (see
        :func:`repro.core.metrics.min_hamming_distance`).
        """
        missing = self.used_colors() - set(permutation)
        if missing:
            raise ColoringError(f"permutation missing colors {sorted(missing)}")
        new_assignment = {node: int(permutation[color]) for node, color in self.assignment.items()}
        return Coloring(assignment=new_assignment, num_colors=self.num_colors)


def dsatur_coloring(graph: Graph, num_colors: Optional[int] = None) -> Coloring:
    """DSATUR coloring: always color the node with the highest saturation next.

    DSATUR colors King's graphs, grids and other structured planar graphs
    optimally in practice and serves as a strong classical baseline.
    """
    assignment: Dict[Node, int] = {}
    saturation: Dict[Node, Set[int]] = {node: set() for node in graph.nodes}
    uncolored = set(graph.nodes)
    while uncolored:
        node = max(
            uncolored,
            key=lambda n: (len(saturation[n]), graph.degree(n), -_stable_rank(graph, n)),
        )
        taken = saturation[node]
        color = 0
        while color in taken:
            color += 1
        assignment[node] = color
        uncolored.discard(node)
        for neighbor in graph.neighbors(node):
            if neighbor in uncolored:
                saturation[neighbor].add(color)
    highest = max(assignment.values(), default=-1) + 1
    return Coloring(assignment=assignment, num_colors=max(highest, num_colors or 1))


def _stable_rank(graph: Graph, node: Node) -> int:
    """Deterministic tie-breaking rank based on node insertion order."""
    return graph.node_index()[node]


def kings_graph_reference_coloring(rows: int, cols: int) -> Coloring:
    """Return the canonical proper 4-coloring of a ``rows x cols`` King's graph.

    The pattern assigns color ``2*(r % 2) + (c % 2)`` so every 2x2 block gets
    all four colors — no two king-adjacent cells share a color.  This is the
    exact solution the paper's SAT baseline would find (up to color renaming)
    and is used as ground truth in the accuracy experiments.
    """
    if rows <= 0 or cols <= 0:
        raise ColoringError(f"rows and cols must be positive, got {rows}x{cols}")
    assignment = {(r, c): 2 * (r % 2) + (c % 2) for r in range(rows) for c in range(cols)}
    return Coloring(assignment=assignment, num_colors=4)
