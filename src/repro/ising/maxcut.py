"""Max-cut problem utilities.

Stage 1 of the MSROPM solves a max-cut on the problem graph (the paper's
"2-partitioning"); stage 2 solves one max-cut per partition.  This module
defines the max-cut objective on top of :class:`Bipartition`, its relation to
the antiferromagnetic Ising energy, and reference cut values for the
benchmark King's graphs (derived from the known proper 4-coloring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.exceptions import ReproError
from repro.graphs.coloring import kings_graph_reference_coloring
from repro.graphs.graph import Graph, Node
from repro.graphs.partition import Bipartition, cut_size, partition_from_coloring_bit
from repro.ising.ising_model import IsingProblem, spins_to_labels


@dataclass
class MaxCutProblem:
    """A max-cut instance with optional per-edge weights (default weight 1)."""

    graph: Graph
    weights: Optional[Dict[Tuple[Node, Node], float]] = None

    def weight(self, u: Node, v: Node) -> float:
        """Return the weight of edge ``(u, v)``."""
        if not self.graph.has_edge(u, v):
            raise ReproError(f"({u!r}, {v!r}) is not an edge of the graph")
        if self.weights is None:
            return 1.0
        if (u, v) in self.weights:
            return self.weights[(u, v)]
        if (v, u) in self.weights:
            return self.weights[(v, u)]
        return 1.0

    def total_weight(self) -> float:
        """Return the sum of all edge weights (an upper bound on any cut)."""
        return sum(self.weight(u, v) for u, v in self.graph.edges())

    def cut_value(self, partition: Bipartition) -> float:
        """Return the total weight of edges crossing ``partition``."""
        if not partition.covers(self.graph):
            raise ReproError("partition does not cover the problem graph")
        value = 0.0
        for u, v in self.graph.edges():
            if partition.side_of(u) != partition.side_of(v):
                value += self.weight(u, v)
        return value

    def cut_value_from_spins(self, spins: Mapping[Node, int]) -> float:
        """Cut value of a +/-1 spin assignment (spins disagree across the cut)."""
        labels = spins_to_labels(spins)
        return self.cut_value(Bipartition.from_labels(labels))

    def to_ising(self, strength: float = 1.0) -> IsingProblem:
        """Return the anti-aligning Ising problem whose ground state is the max-cut.

        Under Eq. (1)'s sign convention the anti-aligning coupling is
        ``J_ij = +strength * w_ij``, and the Ising energy satisfies
        ``H(s) = strength * (W - 2 * cut(s))`` where ``W`` is the total edge
        weight, so minimizing the energy maximizes the cut.
        """
        if strength <= 0:
            raise ReproError(f"strength must be positive, got {strength}")
        couplings = {
            (u, v): strength * self.weight(u, v) for u, v in self.graph.edges()
        }
        return IsingProblem(graph=self.graph, couplings=couplings, default_coupling=strength)

    def accuracy(self, partition: Bipartition, reference_cut: Optional[float] = None) -> float:
        """Return the raw ratio ``cut / reference_cut`` (may exceed 1.0).

        When ``reference_cut`` is omitted the total edge weight is used, which
        is exact for bipartite graphs and a safe upper bound otherwise.  When a
        heuristic reference is supplied, a better-than-reference cut yields a
        ratio above 1.0 — it is reported as-is so callers can see it; display
        code clips via :func:`repro.analysis.reporting.present_accuracy`.
        """
        reference = reference_cut if reference_cut is not None else self.total_weight()
        if reference <= 0:
            return 1.0
        return float(self.cut_value(partition) / reference)


def kings_graph_reference_cut(rows: int, cols: int) -> int:
    """Return the stage-1 reference cut value for a ``rows x cols`` King's graph.

    The reference is the cut induced by the canonical 4-coloring's high bit
    (colors {0,1} vs {2,3}), i.e. a row-parity striping.  It is the cut the
    divide-and-color decomposition needs stage 1 to find so that the two
    residual subproblems are bipartite, and serves as the normalization for
    the paper's stage-1 accuracy plots.
    """
    if rows <= 0 or cols <= 0:
        raise ReproError(f"rows and cols must be positive, got {rows}x{cols}")
    coloring = kings_graph_reference_coloring(rows, cols)
    partition = partition_from_coloring_bit(coloring.assignment, bit=1)
    from repro.graphs.generators import kings_graph

    graph = kings_graph(rows, cols)
    return cut_size(graph, partition)
