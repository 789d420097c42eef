"""The classical Ising model (Eq. 1 of the paper).

The Ising Hamiltonian used here follows the paper's convention (external
field ignored)::

    H(s) = sum_{i,j} J_ij * s_i * s_j ,   s_i in {-1, +1}

A *problem* is a symmetric coupling matrix over the nodes of a graph.  Note
the sign convention: because Eq. (1) carries no leading minus sign, a
*positive* ``J_ij`` penalizes aligned spins, i.e. neighbouring spins prefer to
differ — the behaviour that B2B-inverter ("negative" / inverting) couplings
between ring oscillators physically realize and that max-cut / coloring
problems need.  Circuit diagrams label the inverting medium ``J < 0``; that
label refers to the inverting nature of the medium, not to the sign of
``J_ij`` in Eq. (1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

import numpy as np
from scipy import sparse

from repro.exceptions import ReproError
from repro.graphs.graph import Graph, Node
from repro.rng import SeedLike, make_rng


@dataclass
class IsingProblem:
    """An Ising problem: a graph plus per-edge coupling strengths.

    Attributes
    ----------
    graph:
        The interaction graph.
    couplings:
        Mapping from edge (as stored by :meth:`Graph.edges`, i.e. ordered by
        node index) to the coupling value ``J_ij``.  Edges not present default
        to ``default_coupling``.
    default_coupling:
        Coupling used for edges missing from ``couplings``.
    """

    graph: Graph
    couplings: Dict[Tuple[Node, Node], float] = field(default_factory=dict)
    default_coupling: float = -1.0

    def __post_init__(self) -> None:
        for (u, v) in self.couplings:
            if not self.graph.has_edge(u, v):
                raise ReproError(f"coupling given for non-edge ({u!r}, {v!r})")

    # ------------------------------------------------------------------
    def coupling(self, u: Node, v: Node) -> float:
        """Return ``J_uv`` (symmetric lookup)."""
        if not self.graph.has_edge(u, v):
            raise ReproError(f"({u!r}, {v!r}) is not an edge of the problem graph")
        if (u, v) in self.couplings:
            return self.couplings[(u, v)]
        if (v, u) in self.couplings:
            return self.couplings[(v, u)]
        return self.default_coupling

    def coupling_matrix(self, dense: bool = False):
        """Return the symmetric coupling matrix ``J`` in node-index order.

        Returns a CSR sparse matrix by default, or a dense array when
        ``dense=True``.
        """
        index = self.graph.node_index()
        n = self.graph.num_nodes
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for u, v in self.graph.edges():
            value = self.coupling(u, v)
            i, j = index[u], index[v]
            rows.extend((i, j))
            cols.extend((j, i))
            vals.extend((value, value))
        matrix = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
        if dense:
            return matrix.toarray()
        return matrix

    # ------------------------------------------------------------------
    def energy(self, spins: Mapping[Node, int]) -> float:
        """Return ``H(s) = sum_edges J_ij s_i s_j`` for a +/-1 spin assignment."""
        total = 0.0
        for u, v in self.graph.edges():
            su, sv = spins[u], spins[v]
            _validate_spin(su, u)
            _validate_spin(sv, v)
            total += self.coupling(u, v) * su * sv
        return total

    def energy_from_array(self, spins: np.ndarray) -> float:
        """Vectorized energy for spins aligned with ``graph.nodes``."""
        spins = np.asarray(spins, dtype=float)
        if spins.shape != (self.graph.num_nodes,):
            raise ReproError(
                f"expected {self.graph.num_nodes} spins, got shape {spins.shape}"
            )
        if not np.all(np.isin(spins, (-1.0, 1.0))):
            raise ReproError("spins must be +/-1")
        matrix = self.coupling_matrix()
        return float(0.5 * spins @ (matrix @ spins))

    def ground_state_energy_bound(self) -> float:
        """Return the trivial lower bound ``-sum |J_ij|`` on the energy."""
        return -sum(abs(self.coupling(u, v)) for u, v in self.graph.edges())

    def random_spins(self, seed: SeedLike = None) -> Dict[Node, int]:
        """Return a uniformly random +/-1 spin assignment."""
        rng = make_rng(seed)
        values = rng.integers(0, 2, size=self.graph.num_nodes) * 2 - 1
        return {node: int(spin) for node, spin in zip(self.graph.nodes, values)}

    @classmethod
    def antiferromagnetic(cls, graph: Graph, strength: float = 1.0) -> "IsingProblem":
        """Uniform anti-aligning couplings — the max-cut / coloring configuration.

        Under Eq. (1) (no leading minus sign) this means ``J_ij = +strength``:
        the energy is minimized when as many neighbouring spins as possible
        disagree, so the ground state is a maximum cut.  This is the behaviour
        the inverting B2B couplings implement.
        """
        if strength <= 0:
            raise ReproError(f"strength must be positive, got {strength}")
        return cls(graph=graph, couplings={}, default_coupling=float(strength))

    @classmethod
    def ferromagnetic(cls, graph: Graph, strength: float = 1.0) -> "IsingProblem":
        """Uniform aligning couplings (neighbouring spins prefer to agree).

        Under Eq. (1) this means ``J_ij = -strength``.
        """
        if strength <= 0:
            raise ReproError(f"strength must be positive, got {strength}")
        return cls(graph=graph, couplings={}, default_coupling=-float(strength))


def _validate_spin(value: int, node: Node) -> None:
    if value not in (-1, 1):
        raise ReproError(f"spin of node {node!r} must be +/-1, got {value!r}")


def spins_to_labels(spins: Mapping[Node, int]) -> Dict[Node, int]:
    """Map +/-1 spins to {0, 1} labels (+1 -> 0, -1 -> 1)."""
    labels = {}
    for node, spin in spins.items():
        _validate_spin(spin, node)
        labels[node] = 0 if spin == 1 else 1
    return labels
