"""Oscillator-fabric netlist: the structural view of a mapped problem.

A :class:`FabricNetlist` ties together one ROSC block per graph node, one
gated B2B coupling per graph edge, and the per-oscillator SHIL MUX / read-out
blocks.  It is the bridge between the problem graph and both the dynamics
simulation (which consumes the coupling matrix and SHIL routing) and the power
model (which consumes the block counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

import numpy as np
from scipy import sparse

from repro.exceptions import MappingError
from repro.circuit.coupling import CouplingElement, b2b_coupling
from repro.circuit.mux import ShilMux
from repro.circuit.readout import PhaseReadout
from repro.circuit.ring_oscillator import RingOscillator, paper_rosc
from repro.circuit.shil import ShilSource, shil1, shil2
from repro.graphs.graph import Graph, Node


@dataclass
class FabricNetlist:
    """The structural netlist of an MSROPM instance.

    Parameters
    ----------
    graph:
        The mapped problem graph (one oscillator per node, one coupling per edge).
    oscillator:
        ROSC block model shared by all nodes.
    coupling_strength:
        Normalized strength programmed into every B2B coupling.
    shil_strength:
        Normalized injection strength of both SHIL sources.
    num_colors:
        Read-out resolution (4 for the paper's 4-coloring).
    """

    graph: Graph
    oscillator: RingOscillator = field(default_factory=paper_rosc)
    coupling_strength: float = 0.1
    shil_strength: float = 0.2
    num_colors: int = 4

    def __post_init__(self) -> None:
        if self.graph.num_nodes == 0:
            raise MappingError("cannot build a fabric for an empty graph")
        if self.coupling_strength < 0 or self.shil_strength < 0:
            raise MappingError("coupling_strength and shil_strength must be non-negative")
        if self.num_colors < 2:
            raise MappingError(f"num_colors must be at least 2, got {self.num_colors}")
        frequency = self.oscillator.natural_frequency
        self._shil_1 = shil1(frequency, strength=self.shil_strength)
        self._shil_2 = shil2(frequency, strength=self.shil_strength)
        self._couplings: Dict[Tuple[Node, Node], CouplingElement] = {
            edge: b2b_coupling(self.coupling_strength) for edge in self.graph.edges()
        }
        self._muxes: Dict[Node, ShilMux] = {
            node: ShilMux(shil_a=self._shil_1, shil_b=self._shil_2) for node in self.graph.nodes
        }
        self._readout = PhaseReadout(num_phases=self.num_colors, frequency=frequency)

    # ------------------------------------------------------------------
    @property
    def num_oscillators(self) -> int:
        """Number of ROSC blocks (graph nodes)."""
        return self.graph.num_nodes

    @property
    def num_couplings(self) -> int:
        """Number of B2B coupling blocks (graph edges)."""
        return self.graph.num_edges

    @property
    def shil_sources(self) -> Tuple[ShilSource, ShilSource]:
        """The two phase-shifted SHIL sources (SHIL 1, SHIL 2)."""
        return (self._shil_1, self._shil_2)

    @property
    def readout(self) -> PhaseReadout:
        """The shared phase read-out block model."""
        return self._readout

    def coupling_element(self, u: Node, v: Node) -> CouplingElement:
        """Return the coupling element on edge ``(u, v)``."""
        if (u, v) in self._couplings:
            return self._couplings[(u, v)]
        if (v, u) in self._couplings:
            return self._couplings[(v, u)]
        raise MappingError(f"({u!r}, {v!r}) is not an edge of the mapped graph")

    def mux(self, node: Node) -> ShilMux:
        """Return the SHIL MUX of ``node``'s oscillator block."""
        try:
            return self._muxes[node]
        except KeyError as exc:
            raise MappingError(f"node {node!r} is not mapped to an oscillator") from exc

    # ------------------------------------------------------------------
    def apply_partition_gating(self, partition_labels: Mapping[Node, int]) -> int:
        """Drive ``P_EN`` low on every coupling that crosses the partition.

        Returns the number of couplings gated off.  ``partition_labels`` maps
        every node to its stage-1 side (0 or 1); it also programs ``SHIL_SEL``
        so side-1 oscillators receive SHIL 2 in the final stage.
        """
        gated = 0
        for (u, v), element in self._couplings.items():
            label_u = partition_labels.get(u)
            label_v = partition_labels.get(v)
            if label_u is None or label_v is None:
                raise MappingError("partition labels must cover every mapped node")
            crosses = label_u != label_v
            element.set_partition_enable(not crosses)
            if crosses:
                gated += 1
        for node, mux in self._muxes.items():
            mux.set_select(int(partition_labels[node]))
        return gated

    def clear_partition_gating(self) -> None:
        """Re-enable every coupling and reset ``SHIL_SEL`` to SHIL 1."""
        for element in self._couplings.values():
            element.set_partition_enable(True)
        for mux in self._muxes.values():
            mux.set_select(0)

    def set_shil_enabled(self, value: bool) -> None:
        """Drive ``SHIL_EN`` on every oscillator block."""
        for mux in self._muxes.values():
            mux.set_enabled(value)

    # ------------------------------------------------------------------
    def coupling_matrix(self, respect_partition: bool = True) -> sparse.csr_matrix:
        """Return the effective (Kuramoto) coupling matrix in node-index order.

        Entries are the *positive* coupling strengths of conducting elements;
        the anti-phase (negative Ising) character of B2B couplings is applied
        by the dynamics layer, which uses this matrix with a repulsive sign.
        Couplings gated off by ``P_EN`` are included only when
        ``respect_partition`` is False.
        """
        index = self.graph.node_index()
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for (u, v), element in self._couplings.items():
            if not element.enabled:
                continue
            if respect_partition and not element.partition_enabled:
                continue
            i, j = index[u], index[v]
            rows.extend((i, j))
            cols.extend((j, i))
            vals.extend((element.strength, element.strength))
        n = self.graph.num_nodes
        return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))

    def shil_offsets(self) -> np.ndarray:
        """Return the per-oscillator fundamental lock-grid offsets (radians).

        Oscillators whose MUX selects SHIL 1 get offset 0; those on SHIL 2 get
        pi/2 — together they realize the 4-phase discretization.
        """
        offsets = np.zeros(self.graph.num_nodes, dtype=float)
        index = self.graph.node_index()
        for node, mux in self._muxes.items():
            source = mux.shil_a if mux.select == 0 else mux.shil_b
            offsets[index[node]] = source.fundamental_offset
        return offsets

    def shil_selects(self) -> np.ndarray:
        """Return the per-oscillator ``SHIL_SEL`` values (0 or 1)."""
        selects = np.zeros(self.graph.num_nodes, dtype=int)
        index = self.graph.node_index()
        for node, mux in self._muxes.items():
            selects[index[node]] = mux.select
        return selects
