"""The vector (phase-interaction) Potts Hamiltonian (Eq. 2 and Eq. 4).

Oscillator-based Ising/Potts machines do not manipulate discrete spins
directly; they evolve continuous oscillator phases whose interaction energy
is::

    H(theta) = sum_{i,j} J_ij * cos(theta_i - theta_j)

For an N-phase Potts machine the phases are (ideally) locked to the N values
``2*pi*s/N``.  This module evaluates the continuous Hamiltonian and quantizes
phases to spins — the bridge between the dynamics layer and the discrete
models.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ReproError
from repro.graphs.graph import Graph

TWO_PI = 2.0 * np.pi


def wrap_phase(theta):
    """Wrap phases into ``[0, 2*pi)`` (elementwise for arrays)."""
    return np.mod(theta, TWO_PI)


def vector_potts_energy(problem_graph: Graph, phases: np.ndarray, coupling_matrix=None, default_coupling: float = -1.0) -> float:
    """Evaluate ``sum_edges J_ij cos(theta_i - theta_j)``.

    Parameters
    ----------
    problem_graph:
        Interaction graph; phases are aligned with ``problem_graph.nodes``.
    phases:
        Array of oscillator phases (radians).
    coupling_matrix:
        Optional symmetric coupling matrix (sparse or dense).  When omitted a
        uniform ``default_coupling`` per edge is used.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (problem_graph.num_nodes,):
        raise ReproError(
            f"expected {problem_graph.num_nodes} phases, got shape {phases.shape}"
        )
    if coupling_matrix is None:
        edges = problem_graph.edge_index_array()
        if edges.shape[0] == 0:
            return 0.0
        diffs = phases[edges[:, 0]] - phases[edges[:, 1]]
        return float(default_coupling * np.sum(np.cos(diffs)))
    matrix = coupling_matrix
    if hasattr(matrix, "toarray"):
        matrix = matrix.toarray()
    matrix = np.asarray(matrix, dtype=float)
    cos_matrix = np.cos(phases[:, None] - phases[None, :])
    return float(0.5 * np.sum(matrix * cos_matrix))


def phases_to_spins(phases: np.ndarray, num_states: int, offset: float = 0.0) -> np.ndarray:
    """Quantize phases to the nearest of the N lock points.

    Parameters
    ----------
    phases:
        Oscillator phases in radians.
    num_states:
        Number of allowed Potts values.
    offset:
        Global reference offset subtracted before quantization.  The hardware
        read-out samples phases against reference signals; a common-mode
        offset (e.g. the phase of the reference oscillator) must not change
        the decoded spins.
    """
    phases = wrap_phase(np.asarray(phases, dtype=float) - offset)
    step = TWO_PI / num_states
    spins = np.rint(phases / step).astype(int) % num_states
    return spins
