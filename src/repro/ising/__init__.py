"""Ising, vector-Potts and max-cut model layer (Eqs. 1, 2 and 4 of the paper)."""

from repro.ising.ising_model import IsingProblem, spins_to_labels
from repro.ising.vector_potts import (
    phases_to_spins,
    vector_potts_energy,
    wrap_phase,
)
from repro.ising.maxcut import (
    MaxCutProblem,
    kings_graph_reference_cut,
)

__all__ = [
    "IsingProblem",
    "MaxCutProblem",
    "spins_to_labels",
    "wrap_phase",
    "vector_potts_energy",
    "phases_to_spins",
    "kings_graph_reference_cut",
]
