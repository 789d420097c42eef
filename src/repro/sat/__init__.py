"""SAT substrate: CNF representation, DPLL solver, coloring encoder."""

from repro.sat.cnf import CNF, negate, variable_of
from repro.sat.solver import DPLLSolver, SATResult, solve_cnf
from repro.sat.coloring_sat import (
    ColoringEncodingSAT,
    encode_coloring,
    sat_coloring,
)

__all__ = [
    "CNF",
    "negate",
    "variable_of",
    "DPLLSolver",
    "SATResult",
    "solve_cnf",
    "ColoringEncodingSAT",
    "encode_coloring",
    "sat_coloring",
]
