"""Core MSROPM solver: configuration, staging, machine, metrics and results."""

from repro.core.config import MSROPMConfig
from repro.core.engine import (
    BatchedEngine,
    SequentialEngine,
    SolverEngine,
    get_engine,
)
from repro.core.machine import MSROPM
from repro.core.mapping import ProblemMapping, identity_mapping
from repro.core.metrics import (
    accuracy_statistics,
    coloring_accuracy,
    hamming_distance,
    min_hamming_distance,
    pairwise_hamming_distances,
    stage_correlation,
    success_probability,
)
from repro.core.results import IterationResult, SolveResult, StageResult
from repro.core.stages import (
    StageExecutor,
    binarize_against_offsets,
    group_offsets,
    partition_coupling_matrix,
)

__all__ = [
    "MSROPM",
    "MSROPMConfig",
    "SolverEngine",
    "SequentialEngine",
    "BatchedEngine",
    "get_engine",
    "ProblemMapping",
    "identity_mapping",
    "coloring_accuracy",
    "hamming_distance",
    "min_hamming_distance",
    "pairwise_hamming_distances",
    "accuracy_statistics",
    "stage_correlation",
    "success_probability",
    "IterationResult",
    "SolveResult",
    "StageResult",
    "StageExecutor",
    "group_offsets",
    "partition_coupling_matrix",
    "binarize_against_offsets",
]
