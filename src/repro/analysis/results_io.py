"""Serialization of solve results to JSON.

Long experiments (the 40-iteration runs on the 2116-node problem) are worth
persisting so the analysis can be redone without re-simulating: the
runtime's result cache stores every solve in this form.  Results are stored as plain JSON: the graph (via the
graphs JSON codec), the per-iteration accuracies, seeds, stage records and
colorings.  Trajectories and phase arrays are intentionally *not* persisted —
they are large and can be regenerated from the recorded seeds.

Every payload is stamped with :data:`SCHEMA` and :data:`FORMAT_VERSION`, and
loading rejects any mismatch.  This is what the runtime's result cache
(:mod:`repro.runtime.cache`) relies on for clean invalidation: when the format
evolves, old cache entries fail to load, read as misses, and are recomputed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.exceptions import AnalysisError
from repro.core.results import IterationResult, SolveResult, StageResult
from repro.graphs.coloring import Coloring
from repro.graphs.io import from_json as graph_from_json
from repro.graphs.io import to_json as graph_to_json
from repro.graphs.partition import Bipartition

PathLike = Union[str, Path]

#: Schema identifier written into every results payload.  Together with
#: :data:`FORMAT_VERSION` it names the exact serialized layout; loaders reject
#: anything else, so downstream stores (the runtime's result cache keys its
#: entries by a hash that includes these) invalidate cleanly whenever the
#: result format evolves instead of deserializing stale shapes.
SCHEMA = "msropm/solve-result"

#: Format version written into every results file.  Bump on any layout change.
#: History: 2 — stage records with clipped accuracies.  3 — stages carry the
#: raw (unclipped) accuracy ratio alongside the [0, 1] paper metric.  4 — the
#: payload carries the result's execution ``metadata`` (precision tier, state
#: dtype, numpy version).
FORMAT_VERSION = 4


def solve_result_to_dict(result: SolveResult) -> Dict:
    """Convert a :class:`SolveResult` to a JSON-serializable dictionary."""
    node_order = result.graph.nodes
    iterations: List[Dict] = []
    for item in result.iterations:
        stages = []
        for stage in item.stage_results:
            stages.append(
                {
                    "stage_index": stage.stage_index,
                    "cut_value": stage.cut_value,
                    "reference_cut": stage.reference_cut,
                    "accuracy": stage.accuracy,
                    "raw_accuracy": stage.raw,
                    "side_b_indices": sorted(
                        index for index, node in enumerate(node_order) if node in stage.partition.side_b
                    ),
                }
            )
        iterations.append(
            {
                "iteration_index": item.iteration_index,
                "seed": item.seed,
                "accuracy": item.accuracy,
                "run_time": item.run_time,
                "colors": [item.coloring.color_of(node) for node in node_order],
                "stages": stages,
            }
        )
    return {
        "schema": SCHEMA,
        "format_version": FORMAT_VERSION,
        "num_colors": result.num_colors,
        "graph": json.loads(graph_to_json(result.graph)),
        "metadata": dict(result.metadata),
        "iterations": iterations,
    }


def solve_result_from_dict(payload: Dict) -> SolveResult:
    """Rebuild a :class:`SolveResult` from :func:`solve_result_to_dict` output."""
    if not isinstance(payload, dict) or "iterations" not in payload or "graph" not in payload:
        raise AnalysisError("malformed solve-result payload")
    schema = payload.get("schema")
    if schema != SCHEMA:
        raise AnalysisError(f"unsupported results schema {schema!r} (expected {SCHEMA!r})")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise AnalysisError(
            f"unsupported results format version {version!r} (expected {FORMAT_VERSION})"
        )
    graph = graph_from_json(json.dumps(payload["graph"]))
    num_colors = int(payload["num_colors"])
    node_order = graph.nodes
    iterations: List[IterationResult] = []
    for item in payload["iterations"]:
        coloring = Coloring.from_array(graph, item["colors"], num_colors)
        stages: List[StageResult] = []
        for stage in item.get("stages", []):
            side_b_indices = set(stage["side_b_indices"])
            side_b = frozenset(node for index, node in enumerate(node_order) if index in side_b_indices)
            side_a = frozenset(node for index, node in enumerate(node_order) if index not in side_b_indices)
            stages.append(
                StageResult(
                    stage_index=int(stage["stage_index"]),
                    partition=Bipartition(side_a=side_a, side_b=side_b),
                    cut_value=int(stage["cut_value"]),
                    reference_cut=int(stage["reference_cut"]),
                    accuracy=float(stage["accuracy"]),
                    raw_accuracy=float(stage["raw_accuracy"]),
                )
            )
        iterations.append(
            IterationResult(
                iteration_index=int(item["iteration_index"]),
                seed=int(item["seed"]),
                coloring=coloring,
                accuracy=float(item["accuracy"]),
                stage_results=stages,
                run_time=float(item.get("run_time", 0.0)),
            )
        )
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise AnalysisError("solve-result metadata must be a JSON object")
    return SolveResult(
        graph=graph, num_colors=num_colors, iterations=iterations, metadata=metadata
    )
