"""Solution-quality metrics used in the paper's evaluation.

* ``coloring_accuracy`` — the fraction of edges whose endpoints receive
  different colors, normalized so an exact solution of a 4-colorable graph
  scores 1.0 (Sec. 4: "the normalized number of correctly colored neighbors").
* ``hamming_distance`` / ``min_hamming_distance`` — normalized disagreement
  between two solutions; the label-invariant variant minimizes over color
  permutations because a proper coloring is only defined up to renaming.
* ``pairwise_hamming_distances`` — the statistic histogrammed in Fig. 5(c).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence

import numpy as np

from repro.exceptions import AnalysisError
from repro.graphs.coloring import Coloring
from repro.graphs.graph import Graph, Node


def coloring_accuracy(graph: Graph, coloring: Coloring) -> float:
    """Fraction of edges with differently colored endpoints (1.0 = proper)."""
    if not coloring.covers(graph):
        raise AnalysisError("coloring does not cover every node of the graph")
    return coloring.accuracy(graph)


def hamming_distance(first: Coloring, second: Coloring, nodes: Sequence[Node]) -> float:
    """Plain normalized Hamming distance over ``nodes`` (no label matching)."""
    if not nodes:
        raise AnalysisError("node list must not be empty")
    disagreements = sum(1 for node in nodes if first.color_of(node) != second.color_of(node))
    return disagreements / len(nodes)


def min_hamming_distance(first: Coloring, second: Coloring, nodes: Sequence[Node]) -> float:
    """Label-invariant Hamming distance: minimized over color permutations.

    Proper colorings are equivalence classes under color renaming, so two
    solutions that differ only by a permutation of the palette are "the same"
    solution and should have distance 0.  The number of colors is small (4 in
    the paper), so exhaustive minimization over ``K!`` permutations is cheap.
    """
    if not nodes:
        raise AnalysisError("node list must not be empty")
    num_colors = max(first.num_colors, second.num_colors)
    if num_colors > 6:
        raise AnalysisError("label-invariant Hamming distance supports at most 6 colors")
    first_colors = np.array([first.color_of(node) for node in nodes])
    second_colors = np.array([second.color_of(node) for node in nodes])
    best = 1.0
    for permutation in itertools.permutations(range(num_colors)):
        mapped = np.array([permutation[color] for color in second_colors])
        distance = float(np.mean(first_colors != mapped))
        best = min(best, distance)
        if best == 0.0:
            break
    return best


def pairwise_hamming_distances(
    colorings: Sequence[Coloring],
    nodes: Sequence[Node],
    label_invariant: bool = False,
) -> np.ndarray:
    """All pairwise Hamming distances among a set of solutions (Fig. 5(c)).

    The paper histogramms the raw (label-sensitive) distances, which is the
    default here; pass ``label_invariant=True`` for the permutation-minimized
    variant.
    """
    if len(colorings) < 2:
        return np.zeros(0, dtype=float)
    distances: List[float] = []
    for a, b in itertools.combinations(range(len(colorings)), 2):
        if label_invariant:
            distances.append(min_hamming_distance(colorings[a], colorings[b], nodes))
        else:
            distances.append(hamming_distance(colorings[a], colorings[b], nodes))
    return np.array(distances, dtype=float)


def accuracy_statistics(accuracies: Sequence[float]) -> Dict[str, float]:
    """Best / worst / mean / std summary of per-iteration accuracies."""
    if len(accuracies) == 0:
        raise AnalysisError("accuracy list must not be empty")
    values = np.asarray(accuracies, dtype=float)
    return {
        "best": float(values.max()),
        "worst": float(values.min()),
        "mean": float(values.mean()),
        "std": float(values.std()),
        "count": int(values.size),
    }


def stage_correlation(stage1_accuracies: Sequence[float], final_accuracies: Sequence[float]) -> float:
    """Pearson correlation between stage-1 (max-cut) and final (coloring) accuracy.

    The paper observes a positive correlation (Sec. 4.1); degenerate inputs
    (constant series) return 0.0 rather than NaN.
    """
    stage1 = np.asarray(stage1_accuracies, dtype=float)
    final = np.asarray(final_accuracies, dtype=float)
    if stage1.shape != final.shape or stage1.size < 2:
        raise AnalysisError("need two equal-length series with at least two samples")
    if np.allclose(stage1.std(), 0.0) or np.allclose(final.std(), 0.0):
        return 0.0
    return float(np.corrcoef(stage1, final)[0, 1])


def success_probability(accuracies: Sequence[float], threshold: float = 1.0) -> float:
    """Fraction of iterations reaching at least ``threshold`` accuracy."""
    if len(accuracies) == 0:
        raise AnalysisError("accuracy list must not be empty")
    values = np.asarray(accuracies, dtype=float)
    return float(np.mean(values >= threshold - 1e-12))
