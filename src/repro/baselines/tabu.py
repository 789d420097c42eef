"""TabuCol: tabu-search graph coloring baseline.

TabuCol (Hertz & de Werra) is the classical local-search coloring heuristic:
moves recolor a conflicting node, recently reversed moves are tabu for a
number of iterations proportional to the current conflict count, and aspiring
moves (that beat the best solution) override the tabu.  It is used as an
additional software baseline alongside simulated annealing, mirroring how the
1,968-node ROIM the paper compares against was evaluated against tabu search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graphs.coloring import Coloring
from repro.graphs.graph import Graph
from repro.rng import SeedLike, make_rng


@dataclass(frozen=True)
class TabuParameters:
    """TabuCol search parameters."""

    max_iterations: int = 5000
    tabu_base: int = 7
    tabu_conflict_factor: float = 0.6

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be at least 1")
        if self.tabu_base < 0:
            raise ConfigurationError("tabu_base must be non-negative")
        if self.tabu_conflict_factor < 0:
            raise ConfigurationError("tabu_conflict_factor must be non-negative")


def tabucol(
    graph: Graph,
    num_colors: int,
    parameters: Optional[TabuParameters] = None,
    seed: SeedLike = None,
    initial: Optional[Coloring] = None,
) -> Coloring:
    """Run TabuCol and return the best coloring found (possibly improper)."""
    if num_colors < 2:
        raise ConfigurationError(f"num_colors must be at least 2, got {num_colors}")
    parameters = parameters or TabuParameters()
    rng = make_rng(seed)
    nodes = graph.nodes
    n = len(nodes)
    index = graph.node_index()
    neighbors = [np.array([index[m] for m in graph.neighbors(node)], dtype=int) for node in nodes]

    if initial is not None:
        colors = initial.as_array(graph).copy()
        if initial.num_colors > num_colors:
            raise ConfigurationError("initial coloring uses more colors than allowed")
    else:
        colors = rng.integers(0, num_colors, size=n)

    # conflict_table[i, c] = number of neighbours of i currently colored c.
    conflict_table = np.zeros((n, num_colors), dtype=int)
    for i in range(n):
        for j in neighbors[i]:
            conflict_table[i, colors[j]] += 1

    def total_conflicts() -> int:
        return int(sum(conflict_table[i, colors[i]] for i in range(n)) // 2)

    conflicts = total_conflicts()
    best_colors = colors.copy()
    best_conflicts = conflicts
    tabu_until = np.zeros((n, num_colors), dtype=int)

    for iteration in range(parameters.max_iterations):
        if best_conflicts == 0:
            break
        conflicting = [i for i in range(n) if conflict_table[i, colors[i]] > 0]
        if not conflicting:
            best_colors = colors.copy()
            best_conflicts = 0
            break
        best_move: Optional[Tuple[int, int]] = None
        best_delta = None
        for i in conflicting:
            current = conflict_table[i, colors[i]]
            for color in range(num_colors):
                if color == colors[i]:
                    continue
                delta = conflict_table[i, color] - current
                is_tabu = tabu_until[i, color] > iteration
                aspiration = conflicts + delta < best_conflicts
                if is_tabu and not aspiration:
                    continue
                if best_delta is None or delta < best_delta or (delta == best_delta and rng.random() < 0.5):
                    best_delta = delta
                    best_move = (i, color)
        if best_move is None:
            # Every move is tabu: pick a random conflicting node and color.
            i = int(rng.choice(conflicting))
            color = int(rng.integers(0, num_colors))
            best_move = (i, color)
            best_delta = conflict_table[i, color] - conflict_table[i, colors[i]]
        i, new_color = best_move
        old_color = colors[i]
        tenure = parameters.tabu_base + int(parameters.tabu_conflict_factor * len(conflicting))
        tabu_until[i, old_color] = iteration + tenure
        colors[i] = new_color
        for j in neighbors[i]:
            conflict_table[j, old_color] -= 1
            conflict_table[j, new_color] += 1
        conflicts += best_delta if best_delta is not None else 0
        if conflicts < best_conflicts:
            best_conflicts = conflicts
            best_colors = colors.copy()

    return Coloring.from_array(graph, best_colors, num_colors)
