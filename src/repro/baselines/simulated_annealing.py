"""Simulated-annealing baselines for Potts coloring and max-cut.

Simulated annealing (SA) is the standard software baseline for Ising/Potts
machines (the RTWO Ising machine the paper compares against uses SA as its
reference).  Two annealers are provided: a Potts/coloring annealer that moves
single-node colors, and a max-cut annealer that flips single-node sides.  Both
use a geometric temperature schedule and track the best configuration seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graphs.coloring import Coloring
from repro.graphs.graph import Graph
from repro.graphs.partition import Bipartition
from repro.ising.maxcut import MaxCutProblem
from repro.rng import SeedLike, make_rng


@dataclass(frozen=True)
class AnnealingSchedule:
    """Geometric cooling schedule for the annealers."""

    initial_temperature: float = 2.0
    final_temperature: float = 0.01
    sweeps: int = 200

    def __post_init__(self) -> None:
        if self.initial_temperature <= 0 or self.final_temperature <= 0:
            raise ConfigurationError("temperatures must be positive")
        if self.final_temperature > self.initial_temperature:
            raise ConfigurationError("final_temperature must not exceed initial_temperature")
        if self.sweeps < 1:
            raise ConfigurationError("sweeps must be at least 1")

    def temperature(self, sweep: int) -> float:
        """Temperature at sweep index ``sweep`` (0-based, geometric interpolation)."""
        if self.sweeps == 1:
            return self.final_temperature
        fraction = sweep / (self.sweeps - 1)
        ratio = self.final_temperature / self.initial_temperature
        return float(self.initial_temperature * ratio ** fraction)


def anneal_coloring(
    graph: Graph,
    num_colors: int,
    schedule: Optional[AnnealingSchedule] = None,
    seed: SeedLike = None,
    initial: Optional[Coloring] = None,
) -> Coloring:
    """Simulated annealing on the Potts (coloring) energy.

    The energy is the number of monochromatic edges; single-node recolorings
    are accepted with the Metropolis criterion.  Returns the best coloring seen.
    """
    if num_colors < 2:
        raise ConfigurationError(f"num_colors must be at least 2, got {num_colors}")
    schedule = schedule or AnnealingSchedule()
    rng = make_rng(seed)
    nodes = graph.nodes
    index = graph.node_index()
    neighbors = [np.array([index[m] for m in graph.neighbors(n)], dtype=int) for n in nodes]

    if initial is not None:
        colors = initial.as_array(graph).copy()
        if initial.num_colors > num_colors:
            raise ConfigurationError("initial coloring uses more colors than allowed")
    else:
        colors = rng.integers(0, num_colors, size=len(nodes))

    def conflicts_of(i: int, color: int) -> int:
        if neighbors[i].size == 0:
            return 0
        return int(np.sum(colors[neighbors[i]] == color))

    energy = sum(conflicts_of(i, colors[i]) for i in range(len(nodes))) // 2
    best_colors = colors.copy()
    best_energy = energy

    for sweep in range(schedule.sweeps):
        temperature = schedule.temperature(sweep)
        order = rng.permutation(len(nodes))
        for i in order:
            old_color = colors[i]
            new_color = int(rng.integers(0, num_colors))
            if new_color == old_color:
                continue
            delta = conflicts_of(i, new_color) - conflicts_of(i, old_color)
            if delta <= 0 or rng.random() < np.exp(-delta / temperature):
                colors[i] = new_color
                energy += delta
                if energy < best_energy:
                    best_energy = energy
                    best_colors = colors.copy()
        if best_energy == 0:
            break
    return Coloring.from_array(graph, best_colors, num_colors)


def anneal_maxcut(
    problem: MaxCutProblem,
    schedule: Optional[AnnealingSchedule] = None,
    seed: SeedLike = None,
) -> Bipartition:
    """Simulated annealing on the max-cut objective (maximize the cut weight)."""
    schedule = schedule or AnnealingSchedule()
    rng = make_rng(seed)
    graph = problem.graph
    nodes = graph.nodes
    index = graph.node_index()
    sides = rng.integers(0, 2, size=len(nodes))
    neighbor_data = []
    for node in nodes:
        neigh = list(graph.neighbors(node))
        neighbor_data.append(
            (
                np.array([index[m] for m in neigh], dtype=int),
                np.array([problem.weight(node, m) for m in neigh], dtype=float),
            )
        )

    def flip_gain(i: int) -> float:
        neigh, weights = neighbor_data[i]
        if neigh.size == 0:
            return 0.0
        same = sides[neigh] == sides[i]
        # Flipping i cuts currently-uncut (same-side) edges and un-cuts cut ones.
        return float(np.sum(weights[same]) - np.sum(weights[~same]))

    def total_cut() -> float:
        value = 0.0
        for u, v in graph.edges():
            if sides[index[u]] != sides[index[v]]:
                value += problem.weight(u, v)
        return value

    best_sides = sides.copy()
    best_cut = total_cut()
    current_cut = best_cut
    for sweep in range(schedule.sweeps):
        temperature = schedule.temperature(sweep)
        order = rng.permutation(len(nodes))
        for i in order:
            gain = flip_gain(i)
            if gain >= 0 or rng.random() < np.exp(gain / temperature):
                sides[i] = 1 - sides[i]
                current_cut += gain
                if current_cut > best_cut:
                    best_cut = current_cut
                    best_sides = sides.copy()
    labels = {node: int(best_sides[index[node]]) for node in nodes}
    return Bipartition.from_labels(labels)
