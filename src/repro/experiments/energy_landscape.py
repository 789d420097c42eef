"""Self-annealing diagnostics: energy descent and phase-discretization traces.

The paper's Figure 3 narrative rests on two dynamical behaviours: during the
coupled annealing intervals the oscillators "self-anneal" towards contended
ground states (the vector-Potts energy decreases), and during the SHIL
intervals the phases binarize onto the lock grid (the 2nd-harmonic Kuramoto
order parameter rises towards 1).  This experiment instruments one full
MSROPM run and extracts both traces per control interval, providing the
quantitative backing for the Fig. 3 discussion and a regression check that the
machine actually anneals rather than merely quantizing random phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import MSROPMConfig
from repro.core.machine import MSROPM
from repro.core.stages import partition_coupling_matrix
from repro.dynamics.kuramoto import CoupledOscillatorModel
from repro.graphs.generators import kings_graph
from repro.graphs.graph import Graph
from repro.ising.vector_potts import vector_potts_energy


@dataclass
class IntervalTrace:
    """Energy and discretization statistics over one control interval."""

    label: str
    start_time: float
    end_time: float
    energy_start: float
    energy_end: float
    binarization_start: float
    binarization_end: float

    @property
    def energy_drop(self) -> float:
        """Energy decrease over the interval (positive = descent)."""
        return self.energy_start - self.energy_end

    @property
    def binarization_gain(self) -> float:
        """Increase of the 2nd-harmonic order parameter over the interval."""
        return self.binarization_end - self.binarization_start


@dataclass
class EnergyLandscapeResult:
    """Per-interval traces of one instrumented MSROPM run."""

    graph: Graph
    accuracy: float
    intervals: List[IntervalTrace] = field(default_factory=list)

    def interval(self, label: str) -> IntervalTrace:
        """Return the trace of the interval with the given label."""
        for item in self.intervals:
            if item.label == label:
                return item
        raise KeyError(f"no interval labelled {label!r}")

    def total_energy_drop(self) -> float:
        """Summed energy decrease over the annealing intervals."""
        return sum(item.energy_drop for item in self.intervals if item.label.startswith("anneal"))


def _interval_boundaries(config: MSROPMConfig) -> List[Tuple[str, float, float]]:
    """Return (label, start, end) for every control interval of the run."""
    timing = config.timing
    boundaries: List[Tuple[str, float, float]] = []
    time = 0.0
    for stage in range(1, config.num_stages + 1):
        for label, duration in (
            (f"init-{stage}", timing.initialization),
            (f"anneal-{stage}", timing.annealing),
            (f"shil-{stage}", timing.shil_settling),
        ):
            boundaries.append((label, time, time + duration))
            time += duration
    return boundaries


def run_energy_landscape(
    rows: int = 5,
    cols: int = 5,
    config: Optional[MSROPMConfig] = None,
    seed: int = 21,
) -> EnergyLandscapeResult:
    """Instrument one MSROPM run and extract per-interval energy/binarization traces.

    The energy is the coupling (vector-Potts) energy of the *full* problem
    graph with unit edge weights, so values are comparable across intervals
    even though the active coupling matrix changes when the partition gating
    kicks in.  The binarization measure is the 2nd-harmonic Kuramoto order
    parameter, which is ~0 for uniformly spread phases and 1 for perfectly
    SHIL-locked phases.
    """
    config = config or MSROPMConfig(num_colors=4, seed=seed, record_every=1)
    graph = kings_graph(rows, cols)
    machine = MSROPM(graph, config)
    iteration = machine.run_iteration(seed=seed, collect_trajectory=True)
    trajectory = iteration.trajectory
    if trajectory is None:
        raise RuntimeError("trajectory collection was requested but not produced")

    # Reference model used only for its order-parameter helper (no dynamics run).
    reference = CoupledOscillatorModel(
        coupling_matrix=partition_coupling_matrix(
            graph.edge_index_array(), np.zeros(graph.num_nodes, dtype=int), graph.num_nodes, 1.0
        )
    )

    intervals: List[IntervalTrace] = []
    for label, start, end in _interval_boundaries(config):
        phases_start = trajectory.at_time(start)
        phases_end = trajectory.at_time(end)
        intervals.append(
            IntervalTrace(
                label=label,
                start_time=start,
                end_time=end,
                energy_start=vector_potts_energy(graph, phases_start, default_coupling=1.0),
                energy_end=vector_potts_energy(graph, phases_end, default_coupling=1.0),
                binarization_start=reference.order_parameter(phases_start, harmonic=2),
                binarization_end=reference.order_parameter(phases_end, harmonic=2),
            )
        )
    return EnergyLandscapeResult(graph=graph, accuracy=iteration.accuracy, intervals=intervals)


def render_energy_landscape(result: EnergyLandscapeResult) -> str:
    """Render the per-interval traces as an aligned text table."""
    from repro.analysis.reporting import format_table

    rows = []
    for item in result.intervals:
        rows.append(
            [
                item.label,
                f"{item.start_time * 1e9:.0f}-{item.end_time * 1e9:.0f} ns",
                f"{item.energy_start:+.1f}",
                f"{item.energy_end:+.1f}",
                f"{item.binarization_start:.2f}",
                f"{item.binarization_end:.2f}",
            ]
        )
    table = format_table(
        ("interval", "window", "energy start", "energy end", "2nd-harm. order start", "2nd-harm. order end"),
        rows,
        title="Self-annealing diagnostics (coupling energy and phase binarization per interval)",
    )
    return table + f"\n\nFinal 4-coloring accuracy of the instrumented run: {result.accuracy:.3f}"
