"""Figure 3 reproduction: simulated ROSC waveforms across the computation cycles.

Figure 3 of the paper shows transistor-level waveforms of a few oscillators as
the MSROPM progresses through its five phases: (a) couplings on, (b) SHIL 1
injection and 2-phase binarization, (c) SHIL and couplings off for
re-initialization, (d) partitioned couplings on, and (e) SHIL 1 / SHIL 2
injection producing 4-phase stability.

The phase-domain reproduction runs a small King's graph with full trajectory
recording, reconstructs the oscillator output voltages from the phases, and
reports per-interval phase statistics (how many distinct phase clusters exist
in each interval — 2 after the first SHIL, 4 after the second).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import MSROPMConfig
from repro.core.machine import MSROPM
from repro.core.results import IterationResult
from repro.dynamics.integrators import Trajectory
from repro.dynamics.waveform import WaveformSet, reconstruct_waveforms
from repro.graphs.generators import kings_graph
from repro.ising.vector_potts import phases_to_spins


@dataclass
class IntervalSnapshot:
    """Phase statistics at the end of one control interval."""

    label: str
    end_time: float
    num_phase_clusters: int
    cluster_populations: Dict[int, int]


@dataclass
class Figure3Result:
    """The Figure 3 reproduction: trajectory, waveforms and interval snapshots."""

    iteration: IterationResult
    trajectory: Trajectory
    waveforms: WaveformSet
    snapshots: List[IntervalSnapshot] = field(default_factory=list)
    traced_oscillators: Sequence[int] = ()

    @property
    def final_num_clusters(self) -> int:
        """Number of distinct phase clusters at the end of the run (4 for 4-coloring)."""
        return self.snapshots[-1].num_phase_clusters if self.snapshots else 0


def _cluster_phases(phases: np.ndarray, num_grid: int = 8) -> Dict[int, int]:
    """Histogram phases onto a fine grid and return the occupied grid points."""
    spins = phases_to_spins(phases, num_grid)
    populations: Dict[int, int] = {}
    for spin in spins:
        populations[int(spin)] = populations.get(int(spin), 0) + 1
    return populations


def run_figure3(
    rows: int = 4,
    cols: int = 4,
    config: Optional[MSROPMConfig] = None,
    seed: int = 7,
    num_traced_oscillators: int = 4,
    samples_per_period: int = 16,
) -> Figure3Result:
    """Simulate a small MSROPM run with full trajectory recording.

    A 4x4 King's graph keeps the waveform reconstruction small while showing
    every stage transition of Fig. 3; the traced oscillators are the first
    ``num_traced_oscillators`` nodes of the board.
    """
    config = config or MSROPMConfig(num_colors=4, seed=seed, record_every=1)
    graph = kings_graph(rows, cols)
    machine = MSROPM(graph, config)
    iteration = machine.run_iteration(iteration_index=0, seed=seed, collect_trajectory=True)
    trajectory = iteration.trajectory
    if trajectory is None:
        raise RuntimeError("trajectory collection was requested but not produced")

    traced = list(range(min(num_traced_oscillators, graph.num_nodes)))
    waveforms = reconstruct_waveforms(
        trajectory,
        traced,
        frequency=config.oscillator_frequency,
        samples_per_period=samples_per_period,
    )

    # Interval snapshots at each control boundary of the 2-stage schedule.
    timing = config.timing
    boundaries = []
    labels = []
    time = 0.0
    for stage in (1, 2):
        for label, duration in (
            (f"init-{stage}", timing.initialization),
            (f"anneal-{stage}", timing.annealing),
            (f"shil-{stage}", timing.shil_settling),
        ):
            time += duration
            boundaries.append(time)
            labels.append(label)

    snapshots: List[IntervalSnapshot] = []
    for label, boundary in zip(labels, boundaries):
        phases = trajectory.at_time(boundary)
        populations = _cluster_phases(phases)
        snapshots.append(
            IntervalSnapshot(
                label=label,
                end_time=boundary,
                num_phase_clusters=len(populations),
                cluster_populations=populations,
            )
        )
    return Figure3Result(
        iteration=iteration,
        trajectory=trajectory,
        waveforms=waveforms,
        snapshots=snapshots,
        traced_oscillators=traced,
    )


def render_figure3(result: Figure3Result) -> str:
    """Render the Figure 3 reproduction as text (interval summary + ASCII waveforms)."""
    lines: List[str] = ["Figure 3: MSROPM computation cycles (phase-domain reproduction)"]
    for snapshot in result.snapshots:
        lines.append(
            f"  t = {snapshot.end_time * 1e9:5.1f} ns  after {snapshot.label:9s}  "
            f"occupied phase bins (of 8): {snapshot.num_phase_clusters}"
        )
    lines.append("")
    lines.append(f"Final 4-coloring accuracy of the traced run: {result.iteration.accuracy:.3f}")
    lines.append("")
    for index in list(result.traced_oscillators)[:2]:
        lines.append(f"Oscillator {index} output (reconstructed, full run):")
        lines.append(result.waveforms.as_ascii(index, width=72, height=6))
        lines.append("")
    return "\n".join(lines)
