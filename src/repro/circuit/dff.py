"""D flip-flop and reference-signal models for the phase read-out.

The MSROPM samples each oscillator's output with a bank of DFFs clocked by
reference signals whose rising edges sit at the phases corresponding to the
Potts spins (Fig. 4(c) of the paper).  Under SHIL the oscillator phases are
absolute with respect to those references, so a simple edge-sample suffices:
exactly one of the K DFFs captures a logic high.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.exceptions import CircuitError
from repro.units import ghz


@dataclass
class DFlipFlop:
    """An edge-triggered D flip-flop with an ideal setup/hold window.

    Attributes
    ----------
    setup_time / hold_time:
        Timing window in seconds; a data transition inside the window makes
        the captured value metastable, which the model resolves pessimistically
        to ``False`` and flags via :attr:`last_sample_metastable`.
    """

    setup_time: float = 20e-12
    hold_time: float = 10e-12
    state: bool = False
    last_sample_metastable: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.setup_time < 0 or self.hold_time < 0:
            raise CircuitError("setup_time and hold_time must be non-negative")

    def sample(self, data: bool, data_transition_offset: Optional[float] = None) -> bool:
        """Capture ``data`` at a clock edge.

        ``data_transition_offset`` is the time (seconds) between the nearest
        data transition and the clock edge; if it falls inside the setup/hold
        window, the sample is flagged metastable and resolves to ``False``.
        """
        self.last_sample_metastable = False
        if data_transition_offset is not None:
            if -self.hold_time < data_transition_offset < self.setup_time:
                self.last_sample_metastable = True
                self.state = False
                return self.state
        self.state = bool(data)
        return self.state


@dataclass(frozen=True)
class ReferenceSignal:
    """A square reference waveform whose rising edge marks one Potts phase.

    Attributes
    ----------
    frequency:
        Reference frequency (equal to the oscillator fundamental).
    phase:
        Phase of the rising edge in radians relative to the global time origin.
    duty_cycle:
        High-time fraction; 0.5 for the paper's simplified external squares.
    """

    frequency: float = ghz(1.3)
    phase: float = 0.0
    duty_cycle: float = 0.5

    def __post_init__(self) -> None:
        if self.frequency <= 0:
            raise CircuitError("frequency must be positive")
        if not 0.0 < self.duty_cycle < 1.0:
            raise CircuitError(f"duty_cycle must be in (0, 1), got {self.duty_cycle}")

    def value(self, time: float) -> bool:
        """Logic level of the reference at ``time`` seconds."""
        cycle_position = math.fmod(self.frequency * time - self.phase / (2.0 * math.pi), 1.0)
        if cycle_position < 0:
            cycle_position += 1.0
        return cycle_position < self.duty_cycle

    def rising_edge_times(self, start: float, stop: float) -> np.ndarray:
        """Return the rising-edge instants in ``[start, stop)``."""
        if stop < start:
            raise CircuitError("stop must be >= start")
        period = 1.0 / self.frequency
        offset = self.phase / (2.0 * math.pi) * period
        first_index = math.ceil((start - offset) / period)
        edges = []
        index = first_index
        while offset + index * period < stop:
            edge = offset + index * period
            if edge >= start:
                edges.append(edge)
            index += 1
        return np.array(edges, dtype=float)


def reference_bank(num_phases: int, frequency: float = ghz(1.3)) -> List[ReferenceSignal]:
    """Return ``num_phases`` references with edges at the Potts lock phases.

    For 4-coloring this yields REF_1..REF_4 with rising edges at 0, 90, 180 and
    270 degrees of the oscillator period.
    """
    if num_phases < 2:
        raise CircuitError(f"num_phases must be at least 2, got {num_phases}")
    return [
        ReferenceSignal(frequency=frequency, phase=2.0 * math.pi * k / num_phases)
        for k in range(num_phases)
    ]
