"""Voltage-waveform reconstruction from phase trajectories (Fig. 3).

The phase-domain model evolves only the oscillator phases; to reproduce the
paper's waveform figure the phases are re-expanded into ring-oscillator output
voltages.  An 11-stage inverter ring produces a quasi-square output, so the
reconstruction offers both an ideal square wave and a band-limited
(harmonic-sum) approximation that looks like the simulated transistor-level
traces, plus the SHIL and reference square waves for annotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.dynamics.integrators import Trajectory
from repro.units import ghz


def phase_to_voltage(
    times: np.ndarray,
    phases: np.ndarray,
    frequency: float = ghz(1.3),
    supply_voltage: float = 1.0,
    shape: str = "harmonic",
    num_harmonics: int = 5,
) -> np.ndarray:
    """Convert instantaneous phases into oscillator output voltages.

    Parameters
    ----------
    times:
        1-D array of time points (seconds).
    phases:
        Phases at those time points, shape ``(len(times),)`` for one oscillator
        or ``(len(times), num_oscillators)``.
    frequency:
        Carrier (oscillation) frequency in hertz.
    supply_voltage:
        Output swing: voltages lie in ``[0, supply_voltage]``.
    shape:
        "sine", "square", or "harmonic" (odd-harmonic sum approximating the
        quasi-square ROSC output).
    num_harmonics:
        Number of odd harmonics for the "harmonic" shape.
    """
    times = np.asarray(times, dtype=float)
    phases = np.asarray(phases, dtype=float)
    if phases.shape[0] != times.shape[0]:
        raise SimulationError("times and phases must share their first dimension")
    if frequency <= 0 or supply_voltage <= 0:
        raise SimulationError("frequency and supply_voltage must be positive")
    if shape not in ("sine", "square", "harmonic"):
        raise SimulationError(f"shape must be 'sine', 'square' or 'harmonic', got {shape!r}")
    if num_harmonics < 1:
        raise SimulationError("num_harmonics must be at least 1")

    if phases.ndim == 1:
        argument = 2.0 * np.pi * frequency * times + phases
    else:
        argument = 2.0 * np.pi * frequency * times[:, None] + phases

    if shape == "sine":
        normalized = np.sin(argument)
    elif shape == "square":
        normalized = np.sign(np.sin(argument))
    else:
        normalized = np.zeros_like(argument)
        for k in range(num_harmonics):
            harmonic = 2 * k + 1
            normalized += np.sin(harmonic * argument) / harmonic
        normalized *= 4.0 / np.pi
        normalized = np.clip(normalized, -1.0, 1.0)
    return supply_voltage * (normalized + 1.0) / 2.0


@dataclass
class WaveformSet:
    """Reconstructed waveforms for a subset of oscillators over a trajectory."""

    times: np.ndarray
    voltages: np.ndarray
    oscillator_indices: Sequence[int]
    frequency: float

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.voltages = np.asarray(self.voltages, dtype=float)
        if self.voltages.shape[0] != self.times.shape[0]:
            raise SimulationError("times and voltages must share their first dimension")
        if self.voltages.shape[1] != len(self.oscillator_indices):
            raise SimulationError("one voltage column per requested oscillator is required")

    def voltage_of(self, oscillator_index: int) -> np.ndarray:
        """Return the voltage trace of the oscillator with the given global index."""
        try:
            column = list(self.oscillator_indices).index(oscillator_index)
        except ValueError as exc:
            raise SimulationError(f"oscillator {oscillator_index} not in this waveform set") from exc
        return self.voltages[:, column]

    def as_ascii(self, oscillator_index: int, width: int = 72, height: int = 8) -> str:
        """Render one oscillator's waveform as a small ASCII plot (for reports)."""
        trace = self.voltage_of(oscillator_index)
        if len(trace) == 0:
            return ""
        resampled = np.interp(
            np.linspace(0, len(trace) - 1, width), np.arange(len(trace)), trace
        )
        low, high = float(resampled.min()), float(resampled.max())
        span = high - low if high > low else 1.0
        rows = []
        for level in range(height, 0, -1):
            threshold = low + span * (level - 0.5) / height
            rows.append("".join("#" if value >= threshold else " " for value in resampled))
        return "\n".join(rows)


def reconstruct_waveforms(
    trajectory: Trajectory,
    oscillator_indices: Sequence[int],
    frequency: float = ghz(1.3),
    supply_voltage: float = 1.0,
    samples_per_period: int = 32,
    shape: str = "harmonic",
) -> WaveformSet:
    """Re-sample a phase trajectory onto a carrier-resolving time grid and expand to voltages.

    The phase trajectory is typically stored every few carrier periods; the
    waveform view needs tens of samples per period, so phases are linearly
    interpolated onto a finer grid before the carrier is reintroduced.
    """
    if samples_per_period < 4:
        raise SimulationError("samples_per_period must be at least 4")
    indices = list(oscillator_indices)
    if not indices:
        raise SimulationError("at least one oscillator index is required")
    start, stop = float(trajectory.times[0]), float(trajectory.times[-1])
    if stop <= start:
        raise SimulationError("trajectory must span a positive duration")
    num_samples = max(2, int((stop - start) * frequency * samples_per_period))
    # Guard against pathological memory use on very long trajectories.
    num_samples = min(num_samples, 2_000_000)
    fine_times = np.linspace(start, stop, num_samples)
    fine_phases = np.empty((num_samples, len(indices)), dtype=float)
    for column, index in enumerate(indices):
        fine_phases[:, column] = np.interp(fine_times, trajectory.times, trajectory.phases[:, index])
    voltages = phase_to_voltage(
        fine_times, fine_phases, frequency=frequency, supply_voltage=supply_voltage, shape=shape
    )
    return WaveformSet(times=fine_times, voltages=voltages, oscillator_indices=indices, frequency=frequency)
