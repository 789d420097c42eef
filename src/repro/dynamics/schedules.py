"""Time-varying strength schedules (ramps) for couplings and SHIL injection.

Section 2.3 of the paper notes the design tension: stronger couplings anneal
faster but can quench the oscillation, and SHIL that is too weak fails to
discretize while SHIL that is too strong deforms the waveforms.  In the
phase-domain model those effects appear as convergence-quality trade-offs; a
soft ramp of the SHIL strength during the lock interval (rather than an
instantaneous step) markedly improves how reliably phases settle onto the
lock grid, mirroring the "gradual SHIL" technique used by oscillator Ising
machine designs.

A schedule is just a callable ``ramp(t) -> scale`` over the interval's local
time; the dynamics model multiplies the nominal strength by the scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.exceptions import SimulationError

Ramp = Callable[[float], float]


def constant_ramp(value: float = 1.0) -> Ramp:
    """A flat schedule with the given scale."""
    if value < 0:
        raise SimulationError(f"value must be non-negative, got {value}")

    def ramp(_time: float) -> float:
        return value

    return ramp


def linear_ramp(duration: float, start: float = 0.0, end: float = 1.0, t0: float = 0.0) -> Ramp:
    """A linear ramp from ``start`` to ``end`` over ``[t0, t0 + duration]``.

    Outside the interval the ramp clamps to its endpoint values.
    """
    if duration <= 0:
        raise SimulationError(f"duration must be positive, got {duration}")
    if start < 0 or end < 0:
        raise SimulationError("ramp endpoints must be non-negative")

    def ramp(time: float) -> float:
        position = (time - t0) / duration
        position = min(max(position, 0.0), 1.0)
        return start + (end - start) * position

    return ramp


def smooth_ramp(duration: float, start: float = 0.0, end: float = 1.0, t0: float = 0.0) -> Ramp:
    """A smooth (cosine-eased) ramp from ``start`` to ``end``."""
    if duration <= 0:
        raise SimulationError(f"duration must be positive, got {duration}")
    if start < 0 or end < 0:
        raise SimulationError("ramp endpoints must be non-negative")

    def ramp(time: float) -> float:
        position = (time - t0) / duration
        position = min(max(position, 0.0), 1.0)
        eased = 0.5 - 0.5 * np.cos(np.pi * position)
        return start + (end - start) * float(eased)

    return ramp


@dataclass(frozen=True)
class AnnealingPolicy:
    """How coupling and SHIL strengths evolve inside each MSROPM interval.

    Attributes
    ----------
    shil_ramp_fraction:
        Fraction of the SHIL-lock interval spent ramping the injection from 0
        to its nominal strength (0 = hard step, as in the simplest model).
    coupling_soft_start_fraction:
        Fraction of each annealing interval spent ramping the couplings up,
        which avoids the initial transient kicking phases far from a good
        basin.
    """

    shil_ramp_fraction: float = 0.5
    coupling_soft_start_fraction: float = 0.1

    def __post_init__(self) -> None:
        for name in ("shil_ramp_fraction", "coupling_soft_start_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"{name} must be in [0, 1], got {value}")

    def shil_ramp(self, interval_start: float, interval_duration: float) -> Ramp:
        """SHIL strength schedule for a lock interval starting at ``interval_start``."""
        if self.shil_ramp_fraction == 0.0:
            return constant_ramp(1.0)
        ramp_time = self.shil_ramp_fraction * interval_duration
        return smooth_ramp(ramp_time, start=0.0, end=1.0, t0=interval_start)

    def coupling_ramp(self, interval_start: float, interval_duration: float) -> Ramp:
        """Coupling strength schedule for an annealing interval."""
        if self.coupling_soft_start_fraction == 0.0:
            return constant_ramp(1.0)
        ramp_time = self.coupling_soft_start_fraction * interval_duration
        return linear_ramp(ramp_time, start=0.2, end=1.0, t0=interval_start)
