"""Phase read-out block: reference signals + DFF bank per oscillator.

Under SHIL each oscillator's phase is pinned near one of the K lock phases,
so sampling the oscillator output with K references whose edges sit at those
phases produces a one-hot DFF pattern (Fig. 4(c)).  This module converts
continuous phases into sampled spin values the way the hardware would, with
an explicit model of what happens when a phase sits ambiguously between two
lock points (metastable sample → nearest-phase fallback).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.exceptions import CircuitError
from repro.circuit.dff import DFlipFlop, ReferenceSignal, reference_bank
from repro.units import ghz


@dataclass
class PhaseReadout:
    """K-phase read-out circuit for one or many oscillators.

    Attributes
    ----------
    num_phases:
        Read-out resolution (number of reference signals / DFFs per ROSC).
    frequency:
        Oscillator fundamental frequency.
    ambiguity_window:
        Half-width (radians) of the region between two lock phases where the
        hardware sample is considered unreliable; phases inside the window are
        still resolved to the nearest lock phase, but the read-out reports them
        via :attr:`last_ambiguous_count` so experiments can track marginal locks.
    """

    num_phases: int = 4
    frequency: float = ghz(1.3)
    ambiguity_window: float = math.pi / 16.0
    last_ambiguous_count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.num_phases < 2:
            raise CircuitError(f"num_phases must be at least 2, got {self.num_phases}")
        if self.frequency <= 0:
            raise CircuitError("frequency must be positive")
        if self.ambiguity_window < 0:
            raise CircuitError("ambiguity_window must be non-negative")
        self._references = reference_bank(self.num_phases, self.frequency)

    # ------------------------------------------------------------------
    @property
    def references(self) -> List[ReferenceSignal]:
        """The K reference signals (REF_1 .. REF_K)."""
        return list(self._references)

    def lock_phases(self) -> np.ndarray:
        """The K nominal lock phases in radians."""
        return 2.0 * np.pi * np.arange(self.num_phases) / self.num_phases

    # ------------------------------------------------------------------
    def sample_phase(self, phase: float) -> int:
        """Return the spin value (0..K-1) captured for a single oscillator phase."""
        spins = self.sample_phases(np.array([phase], dtype=float))
        return int(spins[0])

    def sample_phases(self, phases: np.ndarray, offset: float = 0.0) -> np.ndarray:
        """Sample an array of phases into spin values 0..K-1.

        ``offset`` is a common-mode reference offset (e.g. the phase of the
        reference clock distribution) subtracted before sampling.
        """
        phases = np.mod(np.asarray(phases, dtype=float) - offset, 2.0 * np.pi)
        step = 2.0 * np.pi / self.num_phases
        spins = np.rint(phases / step).astype(int) % self.num_phases
        # Distance from the chosen lock point, used for the ambiguity accounting.
        residual = np.abs(phases - spins * step)
        residual = np.minimum(residual, 2.0 * np.pi - residual)
        boundary_distance = step / 2.0 - residual
        self.last_ambiguous_count = int(np.sum(boundary_distance < self.ambiguity_window))
        return spins

    def one_hot(self, phase: float) -> np.ndarray:
        """Return the DFF capture pattern (one-hot K-vector) for ``phase``."""
        pattern = np.zeros(self.num_phases, dtype=int)
        pattern[self.sample_phase(phase)] = 1
        return pattern

    def dff_bank(self) -> List[DFlipFlop]:
        """Return a fresh bank of K DFFs (one per reference), for structural tests."""
        return [DFlipFlop() for _ in range(self.num_phases)]
