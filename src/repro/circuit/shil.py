"""Sub-harmonic injection locking (SHIL) signal sources.

A SHIL signal runs at twice the oscillator frequency and, when injected into a
2nd-order-susceptible ROSC, binarizes its phase to one of two values 180 deg
apart.  Which two values depends on the phase of the SHIL itself: the paper's
SHIL 1 locks oscillators at 0/180 deg and SHIL 2 — shifted by 180 deg of the
*SHIL* waveform, i.e. 90 deg of the fundamental — locks them at 90/270 deg.
Alternating the two across the two solution stages yields the four Potts
phases.

In the paper's simulations the SHIL (and the read-out references) are ideal
external square waves; :class:`ShilSource` mirrors that with an ideal square
(or sine) generator plus the injection-strength bookkeeping the dynamics layer
needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import CircuitError
from repro.units import ghz

#: Phase offset (of the fundamental) produced by the paper's SHIL 1.
SHIL1_FUNDAMENTAL_OFFSET = 0.0

#: Phase offset (of the fundamental) produced by the paper's SHIL 2: its
#: waveform is 180 deg out of phase at 2f, which corresponds to a 90 deg shift
#: of the locked fundamental phases (0/180 -> 90/270).
SHIL2_FUNDAMENTAL_OFFSET = math.pi / 2.0


@dataclass(frozen=True)
class ShilSource:
    """An ideal SHIL generator at ``order`` times the oscillator frequency.

    Attributes
    ----------
    oscillator_frequency:
        Fundamental frequency of the ROSCs being injected (hertz).
    order:
        Harmonic order of the injection; 2 gives two lock phases (Ising-style
        binarization), N gives N lock phases (the single-stage N-SHIL ROPM).
    fundamental_offset:
        Phase offset of the *locked fundamental* grid in radians.  0 locks at
        ``{0, pi}``; ``pi/2`` locks at ``{pi/2, 3*pi/2}`` (SHIL 2).
    strength:
        Normalized injection strength (relative to the oscillator drive); the
        dynamics layer uses it as the amplitude of the ``sin(order * theta)``
        restoring term.
    waveform:
        "square" (the paper's simplified external source) or "sine".
    """

    oscillator_frequency: float = ghz(1.3)
    order: int = 2
    fundamental_offset: float = SHIL1_FUNDAMENTAL_OFFSET
    strength: float = 0.2
    waveform: str = "square"

    def __post_init__(self) -> None:
        if self.oscillator_frequency <= 0:
            raise CircuitError("oscillator_frequency must be positive")
        if self.order < 2:
            raise CircuitError(f"SHIL order must be at least 2, got {self.order}")
        if self.strength < 0:
            raise CircuitError(f"SHIL strength must be non-negative, got {self.strength}")
        if self.waveform not in ("square", "sine"):
            raise CircuitError(f"waveform must be 'square' or 'sine', got {self.waveform!r}")

    # ------------------------------------------------------------------
    @property
    def frequency(self) -> float:
        """Injection frequency ``order * f_osc`` (hertz)."""
        return self.order * self.oscillator_frequency

    @property
    def num_lock_phases(self) -> int:
        """Number of stable fundamental phases the injection creates."""
        return self.order

    def lock_phases(self) -> np.ndarray:
        """Return the stable fundamental phases (radians, wrapped to [0, 2*pi))."""
        base = 2.0 * np.pi * np.arange(self.order) / self.order
        return np.mod(base + self.fundamental_offset, 2.0 * np.pi)

    # ------------------------------------------------------------------
    def value(self, time: float) -> float:
        """Instantaneous source value in [-1, 1] at ``time`` seconds.

        The source phase is chosen so that its restoring force is consistent
        with :meth:`lock_phases` (the dynamics layer uses the closed-form
        ``sin`` term rather than sampling this waveform; ``value`` exists for
        waveform plotting and for the voltage-level reconstruction).
        """
        angle = 2.0 * np.pi * self.frequency * time - self.order * self.fundamental_offset
        if self.waveform == "sine":
            return float(np.sin(angle))
        return float(np.sign(np.sin(angle))) if not np.isclose(np.sin(angle), 0.0) else 0.0

    def restoring_torque(self, phases: np.ndarray) -> np.ndarray:
        """Return the phase-domain restoring term ``-strength * sin(order*(theta - offset))``.

        The fixed points with negative slope (stable locks) are exactly
        :meth:`lock_phases`.
        """
        phases = np.asarray(phases, dtype=float)
        return -self.strength * np.sin(self.order * (phases - self.fundamental_offset))

    def with_strength(self, strength: float) -> "ShilSource":
        """Return a copy with a different injection strength."""
        from dataclasses import replace

        return replace(self, strength=strength)


def shil1(oscillator_frequency: float = ghz(1.3), strength: float = 0.2) -> ShilSource:
    """The paper's SHIL 1: locks fundamental phases at 0 and 180 degrees."""
    return ShilSource(
        oscillator_frequency=oscillator_frequency,
        order=2,
        fundamental_offset=SHIL1_FUNDAMENTAL_OFFSET,
        strength=strength,
    )


def shil2(oscillator_frequency: float = ghz(1.3), strength: float = 0.2) -> ShilSource:
    """The paper's SHIL 2: locks fundamental phases at 90 and 270 degrees."""
    return ShilSource(
        oscillator_frequency=oscillator_frequency,
        order=2,
        fundamental_offset=SHIL2_FUNDAMENTAL_OFFSET,
        strength=strength,
    )
