"""Ring oscillator (ROSC) behavioural model.

The paper's compute element is an 11-stage inverter ring targeted at
1.3 GHz.  This model derives the natural frequency from the inverter delays,
scales the inverter sizing so the target frequency is met exactly (standing in
for the transistor-level tuning a designer would do), and reports power,
phase-noise-induced jitter and injection-locking susceptibility parameters
consumed by the dynamics layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.exceptions import CircuitError
from repro.circuit.inverter import Inverter
from repro.units import ghz


@dataclass(frozen=True)
class RingOscillator:
    """An N-stage CMOS ring oscillator.

    Attributes
    ----------
    num_stages:
        Number of inverter stages (must be odd to oscillate; the paper uses 11).
    inverter:
        The per-stage inverter model.
    enable_gated:
        Whether the ROSC has a local enable (``L_EN``) gate transistor.  The
        gate adds a small series resistance (modelled as a delay penalty) and
        allows per-oscillator mapping of the problem.
    """

    num_stages: int = 11
    inverter: Inverter = field(default_factory=Inverter)
    enable_gated: bool = True

    #: Delay penalty factor of the enable gating footer/header (dimensionless).
    ENABLE_DELAY_PENALTY: float = 1.05

    def __post_init__(self) -> None:
        if self.num_stages < 3 or self.num_stages % 2 == 0:
            raise CircuitError(
                f"a ring oscillator needs an odd number of stages >= 3, got {self.num_stages}"
            )

    # ------------------------------------------------------------------
    @property
    def stage_delay(self) -> float:
        """Average per-stage delay (seconds), including the enable penalty."""
        delay = self.inverter.propagation_delay(fanout=1)
        if self.enable_gated:
            delay *= self.ENABLE_DELAY_PENALTY
        return delay

    @property
    def natural_frequency(self) -> float:
        """Free-running oscillation frequency ``1 / (2 * N * t_stage)`` in hertz."""
        return 1.0 / (2.0 * self.num_stages * self.stage_delay)

    @property
    def period(self) -> float:
        """Oscillation period in seconds."""
        return 1.0 / self.natural_frequency

    # ------------------------------------------------------------------
    def dynamic_power(self, activity: float = 1.0) -> float:
        """Switching power of the ring at its natural frequency (watts).

        Every stage toggles once per half-period, i.e. at the oscillation
        frequency; the total is ``N`` stages worth of ``C V^2 f``.
        """
        per_stage = self.inverter.switching_power(self.natural_frequency, activity=activity, fanout=1)
        return self.num_stages * per_stage

    def leakage_power(self) -> float:
        """Static leakage of the ring (watts)."""
        return self.num_stages * self.inverter.leakage()

    def total_power(self, activity: float = 1.0) -> float:
        """Dynamic plus leakage power (watts)."""
        return self.dynamic_power(activity) + self.leakage_power()

    # ------------------------------------------------------------------
    def period_jitter_rms(self, jitter_fraction: float = 0.01) -> float:
        """RMS cycle-to-cycle jitter in seconds (``jitter_fraction`` of the period).

        The paper relies on start-up jitter to decorrelate initial phases; a
        1 % cycle jitter is representative for an uncompensated 65 nm ring.
        """
        if jitter_fraction < 0:
            raise CircuitError(f"jitter_fraction must be non-negative, got {jitter_fraction}")
        return jitter_fraction * self.period

    def phase_noise_diffusion(self, jitter_fraction: float = 0.01) -> float:
        """Phase diffusion coefficient ``D`` (rad^2/s) of a white-noise phase walk.

        Derived from the cycle jitter: the phase variance accumulated per
        period is ``(2*pi * sigma_T / T)^2``, so ``D = variance / T``.
        """
        import math

        sigma = self.period_jitter_rms(jitter_fraction)
        variance_per_period = (2.0 * math.pi * sigma / self.period) ** 2
        return variance_per_period / self.period

    def scaled_to_frequency(self, target_frequency: float) -> "RingOscillator":
        """Return a copy re-sized so the natural frequency equals ``target_frequency``.

        Real designs hit a target frequency by sizing and loading tweaks; the
        model mimics that by scaling both transistor widths by the required
        ratio, keeping the 4:1 skew intact.  Scaling widths leaves the delay
        unchanged in this simple model (drive and load scale together), so the
        frequency adjustment is done through the wire capacitance instead.
        """
        if target_frequency <= 0:
            raise CircuitError(f"target_frequency must be positive, got {target_frequency}")
        ratio = self.natural_frequency / target_frequency
        new_wire_cap = self.inverter.technology.wire_capacitance_per_stage * ratio + \
            self.inverter.input_capacitance * (ratio - 1.0)
        if new_wire_cap < 0:
            # Target is faster than the unloaded ring: shrink the wire cap to (near) zero
            # and accept the residual mismatch rather than produce a negative capacitance.
            new_wire_cap = 0.0
        technology = replace(self.inverter.technology, wire_capacitance_per_stage=new_wire_cap)
        inverter = replace(self.inverter, technology=technology)
        return replace(self, inverter=inverter)


def paper_rosc(target_frequency: float = ghz(1.3)) -> RingOscillator:
    """Return the 11-stage, 4:1-skewed ROSC tuned to the paper's 1.3 GHz."""
    return RingOscillator().scaled_to_frequency(target_frequency)
