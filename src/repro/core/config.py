"""User-facing configuration of the MSROPM solver.

:class:`MSROPMConfig` collects every knob of the machine: the circuit-level
strengths (coupling, SHIL), the control timeline (the paper's 5/20/5 ns plan),
the phase-noise level, the numerical settings of the phase-domain
simulation, and the two execution axes — the replica engine (batched or
sequential) and the precision tier (exact or throughput).  The defaults
reproduce the paper's operating point for 4-coloring on King's graphs.
Every field is part of a runtime job's content hash.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.circuit.control import TimingPlan
from repro.dynamics.schedules import AnnealingPolicy
from repro.units import ghz


@dataclass(frozen=True)
class MSROPMConfig:
    """Configuration of a multi-stage ROSC Potts machine run.

    Attributes
    ----------
    num_colors:
        Number of colors to solve for; must be a power of two (each binary
        stage doubles the number of representable colors).  The paper's
        experiments use 4.
    oscillator_frequency:
        ROSC fundamental frequency in hertz (paper: 1.3 GHz).
    coupling_strength:
        Normalized B2B coupling strength; the effective phase-repulsion rate is
        ``coupling_strength * 2*pi*f``.  Too-strong couplings would quench a
        real oscillator, which is modelled by the validation cap below.
    shil_strength:
        Normalized SHIL injection strength; the pinning rate is
        ``shil_strength * 2*pi*f``.
    jitter_fraction:
        RMS cycle-to-cycle jitter as a fraction of the period; sets the phase
        noise during free-running/annealing intervals.
    timing:
        Stage durations (defaults to the paper's 5/20/5 ns plan).
    annealing_policy:
        Soft-start ramps for couplings and SHIL inside the intervals.
    time_step:
        Integrator step in seconds.
    record_every:
        Trajectory thinning factor (1 records every step — required for
        waveform reconstruction; larger values keep memory small for the big
        benchmark problems).
    stage2_reinit_jitter:
        Amplitude (radians) of the random perturbation applied to phases during
        the inter-stage re-initialization interval.
    frequency_detuning_std:
        Relative standard deviation of the per-oscillator free-running
        frequency mismatch (process variation), expressed as a *dimensionless
        fraction* of the oscillator frequency (0.01 = 1 % mismatch).  0 models
        identical oscillators (the paper's idealized simulation); a 65 nm
        uncompensated ring typically sits in the 0.5-2 % range.  The mismatch
        is drawn once per machine (static across iterations, like silicon).
        The rad/s value actually fed to the dynamics is the derived property
        :attr:`frequency_detuning_rate_std` ``= frequency_detuning_std *
        angular_frequency`` — the two names describe the same knob in
        different units.
    engine:
        Replica execution engine used by :meth:`repro.core.machine.MSROPM.solve`:
        ``"batched"`` (default) advances all iterations as one vectorized
        integration, ``"sequential"`` runs them one at a time (the original
        loop).  On the exact precision tier the two produce bit-identical
        results per seed.
    seed:
        Base RNG seed for the run (per-iteration seeds are derived from it).
    precision:
        Numerical precision tier of the solve.  ``"exact"`` (default) keeps
        the bit-identity contract: float64 state, per-replica RNG streams,
        results reproducible bit-for-bit against the sequential reference.
        ``"throughput"`` trades bit-identity for speed — float32 phase state,
        one batched noise stream for all replicas, moment-matched uniform
        noise increments — while keeping the reported accuracy statistically
        equivalent (the contract the equivalence harness checks).  The tier
        is part of the job content hash, so exact and throughput results
        never share cache entries.
    """

    num_colors: int = 4
    oscillator_frequency: float = ghz(1.3)
    coupling_strength: float = 0.10
    shil_strength: float = 0.25
    jitter_fraction: float = 0.01
    timing: TimingPlan = field(default_factory=TimingPlan)
    annealing_policy: AnnealingPolicy = field(default_factory=AnnealingPolicy)
    time_step: float = 0.025e-9
    record_every: int = 10
    stage2_reinit_jitter: float = 0.3
    frequency_detuning_std: float = 0.0
    engine: str = "batched"
    seed: Optional[int] = None
    precision: str = "exact"

    #: Engines accepted by :attr:`engine`.
    ENGINE_NAMES = ("sequential", "batched")
    #: Precision tiers accepted by :attr:`precision`.
    PRECISION_NAMES = ("exact", "throughput")

    #: Coupling strengths above this level would stall a real ROSC (Sec. 2.3).
    MAX_COUPLING_STRENGTH: float = 0.5
    #: SHIL strengths above this level deform the waveform beyond readability.
    MAX_SHIL_STRENGTH: float = 1.0

    def __post_init__(self) -> None:
        if self.num_colors < 2 or (self.num_colors & (self.num_colors - 1)) != 0:
            raise ConfigurationError(
                f"num_colors must be a power of two >= 2 for the multi-stage scheme, got {self.num_colors}"
            )
        if self.oscillator_frequency <= 0:
            raise ConfigurationError("oscillator_frequency must be positive")
        if not 0 < self.coupling_strength <= self.MAX_COUPLING_STRENGTH:
            raise ConfigurationError(
                f"coupling_strength must be in (0, {self.MAX_COUPLING_STRENGTH}] "
                f"(stronger couplings halt the oscillation), got {self.coupling_strength}"
            )
        if not 0 < self.shil_strength <= self.MAX_SHIL_STRENGTH:
            raise ConfigurationError(
                f"shil_strength must be in (0, {self.MAX_SHIL_STRENGTH}] "
                f"(stronger SHIL deforms the waveforms), got {self.shil_strength}"
            )
        if self.jitter_fraction < 0:
            raise ConfigurationError("jitter_fraction must be non-negative")
        if self.time_step <= 0:
            raise ConfigurationError("time_step must be positive")
        if self.record_every < 1:
            raise ConfigurationError("record_every must be at least 1")
        if self.stage2_reinit_jitter < 0:
            raise ConfigurationError("stage2_reinit_jitter must be non-negative")
        if not 0.0 <= self.frequency_detuning_std < 0.1:
            raise ConfigurationError(
                "frequency_detuning_std must be in [0, 0.1) — larger mismatch breaks injection locking"
            )
        if self.engine not in self.ENGINE_NAMES:
            raise ConfigurationError(
                f"engine must be one of {self.ENGINE_NAMES}, got {self.engine!r}"
            )
        if self.precision not in self.PRECISION_NAMES:
            raise ConfigurationError(
                f"precision must be one of {self.PRECISION_NAMES}, got {self.precision!r}"
            )

    # ------------------------------------------------------------------
    @property
    def num_stages(self) -> int:
        """Number of binary (max-cut) stages: ``log2(num_colors)``."""
        return int(np.log2(self.num_colors))

    @property
    def angular_frequency(self) -> float:
        """``2 * pi * f`` in radians/second."""
        return 2.0 * np.pi * self.oscillator_frequency

    @property
    def coupling_rate(self) -> float:
        """Effective coupling (phase-repulsion) rate in radians/second."""
        return self.coupling_strength * self.angular_frequency

    @property
    def shil_rate(self) -> float:
        """Effective SHIL pinning rate in radians/second."""
        return self.shil_strength * self.angular_frequency

    @property
    def frequency_detuning_rate_std(self) -> float:
        """Standard deviation of the per-oscillator detuning in radians/second.

        This is the rad/s conversion of the *relative* knob
        :attr:`frequency_detuning_std`:
        ``frequency_detuning_rate_std == frequency_detuning_std * 2 * pi *
        oscillator_frequency``.  The machine draws its static per-oscillator
        mismatch with this standard deviation.
        """
        return self.frequency_detuning_std * self.angular_frequency

    @property
    def phase_noise_diffusion(self) -> float:
        """Phase diffusion coefficient (rad^2/s) derived from the jitter fraction."""
        period = 1.0 / self.oscillator_frequency
        variance_per_period = (2.0 * np.pi * self.jitter_fraction) ** 2
        return variance_per_period / period

    @property
    def total_run_time(self) -> float:
        """End-to-end run time in seconds (60 ns for the default 4-coloring plan)."""
        return self.timing.total_for_stages(self.num_stages)

    def with_seed(self, seed: Optional[int]) -> "MSROPMConfig":
        """Return a copy with a different base seed."""
        return replace(self, seed=seed)

    def with_updates(self, **kwargs) -> "MSROPMConfig":
        """Return a copy with the given fields replaced (validated again)."""
        return replace(self, **kwargs)
