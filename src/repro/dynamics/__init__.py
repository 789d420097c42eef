"""Phase-domain dynamics: Kuramoto+SHIL model, integrators, noise, schedules."""

from repro.dynamics.integrators import (
    Trajectory,
    integrate_euler_maruyama,
    integrate_rk4,
    integrate_scipy,
)
from repro.dynamics.batched import (
    BatchedOscillatorModel,
    BlockDiagonalCoupling,
    CouplingOperator,
    SharedCoupling,
)
from repro.dynamics.kuramoto import CoupledOscillatorModel
from repro.dynamics.noise import perturbed_phases, random_initial_phases
from repro.dynamics.schedules import (
    AnnealingPolicy,
    constant_ramp,
    linear_ramp,
    smooth_ramp,
)
from repro.dynamics.waveform import (
    WaveformSet,
    phase_to_voltage,
    reconstruct_waveforms,
)

__all__ = [
    "Trajectory",
    "integrate_rk4",
    "integrate_euler_maruyama",
    "integrate_scipy",
    "CoupledOscillatorModel",
    "BatchedOscillatorModel",
    "CouplingOperator",
    "SharedCoupling",
    "BlockDiagonalCoupling",
    "random_initial_phases",
    "perturbed_phases",
    "AnnealingPolicy",
    "constant_ramp",
    "linear_ramp",
    "smooth_ramp",
    "WaveformSet",
    "phase_to_voltage",
    "reconstruct_waveforms",
]
