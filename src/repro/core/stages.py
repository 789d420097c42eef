"""Stage execution: turning the control schedule into phase-dynamics runs.

Each binary stage of the MSROPM consists of three intervals (Fig. 3):

1. *initialization* — couplings and SHIL off; phases either start random
   (stage 1) or keep their previous values plus a little jitter (later stages,
   the compute-in-memory property),
2. *annealing* — couplings on (restricted to the current partition), SHIL off;
   the coupled oscillators self-anneal towards a low-energy phase pattern,
3. *SHIL lock* — the per-partition SHIL is injected (ramped up) and binarizes
   the phases onto the partition's lock grid; at the end the phases are read
   out.

The helpers here build the :class:`CoupledOscillatorModel` for each interval
from the stage's group labels and run the integrator; :class:`repro.core.machine.MSROPM`
strings the stages together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import sparse

from repro.exceptions import StageError
from repro.core.config import MSROPMConfig
from repro.dynamics.batched import (
    BatchedOscillatorModel,
    CouplingOperator,
    FastBlockDiagonalCoupling,
    FastSharedCoupling,
    ThroughputOptions,
    ThroughputOscillatorModel,
)
from repro.dynamics.integrators import (
    Trajectory,
    euler_maruyama_final,
    integrate_euler_maruyama,
)
from repro.dynamics.kuramoto import CoupledOscillatorModel
from repro.rng import make_rng


def group_offsets(group_values: np.ndarray, stage_index: int) -> np.ndarray:
    """Return the per-oscillator SHIL lock-grid offsets for ``stage_index``.

    A node whose accumulated group value (the phase index read out after the
    previous stages) is ``v`` receives a SHIL whose fundamental lock grid is
    offset by ``v * 2*pi / 2**stage_index``; stage 1 therefore uses offset 0
    everywhere (SHIL 1) and stage 2 uses 0 or pi/2 (SHIL 1 / SHIL 2), exactly
    the paper's phase-shifted SHIL pair.

    ``group_values`` may be ``(N,)`` or a batched ``(R, N)`` array; the
    offsets keep the same shape.
    """
    if stage_index < 1:
        raise StageError(f"stage_index must be >= 1, got {stage_index}")
    group_values = np.asarray(group_values, dtype=int)
    max_group = 2 ** (stage_index - 1)
    if group_values.size and (group_values.min() < 0 or group_values.max() >= max_group):
        raise StageError(
            f"group values for stage {stage_index} must lie in [0, {max_group}), "
            f"got range [{group_values.min()}, {group_values.max()}]"
        )
    return group_values * (2.0 * np.pi / (2 ** stage_index))


def partition_coupling_matrix(
    edge_index: np.ndarray,
    group_values: np.ndarray,
    num_oscillators: int,
    coupling_rate: float,
) -> sparse.csr_matrix:
    """Return the coupling-rate matrix with cross-partition edges gated off.

    ``edge_index`` is the ``(E, 2)`` array of edges in node-index space; an
    edge is conducting only when both endpoints share the same group value
    (the ``P_EN`` gating derived from the earlier stage read-outs).
    """
    if coupling_rate < 0:
        raise StageError("coupling_rate must be non-negative")
    group_values = np.asarray(group_values, dtype=int)
    if edge_index.size == 0:
        return sparse.csr_matrix((num_oscillators, num_oscillators))
    same_group = group_values[edge_index[:, 0]] == group_values[edge_index[:, 1]]
    active = edge_index[same_group]
    if active.size == 0:
        return sparse.csr_matrix((num_oscillators, num_oscillators))
    rows = np.concatenate([active[:, 0], active[:, 1]])
    cols = np.concatenate([active[:, 1], active[:, 0]])
    vals = np.full(rows.shape[0], coupling_rate, dtype=float)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(num_oscillators, num_oscillators))


def binarize_against_offsets(phases: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Return the per-oscillator stage bit: 0 if locked near its offset, 1 if near offset + pi."""
    phases = np.asarray(phases, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    relative = np.mod(phases - offsets, 2.0 * np.pi)
    return ((relative > np.pi / 2.0) & (relative <= 3.0 * np.pi / 2.0)).astype(int)


class CouplingPlan:
    """Precompiled coupling state for one (problem, config) pair.

    Batched stage execution needs a coupling operator per stage; building it
    from scratch on every stage entry (a fresh CSR for stage 1, an R-block
    Python loop through ``sparse.block_diag`` for stage 2) used to dominate
    the non-integration time of a solve.  The plan is built once per executor
    — and, via the machine-level executor cache, once per machine — and hands
    out precompiled operators:

    * the ungated (uniform-grouping) shared CSR is built once and reused by
      every solve's stage 1, buffers included;
    * replica-dependent stage-2 gatings are assembled by the vectorized
      :func:`repro.dynamics.batched.gated_block_diagonal_csr` constructor
      instead of a per-replica loop.

    Every operator the plan returns is bit-identical in its arithmetic to the
    per-replica sequential matvec (same canonical CSR, same kernels).

    The plan is safe to share between replica shards running on their own
    threads: the ungated CSR is built here, in the thread that builds the
    plan, and is read-only afterwards; its operator keeps per-thread kernel
    buffers, and every gated operator is built fresh for its caller.
    """

    def __init__(
        self,
        edge_index: np.ndarray,
        num_oscillators: int,
        coupling_rate: float,
        dtype=float,
    ) -> None:
        self.edge_index = edge_index
        self.num_oscillators = num_oscillators
        self.coupling_rate = coupling_rate
        self.dtype = np.dtype(dtype)
        # Uniform grouping gates nothing, for any common value: one shared
        # ungated CSR serves every solve's stage 1.
        self._uniform_shared = FastSharedCoupling(
            partition_coupling_matrix(
                edge_index, np.zeros(num_oscillators, dtype=int), num_oscillators, coupling_rate
            ),
            dtype=self.dtype,
        )

    # ------------------------------------------------------------------
    def operator(self, group_values: np.ndarray) -> CouplingOperator:
        """The precompiled coupling operator for one stage's gating table."""
        first_row = group_values[0]
        if np.all(group_values == first_row):
            if first_row.size == 0 or np.all(first_row == first_row[0]):
                return self._uniform_shared
            return FastSharedCoupling(
                partition_coupling_matrix(
                    self.edge_index, first_row, self.num_oscillators, self.coupling_rate
                ),
                dtype=self.dtype,
            )
        return FastBlockDiagonalCoupling.from_group_values(
            self.edge_index, group_values, self.num_oscillators, self.coupling_rate,
            dtype=self.dtype,
        )


@dataclass
class StageExecutor:
    """Runs the three intervals of one binary stage on a phase vector.

    Parameters
    ----------
    config:
        Machine configuration (strengths, timing, integrator settings).
    edge_index:
        ``(E, 2)`` edge array of the mapped problem in node-index space.
    num_oscillators:
        Number of oscillators (problem nodes).
    collect_trajectory:
        When ``True`` the initialization interval is also simulated and all
        intervals record every integrator step, so waveforms can be
        reconstructed; when ``False`` the initialization interval is applied
        analytically (pure diffusion) and trajectories are thinned.  Only
        single-run ``(N,)`` stages record: batched stages integrate to the
        final state and reject trajectory collection.
    frequency_detuning:
        Optional per-oscillator free-running frequency offsets (radians/second)
        modelling static process variation; applied during the annealing and
        SHIL intervals of every stage.  Note these are rad/s rates (drawn with
        standard deviation ``config.frequency_detuning_rate_std``), not the
        relative ``config.frequency_detuning_std`` fraction.
    precision:
        Precision tier of the stage arithmetic: ``"exact"`` (default,
        bit-identical contract) or ``"throughput"`` (float32 state + relaxed
        RNG per :class:`repro.dynamics.batched.ThroughputOptions`, statistical
        contract).  The throughput tier runs batched ``(R, N)`` stages only.
    throughput_options:
        Relaxation switches of the throughput tier; ``None`` means the tier's
        defaults.  Ignored on the exact tier.
    """

    config: MSROPMConfig
    edge_index: np.ndarray
    num_oscillators: int
    collect_trajectory: bool = False
    frequency_detuning: Optional[np.ndarray] = None
    precision: str = "exact"
    throughput_options: Optional[ThroughputOptions] = None

    @property
    def throughput(self) -> ThroughputOptions:
        """The effective throughput relaxations (defaults when unset)."""
        return self.throughput_options if self.throughput_options is not None else ThroughputOptions()

    @property
    def state_dtype(self) -> np.dtype:
        """dtype of the integrated phase state under this executor's tier."""
        if self.precision == "throughput" and self.throughput.float32_state:
            return np.dtype(np.float32)
        return np.dtype(float)

    @property
    def plan(self) -> CouplingPlan:
        """The executor's precompiled :class:`CouplingPlan` (built lazily once)."""
        plan = self.__dict__.get("_plan")
        if plan is None:
            plan = CouplingPlan(
                self.edge_index,
                self.num_oscillators,
                self.config.coupling_rate,
                dtype=self.state_dtype,
            )
            self._plan = plan
        return plan

    def run_stage(
        self,
        stage_index: int,
        phases: np.ndarray,
        group_values: np.ndarray,
        rng,
        start_time: float = 0.0,
        noise_block_elements: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[Trajectory]]:
        """Execute stage ``stage_index`` starting from ``phases``.

        ``phases`` is either a flat ``(N,)`` vector (one run) or a batched
        ``(R, N)`` array of R replicas, with ``group_values`` of matching
        shape; batched runs execute every replica in one vectorized
        integration and never record a trajectory.  The throughput tier
        runs batched stages only.  Returns ``(final_phases, stage_bits,
        trajectory_or_None)`` where ``stage_bits`` is the per-oscillator
        binary read-out of this stage, shaped like ``phases``.
        ``noise_block_elements`` caps a batched stage's prefetched noise
        buffer (see :func:`repro.dynamics.integrators.euler_maruyama_final`).
        """
        if np.ndim(phases) == 2:
            if self.collect_trajectory:
                raise StageError(
                    "batched (R, N) stages integrate to the final state only; "
                    "record trajectories through single-run (N,) stages"
                )
            return self._run_batched_stage(
                stage_index,
                np.asarray(phases, dtype=self.state_dtype),
                group_values,
                rng,
                start_time,
                noise_block_elements,
            )
        if self.precision == "throughput":
            raise StageError("precision='throughput' runs batched (R, N) stages only")
        phases = np.asarray(phases, dtype=float)
        config = self.config
        timing = config.timing
        rng = make_rng(rng)
        record_every = 1 if self.collect_trajectory else config.record_every
        diffusion = config.phase_noise_diffusion
        trajectory: Optional[Trajectory] = None
        time = start_time

        coupling = partition_coupling_matrix(
            self.edge_index, group_values, self.num_oscillators, config.coupling_rate
        )
        offsets = group_offsets(group_values, stage_index)

        # ------------------------------------------------------- initialization
        if self.collect_trajectory:
            free_model = CoupledOscillatorModel(
                coupling_matrix=sparse.csr_matrix((self.num_oscillators, self.num_oscillators)),
                shil_strength=0.0,
            )
            segment = integrate_euler_maruyama(
                free_model,
                phases,
                timing.initialization,
                config.time_step,
                noise_amplitude=diffusion,
                seed=rng,
                start_time=time,
                record_every=record_every,
            )
            trajectory = segment
            phases = segment.final_phases
        else:
            # Couplings and SHIL are off, so the interval is a pure phase
            # diffusion; apply the equivalent Gaussian walk directly.
            std = np.sqrt(2.0 * diffusion * timing.initialization)
            if std > 0:
                phases = phases + rng.normal(0.0, std, size=phases.shape)
        time += timing.initialization

        # ------------------------------------------------------------ annealing
        anneal_model = CoupledOscillatorModel(
            coupling_matrix=coupling,
            shil_strength=0.0,
            frequency_detuning=self.frequency_detuning,
            coupling_ramp=config.annealing_policy.coupling_ramp(time, timing.annealing),
        )
        segment = integrate_euler_maruyama(
            anneal_model,
            phases,
            timing.annealing,
            config.time_step,
            noise_amplitude=diffusion,
            seed=rng,
            start_time=time,
            record_every=record_every,
        )
        trajectory = segment if trajectory is None else trajectory.concatenate(segment)
        phases = segment.final_phases
        time += timing.annealing

        # ------------------------------------------------------------ SHIL lock
        lock_model = CoupledOscillatorModel(
            coupling_matrix=coupling,
            shil_strength=config.shil_rate,
            shil_offset=offsets,
            shil_order=2,
            frequency_detuning=self.frequency_detuning,
            shil_ramp=config.annealing_policy.shil_ramp(time, timing.shil_settling),
        )
        segment = integrate_euler_maruyama(
            lock_model,
            phases,
            timing.shil_settling,
            config.time_step,
            noise_amplitude=diffusion,
            seed=rng,
            start_time=time,
            record_every=record_every,
        )
        trajectory = trajectory.concatenate(segment)
        phases = segment.final_phases

        bits = binarize_against_offsets(phases, offsets)
        return phases, bits, (trajectory if self.collect_trajectory else None)

    # ------------------------------------------------------------------
    # Batched (replica-parallel) execution
    # ------------------------------------------------------------------
    def _batched_model(self, coupling: CouplingOperator, **terms) -> BatchedOscillatorModel:
        """The batched RHS of one interval under this executor's precision tier."""
        if self.precision == "throughput":
            return ThroughputOscillatorModel(
                coupling=coupling,
                num_oscillators=self.num_oscillators,
                frequency_detuning=self.frequency_detuning,
                fused_shil=self.throughput.fused_shil,
                dtype=self.state_dtype,
                **terms,
            )
        return BatchedOscillatorModel(
            coupling=coupling,
            num_oscillators=self.num_oscillators,
            frequency_detuning=self.frequency_detuning,
            **terms,
        )

    def _run_batched_stage(
        self,
        stage_index: int,
        phases: np.ndarray,
        group_values: np.ndarray,
        rng,
        start_time: float,
        noise_block_elements: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray, None]:
        """Vectorized mirror of the single-run stage body for ``(R, N)`` phases.

        The three intervals are those of the single-run path; the replica
        axis rides through the integrator, operators come precompiled from
        the :class:`CouplingPlan`, and the two integrated intervals run
        through :func:`euler_maruyama_final` without recording.

        On the exact tier the RHS is a :class:`BatchedOscillatorModel` and
        randomness comes from the caller's :class:`repro.rng.ReplicaRNG`, so
        each replica's stream is consumed exactly as its single run would
        consume it and results are bit-identical to the sequential engine.
        On the throughput tier the RHS is a :class:`ThroughputOscillatorModel`
        in the tier's state dtype and the noise is whatever the caller's RNG
        provides (a :class:`repro.rng.ThroughputRNG` under the default
        relaxations); results are statistically equivalent to the exact tier,
        a contract the equivalence harness owns.
        """
        config = self.config
        timing = config.timing
        rng = make_rng(rng)
        diffusion = config.phase_noise_diffusion
        time = start_time

        group_values = np.asarray(group_values, dtype=int)
        if group_values.shape != phases.shape:
            raise StageError(
                f"batched group_values shape {group_values.shape} must match "
                f"phases shape {phases.shape}"
            )
        coupling = self.plan.operator(group_values)
        offsets = group_offsets(group_values, stage_index)

        # Initialization: couplings and SHIL are off, so the interval is a
        # pure phase diffusion; apply the equivalent Gaussian walk directly.
        std = np.sqrt(2.0 * diffusion * timing.initialization)
        if std > 0:
            phases = phases + rng.normal(0.0, std, size=phases.shape)
        time += timing.initialization

        anneal_model = self._batched_model(
            coupling,
            shil_strength=0.0,
            coupling_ramp=config.annealing_policy.coupling_ramp(time, timing.annealing),
        )
        phases = euler_maruyama_final(
            anneal_model,
            phases,
            timing.annealing,
            config.time_step,
            noise_amplitude=diffusion,
            seed=rng,
            start_time=time,
            dtype=self.state_dtype,
            noise_block_elements=noise_block_elements,
        )
        time += timing.annealing

        lock_model = self._batched_model(
            coupling,
            shil_strength=config.shil_rate,
            shil_offset=offsets,
            shil_order=2,
            shil_ramp=config.annealing_policy.shil_ramp(time, timing.shil_settling),
        )
        phases = euler_maruyama_final(
            lock_model,
            phases,
            timing.shil_settling,
            config.time_step,
            noise_amplitude=diffusion,
            seed=rng,
            start_time=time,
            dtype=self.state_dtype,
            noise_block_elements=noise_block_elements,
        )

        bits = binarize_against_offsets(phases, offsets)
        return phases, bits, None
