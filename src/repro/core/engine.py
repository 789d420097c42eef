"""Replica execution engines: how ``MSROPM.solve`` runs its iterations.

The paper's headline numbers come from 40 independent iterations per problem.
Those iterations share everything except their random streams, which makes
them replicas of one stochastic process — and replicas can be advanced
together.  This module is the seam between the machine and that choice:

* :class:`SequentialEngine` runs one iteration at a time through
  :meth:`repro.core.machine.MSROPM.run_iteration` — the original behaviour,
  the exact tier's in-process reference, and the only engine that records
  trajectories.
* :class:`BatchedEngine` (the default) stacks all R iterations into one
  ``(R, N)`` phase array and advances every replica with a single sparse
  product per integrator step, through the one batched stage body of
  :class:`repro.core.stages.StageExecutor`.  On the exact tier, per-replica
  seeded RNG streams (:class:`repro.rng.ReplicaRNG`) keep results
  bit-identical to the sequential engine for the same seeds; the throughput
  tier runs the same body in float32 with one batched noise stream.

Replica shards
--------------

Because each exact-tier replica owns its stream, a batch can be split into
contiguous replica ranges that run the batched body independently and are
joined in range order — bit-identical to one batch, the same tiling
:meth:`SolverEngine.run_range` and replica-chunked jobs rely on.  The numpy
ufuncs, scipy's CSR kernels and ``Generator`` fills of the body release the
GIL, so :class:`BatchedEngine` runs an exact-tier batch as
:func:`replica_shards` ranges on as many threads (the calling thread runs the
first).  The shard count is bounded by the process's thread budget
(:func:`replica_thread_budget`: the CPUs it may run on, capped to one in pool
workers and fleet workers by :mod:`repro.runtime.worker_env`), by R, and by
:data:`MIN_SHARD_ELEMENTS` per shard.  The throughput tier never shards: its
one batched noise stream would be consumed differently.

Engines are selected by name via ``MSROPMConfig.engine`` (or per call via
``MSROPM.solve(engine=...)``).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.core.config import MSROPMConfig
from repro.core.results import IterationResult, StageResult
from repro.core.stages import StageExecutor
from repro.dynamics.batched import ThroughputOptions
from repro.dynamics.integrators import _NOISE_BLOCK_ELEMENTS
from repro.dynamics.noise import perturbed_phases, random_initial_phases
from repro.rng import ReplicaRNG, ThroughputRNG

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.machine import MSROPM

#: Fewest ``replicas x oscillators`` elements one replica shard must carry.
#: Below it the per-step Python overhead of a shard outweighs the halved
#: kernel time.  Measured on 40-replica exact solves, two shards on two
#: cores: 980 elements per shard ran x0.74, 1620 ran x1.47, 2880 ran x1.61.
MIN_SHARD_ELEMENTS = 2048

#: Process-wide cap on replica threads (``None``: no cap).
_thread_cap: Optional[int] = None


def cap_replica_threads(limit: Optional[int]) -> Optional[int]:
    """Cap this process's replica-thread budget to ``limit`` (``None`` lifts it).

    Returns the previous cap so a caller can restore it.  Worker processes
    cap to one, like their BLAS pools: their parallelism is the process
    count.
    """
    global _thread_cap
    previous, _thread_cap = _thread_cap, limit
    return previous


def replica_thread_budget() -> int:
    """Threads one exact-tier solve may use: the CPUs this process may run
    on, capped by :func:`cap_replica_threads`."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        cpus = os.cpu_count() or 1
    return max(1, cpus if _thread_cap is None else min(cpus, _thread_cap))


def replica_shards(num_replicas: int, num_oscillators: int) -> int:
    """How many replica shards an exact-tier batch of ``R x N`` runs as."""
    return max(
        1,
        min(
            replica_thread_budget(),
            num_replicas,
            num_replicas * num_oscillators // MIN_SHARD_ELEMENTS,
        ),
    )


class SolverEngine(ABC):
    """Strategy for executing the independent iterations of one solve."""

    #: Engine name as selected by ``MSROPMConfig.engine``.
    name: str = "abstract"

    @abstractmethod
    def run(self, machine: "MSROPM", seeds: Sequence[Optional[int]]) -> List[IterationResult]:
        """Run ``len(seeds)`` iterations of ``machine`` and return their results.

        ``seeds[i]`` seeds iteration ``i``; results are returned in iteration
        order, exactly as ``MSROPM.solve`` aggregated them historically.
        """

    def run_range(
        self,
        machine: "MSROPM",
        seeds: Sequence[Optional[int]],
        start_index: int = 0,
    ) -> List[IterationResult]:
        """Run a contiguous replica range of a larger solve.

        ``seeds`` are the per-iteration seeds of replicas ``start_index ..
        start_index + len(seeds) - 1`` of the enclosing solve; the returned
        results carry those *global* iteration indices.  Because every replica
        draws from its own seeded stream, running a solve as several ranges
        and concatenating the results is bit-identical to one full ``run`` —
        this is the entry point the experiment runtime's replica-chunked jobs
        use (:mod:`repro.runtime.jobs`).
        """
        results = self.run(machine, seeds)
        if start_index:
            for offset, item in enumerate(results):
                item.iteration_index = start_index + offset
        return results


class SequentialEngine(SolverEngine):
    """Runs iterations one at a time (the original interpreter loop)."""

    name = "sequential"

    def run(self, machine: "MSROPM", seeds: Sequence[Optional[int]]) -> List[IterationResult]:
        if machine.config.precision != "exact":
            raise ConfigurationError(
                "the sequential engine only implements the exact precision tier; "
                "use engine='batched' for precision='throughput'"
            )
        return [
            machine.run_iteration(iteration_index=index, seed=seed)
            for index, seed in enumerate(seeds)
        ]


class BatchedEngine(SolverEngine):
    """Advances all iterations as one ``(R, N)`` vectorized integration.

    Every solve runs through the machine's cached :class:`StageExecutor`
    (coupling plans, direct kernels, final-state integration) plus
    replica-vectorized stage scoring and coloring accuracies.  An exact-tier
    batch runs as :func:`replica_shards` contiguous replica ranges on their
    own threads, joined in range order (bit-identical to one batch).

    Parameters
    ----------
    precision:
        ``"exact"``, ``"throughput"``, or ``None`` (default) to defer to the
        machine's ``MSROPMConfig.precision``.  The throughput tier trades the
        bit-identity contract for speed: float32 state and CSR operators, one
        batched noise stream for all replicas (statistically equivalent
        accuracy, enforced by the equivalence harness).
    throughput_options:
        Relaxation switches of the throughput tier
        (:class:`repro.dynamics.batched.ThroughputOptions`); ``None`` means
        the tier defaults.  Ignored on the exact tier.
    """

    name = "batched"

    def __init__(
        self,
        precision: Optional[str] = None,
        throughput_options: Optional[ThroughputOptions] = None,
    ) -> None:
        if precision is not None and precision not in MSROPMConfig.PRECISION_NAMES:
            raise ConfigurationError(
                f"precision must be one of {MSROPMConfig.PRECISION_NAMES}, got {precision!r}"
            )
        self.precision = precision
        self.throughput_options = throughput_options

    def run(self, machine: "MSROPM", seeds: Sequence[Optional[int]]) -> List[IterationResult]:
        precision = self.precision if self.precision is not None else machine.config.precision
        if precision == "throughput":
            options = (
                self.throughput_options
                if self.throughput_options is not None
                else ThroughputOptions()
            )
            rng = (
                ThroughputRNG(seeds)
                if options.batched_rng
                else ReplicaRNG.from_seeds(seeds)
            )
            executor = machine.batched_executor("throughput", options)
            return self._run_batch(machine, executor, rng, seeds)
        executor = machine.batched_executor()
        executor.plan  # built here, before any shard thread reads it
        shards = replica_shards(len(seeds), machine.num_oscillators)
        if shards == 1:
            return self._run_batch(machine, executor, ReplicaRNG.from_seeds(seeds), seeds)
        bounds = [len(seeds) * index // shards for index in range(shards + 1)]
        noise_block_elements = _NOISE_BLOCK_ELEMENTS // shards

        def run_shard(index: int) -> List[IterationResult]:
            start, stop = bounds[index], bounds[index + 1]
            shard_seeds = seeds[start:stop]
            results = self._run_batch(
                machine,
                executor,
                ReplicaRNG.from_seeds(shard_seeds),
                shard_seeds,
                noise_block_elements,
            )
            for offset, item in enumerate(results):
                item.iteration_index = start + offset
            return results

        with ThreadPoolExecutor(
            max_workers=shards - 1, thread_name_prefix="msropm-replica-shard"
        ) as pool:
            futures = [pool.submit(run_shard, index) for index in range(1, shards)]
            results = run_shard(0)
            for future in futures:
                results.extend(future.result())
        return results

    def _run_batch(
        self,
        machine: "MSROPM",
        executor: StageExecutor,
        rng: Union[ReplicaRNG, ThroughputRNG],
        seeds: Sequence[Optional[int]],
        noise_block_elements: Optional[int] = None,
    ) -> List[IterationResult]:
        """The batched body: all ``len(seeds)`` replicas as one ``(R, N)`` solve.

        Results carry local iteration indices ``0 .. R-1``.
        """
        config = machine.config
        num_replicas = len(seeds)
        num = machine.num_oscillators
        phases = random_initial_phases(num, rng)  # (R, N)
        group_values = np.zeros((num_replicas, num), dtype=int)
        stage_records: List[List[StageResult]] = [[] for _ in range(num_replicas)]
        time = 0.0

        for stage_index in range(1, config.num_stages + 1):
            if stage_index > 1:
                # Compute-in-memory hand-off, exactly as in the sequential path.
                phases = perturbed_phases(phases, config.stage2_reinit_jitter, rng)
            phases, bits, _ = executor.run_stage(
                stage_index, phases, group_values, rng, start_time=time,
                noise_block_elements=noise_block_elements,
            )
            time += (
                config.timing.initialization
                + config.timing.annealing
                + config.timing.shil_settling
            )
            for replica, record in enumerate(
                machine._score_stage_batch(stage_index, bits, group_values)
            ):
                stage_records[replica].append(record)
            group_values = group_values + bits * (2 ** (stage_index - 1))

        accuracies = machine._batch_coloring_accuracies(group_values)
        results: List[IterationResult] = []
        for replica in range(num_replicas):
            stage_results = stage_records[replica]
            if stage_results:
                stage_results[-1].final_phases = np.array(phases[replica], dtype=float)
            seed = seeds[replica]
            results.append(
                IterationResult(
                    iteration_index=replica,
                    seed=int(seed) if seed is not None else -1,
                    coloring=machine._decode_coloring(group_values[replica]),
                    accuracy=accuracies[replica],
                    stage_results=stage_results,
                    run_time=config.total_run_time,
                )
            )
        return results


def get_engine(engine: Union[str, SolverEngine, None]) -> SolverEngine:
    """Resolve an engine selection (name, instance, or ``None``) to an engine.

    ``None`` maps to the default :class:`BatchedEngine`; strings must be one
    of ``MSROPMConfig.ENGINE_NAMES``.
    """
    if engine is None:
        return BatchedEngine()
    if isinstance(engine, SolverEngine):
        return engine
    if engine == SequentialEngine.name:
        return SequentialEngine()
    if engine == BatchedEngine.name:
        return BatchedEngine()
    raise ConfigurationError(
        f"engine must be one of {MSROPMConfig.ENGINE_NAMES} or a SolverEngine, got {engine!r}"
    )
