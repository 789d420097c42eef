"""Which public functions of ``repro`` the traced run wraps, layer by layer.

Every entry names a module, an attribute path inside it, the span name and
the layer the span's self time belongs to.  Module-level functions are also
replaced wherever another ``repro`` module imported them by name, so a call
through ``from x import f`` is traced too.  An entry whose target no longer
exists is skipped and reported as missing; the metrics it feeds then read 0.

Forked pool workers inherit the wrapped functions, so installing before the
pool starts traces worker-side work as well.
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Any, Dict, List, Optional, Tuple

from perfbench.tracer import Tracer, traced

#: Modules imported before wrapping, so every by-name alias exists already.
PRELOAD = (
    "repro.cli",
    "repro.campaigns",
    "repro.campaigns.orchestrator",
    "repro.campaigns.ledger",
    "repro.core.machine",
    "repro.core.stages",
    "repro.dynamics.batched",
    "repro.dynamics.integrators",
    "repro.experiments.scenario_matrix",
    "repro.rng",
    "repro.runtime.baselines",
    "repro.runtime.cache",
    "repro.runtime.jobs",
    "repro.runtime.runner",
    "repro.runtime.scheduler",
    "repro.service.client",
    "repro.service.protocol",
    "repro.service.server",
    "repro.workloads.registry",
)


# ----------------------------------------------------------------------
# Counter hooks (run inside the span of the call they observe)
# ----------------------------------------------------------------------
def _count_node_steps(tracer: Tracer, args, kwargs) -> None:
    # evaluate_into(self, time, phases, out): one integrator step of R x N.
    # The throughput model's evaluate_into may delegate to the exact one;
    # count the step once, in the outermost evaluation.
    if tracer.depth("dynamics.batched.evaluate") != 1:
        return
    phases = args[2] if len(args) > 2 else kwargs["phases"]
    tracer.count("kernel.node_steps", phases.size)


def _count_csr(tracer: Tracer, args, kwargs) -> None:
    # apply_pair(self, first, second): two fields through the CSR kernel.
    operator, first = args[0], args[1]
    matrix = getattr(operator, "matrix", None)
    nnz = getattr(matrix, "nnz", None)
    if nnz is None:
        return
    replicas = first.shape[0]
    shared = not hasattr(operator, "num_replicas")  # one matrix for every replica
    vectors = 2 * replicas if shared else 2
    itemsize = matrix.data.dtype.itemsize
    index_size = matrix.indices.dtype.itemsize
    rows = matrix.shape[0]
    tracer.count("kernel.csr_nnz", nnz * vectors)
    # Computed from array sizes (cache misses ignored): values and column
    # indices once per kernel call, row pointers, one gathered input element
    # per stored nonzero and vector, one output element per row and vector.
    calls = 1 if shared else 2
    tracer.count(
        "kernel.bytes_computed",
        calls * (nnz * (itemsize + index_size) + (rows + 1) * index_size)
        + nnz * vectors * itemsize
        + rows * vectors * itemsize,
    )


def _runner_stats(tracer: Tracer, args, kwargs) -> Dict[str, int]:
    return args[0].stats()


def _runner_memo_run_jobs(tracer: Tracer, args, kwargs, result, before) -> None:
    after = args[0].stats()
    requested = len(result)
    served_elsewhere = (after["jobs_run"] - before["jobs_run"]) + (
        after["cache_hits"] - before["cache_hits"]
    )
    tracer.count("runner.requested", requested)
    tracer.count("runner.memo_hits", max(0, requested - served_elsewhere))


def _runner_memo_submit(tracer: Tracer, args, kwargs, result, before) -> None:
    after = args[0].stats()
    served = after["tickets_cache_served"] - before["tickets_cache_served"]
    disk = after["cache_hits"] - before["cache_hits"]
    tracer.count("runner.requested", len(result))
    tracer.count("runner.memo_hits", max(0, served - disk))


def _cache_store_bytes(tracer: Tracer, args, kwargs, result, state) -> None:
    cache, job = args[0], args[1]
    if getattr(job, "cacheable", False):
        try:
            tracer.count("cache.bytes_written", cache.path_for(job.job_hash).stat().st_size)
        except OSError:
            pass


def _payload_store_bytes(tracer: Tracer, args, kwargs, result, state) -> None:
    cache, kind, key = args[0], args[1], args[2]
    try:
        tracer.count("cache.bytes_written", cache.payload_path(kind, key).stat().st_size)
    except OSError:
        pass


def _count_batch(tracer: Tracer, args, kwargs) -> None:
    jobs = args[1] if len(args) > 1 else kwargs.get("jobs", ())
    if len(jobs):
        tracer.count("bench.batches")


def _count_rejected(tracer: Tracer, args, kwargs, result, state) -> None:
    if isinstance(result, tuple) and result and result[0] == 429:
        tracer.count("service.rejected")


def _route_name(args, kwargs) -> str:
    target = args[2] if len(args) > 2 else kwargs.get("target", "")
    path = str(target).partition("?")[0]
    if path == "/v1/submit":
        return "service.handle.submit"
    if path.startswith("/v1/tickets/"):
        return "service.handle.tickets"
    return "service.handle.other"


def _baseline_name(args, kwargs) -> str:
    kind = args[1] if len(args) > 1 else kwargs.get("baseline", "other")
    return f"baselines.{kind}"


# ----------------------------------------------------------------------
# The plan: (module, attribute path, span name, layer, options)
# ----------------------------------------------------------------------
PLAN: Tuple[Tuple[str, str, str, str, Dict[str, Any]], ...] = (
    # dynamics.batched — the RHS evaluation (trig) and the coupling kernel
    ("repro.dynamics.batched", "BatchedOscillatorModel.evaluate_into",
     "dynamics.batched.evaluate", "dynamics.batched", {"before": _count_node_steps}),
    ("repro.dynamics.batched", "ThroughputOscillatorModel.evaluate_into",
     "dynamics.batched.evaluate", "dynamics.batched", {"before": _count_node_steps}),
    ("repro.dynamics.batched", "SharedCoupling.apply_pair",
     "dynamics.batched.apply_pair", "dynamics.batched", {"before": _count_csr}),
    ("repro.dynamics.batched", "FastSharedCoupling.apply_pair",
     "dynamics.batched.apply_pair", "dynamics.batched", {"before": _count_csr}),
    ("repro.dynamics.batched", "BlockDiagonalCoupling.apply_pair",
     "dynamics.batched.apply_pair", "dynamics.batched", {"before": _count_csr}),
    ("repro.dynamics.batched", "FastBlockDiagonalCoupling.apply_pair",
     "dynamics.batched.apply_pair", "dynamics.batched", {"before": _count_csr}),
    # rng — the per-block noise stream of both tiers
    ("repro.rng", "ReplicaRNG.noise_block", "rng.noise_block", "rng", {}),
    ("repro.rng", "ThroughputRNG.noise_block", "rng.noise_block", "rng", {}),
    # dynamics.integrators — self time is the Python per-step loop
    ("repro.dynamics.integrators", "euler_maruyama_final",
     "dynamics.integrators.euler_maruyama_final", "dynamics.integrators", {}),
    # core.stages
    ("repro.core.stages", "StageExecutor.run_stage", "core.stages.run_stage", "core.stages", {}),
    ("repro.core.stages", "CouplingPlan.operator", "core.stages.operator", "core.stages", {}),
    # core.machine — construction, and solve_range minus run_stage (decode, scoring)
    ("repro.core.machine", "MSROPM.__init__", "core.machine.build", "core.machine", {}),
    ("repro.core.machine", "MSROPM.solve_range", "core.machine.solve_range", "core.machine", {}),
    # runtime.jobs
    ("repro.runtime.jobs", "build_machine", "runtime.jobs.build_machine", "runtime.jobs", {}),
    ("repro.runtime.jobs", "merge_job_results", "runtime.jobs.merge", "runtime.jobs", {}),
    ("repro.runtime.jobs", "SolveJob.execute", "runtime.jobs.execute", "runtime.jobs",
     {"record": True}),
    ("repro.runtime.baselines", "BaselineJob.execute", "runtime.jobs.execute", "runtime.jobs",
     {"record": True}),
    # runtime.scheduler — the caller blocks here while a pool works
    ("repro.runtime.scheduler", "JobScheduler.run", "runtime.scheduler.run",
     "runtime.scheduler", {"wait": True, "before": _count_batch}),
    # runtime.cache
    ("repro.runtime.cache", "ResultCache.load", "runtime.cache.load", "runtime.cache", {}),
    ("repro.runtime.cache", "ResultCache.load_envelope", "runtime.cache.load", "runtime.cache", {}),
    ("repro.runtime.cache", "ResultCache.load_payload", "runtime.cache.load", "runtime.cache", {}),
    ("repro.runtime.cache", "ResultCache.store", "runtime.cache.store", "runtime.cache",
     {"after": _cache_store_bytes}),
    ("repro.runtime.cache", "ResultCache.store_payload", "runtime.cache.store", "runtime.cache",
     {"after": _payload_store_bytes}),
    ("repro.runtime.cache", "ResultCache.verify", "runtime.cache.verify", "runtime.cache", {}),
    # runtime.runner
    ("repro.runtime.runner", "ExperimentRunner.solve", "runtime.runner.solve",
     "runtime.runner", {}),
    ("repro.runtime.runner", "ExperimentRunner.solve_many", "runtime.runner.solve_many",
     "runtime.runner", {}),
    ("repro.runtime.runner", "ExperimentRunner.run_jobs", "runtime.runner.run_jobs",
     "runtime.runner", {"before": _runner_stats, "after": _runner_memo_run_jobs}),
    ("repro.runtime.runner", "ExperimentRunner.submit_jobs", "runtime.runner.submit_jobs",
     "runtime.runner", {"before": _runner_stats, "after": _runner_memo_submit}),
    ("repro.runtime.runner", "ExperimentRunner.poll", "runtime.runner.poll", "runtime.runner", {}),
    # campaigns
    ("repro.campaigns.orchestrator", "run_campaign", "campaigns.run_campaign", "campaigns", {}),
    ("repro.campaigns.ledger", "RunLedger.append", "campaigns.ledger_append", "campaigns", {}),
    ("repro.campaigns.ledger", "RunLedger.start_run", "campaigns.ledger_append", "campaigns", {}),
    # workloads and experiments
    ("repro.workloads.registry", "cached_reference", "workloads.reference", "workloads", {}),
    ("repro.workloads.registry", "expand_workloads", "workloads.expand", "workloads", {}),
    ("repro.experiments.scenario_matrix", "plan_scenario_requests", "experiments.plan",
     "experiments", {}),
    ("repro.experiments.scenario_matrix", "plan_baseline_jobs", "experiments.plan",
     "experiments", {}),
    ("repro.experiments.scenario_matrix", "run_scenario_matrix", "experiments.scenario_matrix",
     "experiments", {}),
    # baselines — one span name per kind
    ("repro.runtime.baselines", "run_baseline", "baselines", "baselines",
     {"name_of": _baseline_name}),
    # service — per-route request handling and the wire protocol
    ("repro.service.server", "SolverService.handle", "service.handle", "service",
     {"name_of": _route_name, "after": _count_rejected}),
    ("repro.service.protocol", "build_jobs", "service.protocol", "service", {}),
    # the client's round trips, which wait on the server process
    ("repro.service.client", "ServiceClient.request", "service.client.request",
     "service.client", {"wait": True}),
)

def _resolve(module_name: str, path: str) -> Tuple[Optional[Any], str, Optional[Any]]:
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None, "", None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, "", None
    attribute = parts[-1]
    if isinstance(owner, type):
        value = owner.__dict__.get(attribute)
    else:
        value = getattr(owner, attribute, None)
    return owner, attribute, value


def install(tracer: Tracer) -> List[str]:
    """Wrap every function of :data:`PLAN`; returns the entries not found."""
    for name in PRELOAD:
        importlib.import_module(name)
    missing: List[str] = []
    for module_name, path, span, layer, options in PLAN:
        owner, attribute, original = _resolve(module_name, path)
        if original is None or not callable(original):
            missing.append(f"{module_name}:{path}")
            continue
        wrapper = traced(tracer, original, span, layer, **options)
        setattr(owner, attribute, wrapper)
        if not isinstance(owner, type):
            # Rebind by-name imports of a module-level function.
            for module in list(sys.modules.values()):
                if module is None or not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, alias, wrapper)
    if not _wrap_job_hash(tracer):
        missing.append("repro.runtime.jobs:Job.job_hash")
    return missing


def _wrap_job_hash(tracer: Tracer) -> bool:
    jobs = importlib.import_module("repro.runtime.jobs")
    job_class = getattr(jobs, "Job", None)
    prop = job_class.__dict__.get("job_hash") if job_class is not None else None
    if not isinstance(prop, functools.cached_property):
        return False
    wrapped = functools.cached_property(
        traced(tracer, prop.func, "runtime.jobs.hash", "runtime.jobs")
    )
    wrapped.__set_name__(job_class, "job_hash")
    setattr(job_class, "job_hash", wrapped)
    return True
