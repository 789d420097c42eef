"""Turn the span files of a traced run into per-layer metrics.

Two views of the same spans:

* **Per-layer totals** sum every lane of every process: busy and self times,
  call counts and counters.  Parallel pool workers add up, so these can
  exceed the wall time; they say how much work each layer did.
* **Reconciliation** splits the wall time of the main lane (the thread that
  runs the workload's units) into layers.  Each unit is a root span on the
  main lane, so its duration is exactly the sum of the self times in its
  subtree; the unit span's own self time is the time no traced layer
  covered, reported as the explicit *unaccounted* line.  Where the main lane
  waits on another lane (a pool, a server), the waiting span's self time is
  handed to whatever the other lanes were doing during it: the share of the
  wait that other lanes' root spans cover goes to their layers, in
  proportion to each root's overlap and its own layer breakdown; the
  uncovered rest stays with the waiting layer.  The total is unchanged.
"""

from __future__ import annotations

import bisect
import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Layer of the benchmark's own unit span; its self time is "unaccounted".
UNIT_LAYER = "bench"
UNIT_SPAN = "bench.unit"


def load_trace(trace_dir: Path) -> List[Dict[str, Any]]:
    """Every process's span snapshot found in ``trace_dir``."""
    processes = []
    for path in sorted(Path(trace_dir).glob("spans-*.json")):
        processes.append(json.loads(path.read_text(encoding="utf-8")))
    return processes


def merge_aggregates(processes: Sequence[Dict[str, Any]]) -> Tuple[Dict[str, Dict[str, float]], Dict[str, float]]:
    """Sum span aggregates and counters over every lane of every process."""
    spans: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "outer_calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    counters: Dict[str, float] = defaultdict(float)
    for process in processes:
        for lane in process["lanes"]:
            for name, values in lane["aggregates"].items():
                for key, value in values.items():
                    spans[name][key] += value
            for name, value in lane["counters"].items():
                counters[name] += value
            counters["trace.mismatched_exits"] += lane.get("mismatched_exits", 0)
        for name, value in process.get("extra", {}).get("counters", {}).items():
            counters[name] += value
    return dict(spans), dict(counters)


def _lanes(processes: Sequence[Dict[str, Any]]):
    for process in processes:
        yield from process["lanes"]


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def delegate(
    wait: Dict[str, Any], others: Sequence[Dict[str, Any]], starts: Sequence[float], longest: float
) -> Dict[str, float]:
    """Split one waiting span's self time between other lanes and itself.

    ``others`` are other lanes' root records sorted by start (``starts`` the
    matching start times, ``longest`` the longest duration among them).
    Returns seconds per layer summing to the wait's self time.
    """
    start, end, own = wait["start"], wait["end"], wait["self_s"]
    duration = end - start
    if own <= 0 or duration <= 0:
        return {wait["layer"]: own}
    low = bisect.bisect_left(starts, start - longest)
    high = bisect.bisect_left(starts, end)
    overlaps: List[Tuple[float, Dict[str, Any]]] = []
    clipped: List[Tuple[float, float]] = []
    for record in others[low:high]:
        left, right = max(start, record["start"]), min(end, record["end"])
        if right > left:
            overlaps.append((right - left, record))
            clipped.append((left, right))
    if not overlaps:
        return {wait["layer"]: own}
    covered = own * min(1.0, _union_length(clipped) / duration)
    total_overlap = sum(length for length, _ in overlaps)
    shares: Dict[str, float] = defaultdict(float)
    for length, record in overlaps:
        weight = covered * length / total_overlap
        record_duration = record["end"] - record["start"]
        breakdown = record["breakdown"]
        subtotal = sum(breakdown.values())
        if record_duration <= 0 or subtotal <= 0:
            shares[record["layer"]] += weight
            continue
        for layer, seconds in breakdown.items():
            shares[layer] += weight * seconds / subtotal
    shares[wait["layer"]] += own - covered
    return dict(shares)


def reconcile(processes: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Split the main lane's unit time into layers plus an unaccounted line.

    Returns ``{"wall_s", "layers": {layer: s}, "unaccounted_s", "units"}``
    where ``wall_s`` is the summed duration of the main lane's unit spans.
    """
    main_roots: List[Dict[str, Any]] = []
    main_waits: List[Dict[str, Any]] = []
    others: List[Dict[str, Any]] = []
    for lane in _lanes(processes):
        for record in lane["records"]:
            if lane["main"]:
                if record["kind"] == "root" and record["name"] == UNIT_SPAN:
                    main_roots.append(record)
                elif record["kind"] == "span" and record["wait"]:
                    main_waits.append(record)
            elif record["kind"] == "root":
                others.append(record)
    # Only waits inside a unit count: set-up and after-the-fact checks on
    # the main lane are outside the measured wall time.
    main_roots.sort(key=lambda record: record["start"])
    unit_starts = [record["start"] for record in main_roots]

    def in_unit(record: Dict[str, Any]) -> bool:
        index = bisect.bisect_right(unit_starts, record["start"]) - 1
        return index >= 0 and record["end"] <= main_roots[index]["end"]

    main_waits = [record for record in main_waits if in_unit(record)]
    others.sort(key=lambda record: record["start"])
    starts = [record["start"] for record in others]
    longest = max((record["end"] - record["start"] for record in others), default=0.0)

    layers: Dict[str, float] = defaultdict(float)
    wall = 0.0
    for root in main_roots:
        wall += root["end"] - root["start"]
        for layer, seconds in root["breakdown"].items():
            layers[layer] += seconds
    for wait in main_waits:
        layers[wait["layer"]] -= wait["self_s"]
        for layer, seconds in delegate(wait, others, starts, longest).items():
            layers[layer] += seconds
    unaccounted = layers.pop(UNIT_LAYER, 0.0)
    return {
        "wall_s": wall,
        "layers": dict(sorted(layers.items())),
        "unaccounted_s": unaccounted,
        "units": len(main_roots),
    }


def reconciliation_error(result: Dict[str, Any], wall_s: float) -> float:
    """How far layer self times plus the unaccounted line miss ``wall_s``."""
    return abs(sum(result["layers"].values()) + result["unaccounted_s"] - wall_s)


def reconciles(result: Dict[str, Any], wall_s: float, tolerance: float = 0.01) -> bool:
    """The reconciliation check: the parts add up to the measured wall time
    within ``tolerance`` of it (or 5 ms), and no part is negative.

    The parts add up to the unit spans' durations by construction (self
    times telescope, and a delegated wait keeps its total), and those agree
    with the wall the workload timed itself.  So the check is a consistency
    check of the trace: it fails when span records are lost (a process's
    span file missing or cut short) or mis-nested, or a wait is handed out
    more than once; it does not bound how much time no layer covers.
    """
    parts = list(result["layers"].values()) + [result["unaccounted_s"]]
    if any(part < -1e-6 for part in parts):
        return False
    return reconciliation_error(result, wall_s) <= max(0.005, tolerance * wall_s)


def job_waits(processes: Sequence[Dict[str, Any]]) -> Tuple[float, float, float]:
    """(mean job wait, summed job busy time, summed batch time).

    A job's wait runs from the start of the scheduler batch that contains the
    job's start until the job starts; batches and jobs of one process tree
    share ``CLOCK_MONOTONIC``, so worker-side jobs are matched to the
    parent's batch by time.
    """
    batches: List[Tuple[float, float]] = []
    jobs: List[Tuple[float, float]] = []
    for lane in _lanes(processes):
        for record in lane["records"]:
            if record["name"] == "runtime.scheduler.run":
                batches.append((record["start"], record["end"]))
            elif record["name"] == "runtime.jobs.execute":
                jobs.append((record["start"], record["end"]))
    batches.sort()
    batch_starts = [start for start, _ in batches]
    wait = 0.0
    for start, _ in jobs:
        index = bisect.bisect_right(batch_starts, start) - 1
        while index >= 0 and batches[index][1] < start:
            index -= 1
        if index >= 0:
            wait += start - batches[index][0]
    busy = sum(end - start for start, end in jobs)
    batch_time = sum(end - start for start, end in batches)
    return _ratio(wait, len(jobs)), busy, batch_time


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(
    processes: Sequence[Dict[str, Any]], workers: int, import_times: Optional[Dict[str, float]] = None
) -> Dict[str, float]:
    """Every per-layer metric of one traced run (0 where a layer did not run)."""
    spans, counters = merge_aggregates(processes)

    def busy(name: str) -> float:
        return spans.get(name, {}).get("busy_s", 0.0)

    def own(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return spans.get(name, {}).get("outer_calls", 0)

    def own_prefix(prefix: str) -> float:
        return sum(values["self_s"] for name, values in spans.items() if name.startswith(prefix))

    wait, job_busy, batch_time = job_waits(processes)
    node_steps = counters.get("kernel.node_steps", 0.0)
    integrate_busy = busy("dynamics.integrators.euler_maruyama_final")
    build_calls = spans.get("runtime.jobs.build_machine", {}).get("calls", 0)
    machine_builds = spans.get("core.machine.build", {}).get("calls", 0)
    cache_hits = counters.get("cache.hits", 0.0)
    cache_lookups = cache_hits + counters.get("cache.misses", 0.0)
    metrics = {
        "dynamics.batched.evaluate_self_s": own("dynamics.batched.evaluate"),
        "dynamics.batched.coupling_busy_s": busy("dynamics.batched.apply_pair"),
        "dynamics.batched.evaluate_calls": calls("dynamics.batched.evaluate"),
        "dynamics.batched.apply_pair_calls": calls("dynamics.batched.apply_pair"),
        "rng.noise_busy_s": busy("rng.noise_block"),
        "dynamics.integrators.loop_self_s": own("dynamics.integrators.euler_maruyama_final"),
        "core.stages.run_stage_self_s": own("core.stages.run_stage"),
        "core.stages.operator_busy_s": busy("core.stages.operator"),
        "core.machine.build_busy_s": busy("core.machine.build"),
        "core.machine.solve_self_s": own("core.machine.solve_range"),
        "kernel.node_steps": node_steps,
        "kernel.ns_per_node_step": _ratio(integrate_busy * 1e9, node_steps),
        "kernel.csr_nnz": counters.get("kernel.csr_nnz", 0.0),
        "kernel.bytes_computed": counters.get("kernel.bytes_computed", 0.0),
        "runtime.jobs.hash_busy_s": busy("runtime.jobs.hash"),
        "runtime.jobs.build_machine_busy_s": busy("runtime.jobs.build_machine"),
        "runtime.jobs.machine_memo_hit_ratio": _ratio(max(0, build_calls - machine_builds), build_calls),
        "runtime.jobs.merge_busy_s": busy("runtime.jobs.merge"),
        "runtime.scheduler.batches": counters.get("bench.batches", 0.0),
        "runtime.scheduler.busy_s": busy("runtime.scheduler.run"),
        "runtime.scheduler.job_wait_s": wait,
        "runtime.scheduler.parallel_efficiency": _ratio(job_busy, workers * batch_time),
        "runtime.scheduler.retries": counters.get("executor.broken_pool_retries", 0.0),
        "runtime.cache.load_busy_s": busy("runtime.cache.load"),
        "runtime.cache.store_busy_s": busy("runtime.cache.store"),
        "runtime.cache.hit_ratio": _ratio(cache_hits, cache_lookups),
        "runtime.cache.bytes_written": counters.get("cache.bytes_written", 0.0),
        "runtime.runner.self_s": own_prefix("runtime.runner."),
        "runtime.runner.memo_hit_ratio": _ratio(
            counters.get("runner.memo_hits", 0.0), counters.get("runner.requested", 0.0)
        ),
        "runtime.runner.tickets_coalesced": counters.get("runner.tickets_coalesced", 0.0),
        "campaigns.self_s": own_prefix("campaigns."),
        "campaigns.ledger_append_busy_s": busy("campaigns.ledger_append"),
        "workloads.reference_busy_s": busy("workloads.reference"),
        "experiments.plan_busy_s": busy("experiments.plan"),
        "baselines.sa_busy_s": busy("baselines.sa"),
        "baselines.tabu_busy_s": busy("baselines.tabu"),
        "baselines.roim_busy_s": busy("baselines.roim"),
        "baselines.single_stage_busy_s": busy("baselines.single_stage"),
        "service.handle_submit_busy_s": busy("service.handle.submit"),
        "service.handle_tickets_busy_s": busy("service.handle.tickets"),
        "service.handle_other_busy_s": busy("service.handle.other"),
        "service.rejected": counters.get("service.rejected", 0.0),
        "trace.mismatched_exits": counters.get("trace.mismatched_exits", 0.0),
    }
    for name, seconds in (import_times or {}).items():
        metrics[name] = seconds
    return metrics
