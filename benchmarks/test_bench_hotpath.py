"""Hot-path benchmark: the precompiled batched solve path and its floor.

Measures the hot path on the paper's 40-replica King's-board solves and
writes ``BENCH_hotpath.json``:

* **Whole-solve timings** per board of the batched engine (coupling plans,
  direct kernels, final-state integration, vectorized scoring), verified
  here to produce results bit-identical to the sequential engine.
* **Per-phase breakdown** (integrate / operator-build / decode / dispatch):
  each phase timed in isolation, legacy vs fast, so the whole-solve number is
  decomposable and the phase-level wins are measured rather than asserted.
* **Irreducible floor**: the trig + noise-stream + sparse-kernel cost of one
  solve, measured directly.  These operations are pinned bit-identical by the
  engine tests (same libm calls, same RNG draws, same CSR kernel), so no
  bit-preserving implementation can beat them; the floor bounds the
  achievable whole-solve speedup and contextualizes the reported one.
* **Warm-pool dispatch**: a repeat ``JobScheduler.run`` batch against the
  first (pool spin-up, imports, machine memo warm-up), showing warm dispatch
  overhead below the cold-pool baseline.
* **Throughput tier**: the opt-in ``precision="throughput"`` path (batched
  noise stream, float32 state, optional fused trig) against the exact fast
  path — the tier that *breaks* the bit-identity floor the section above
  measures.  Each relaxation is also timed individually, so the whole-tier
  speedup is decomposable into its RNG / float32 / trig contributions.

Environment knobs:

* ``REPRO_HOTPATH_BENCH_BOARDS`` — comma-separated board sizes (default ``5,7``).
* ``REPRO_HOTPATH_BENCH_REPLICAS`` — replicas per solve (default 40, the paper's).
* ``REPRO_HOTPATH_BENCH_REPEATS`` — timing repetitions (default 3, best-of).
* ``REPRO_BENCH_OUT`` — output path (default ``BENCH_hotpath.json`` in cwd).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core import MSROPM, BatchedEngine, MSROPMConfig, SequentialEngine
from repro.core.stages import partition_coupling_matrix
from repro.dynamics.batched import BlockDiagonalCoupling
from repro.graphs import kings_graph
from repro.rng import ReplicaRNG, make_rng, iteration_seeds
from repro.runtime.atomic import write_atomic_json
from repro.runtime.jobs import KingsGraphSpec, SolveJob, clear_machine_memo
from repro.runtime.scheduler import JobScheduler

BENCH_BOARDS = [
    int(item) for item in os.environ.get("REPRO_HOTPATH_BENCH_BOARDS", "5,7").split(",")
]
BENCH_REPLICAS = int(os.environ.get("REPRO_HOTPATH_BENCH_REPLICAS", "40"))
BENCH_REPEATS = int(os.environ.get("REPRO_HOTPATH_BENCH_REPEATS", "3"))
BENCH_OUT = Path(os.environ.get("REPRO_BENCH_OUT", "BENCH_hotpath.json"))
BENCH_SEED = 7


def _best_of(callable_, repeats=BENCH_REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return result, best


def _fingerprint(result):
    return (
        result.accuracies.tolist(),
        [sorted(item.coloring.assignment.items()) for item in result.iterations],
        [
            [(stage.cut_value, stage.reference_cut, stage.accuracy) for stage in item.stage_results]
            for item in result.iterations
        ],
    )


def _steps(config):
    """Integrated steps of one solve (both stages' annealing + lock intervals)."""
    per_stage = int(np.ceil(config.timing.annealing / config.time_step)) + int(
        np.ceil(config.timing.shil_settling / config.time_step)
    )
    return config.num_stages * per_stage


def _bench_solves():
    boards = []
    for rows in BENCH_BOARDS:
        graph = kings_graph(rows, rows)
        config = MSROPMConfig(num_colors=4, seed=BENCH_SEED)
        machine = MSROPM(graph, config)
        sequential_result = machine.solve(
            iterations=BENCH_REPLICAS, seed=BENCH_SEED, engine=SequentialEngine()
        )
        machine.solve(iterations=BENCH_REPLICAS, seed=BENCH_SEED)  # warm-up
        fast_result, fast_s = _best_of(
            lambda: machine.solve(iterations=BENCH_REPLICAS, seed=BENCH_SEED)
        )
        assert _fingerprint(fast_result) == _fingerprint(sequential_result)
        boards.append(
            {
                "board": f"{rows}x{rows}",
                "nodes": graph.num_nodes,
                "edges": graph.num_edges,
                "replicas": BENCH_REPLICAS,
                "fast_s": round(fast_s, 4),
            }
        )
    return boards


def _bench_phases(rows):
    """Isolated legacy-vs-fast timings for each hot-path phase."""
    graph = kings_graph(rows, rows)
    config = MSROPMConfig(num_colors=4, seed=BENCH_SEED)
    machine = MSROPM(graph, config)
    num = graph.num_nodes
    edge_index = graph.edge_index_array()
    rate = config.coupling_rate
    groups = np.asarray(make_rng(3).integers(0, 2, size=(BENCH_REPLICAS, num)))
    executor = machine.batched_executor()
    plan = executor.plan

    # Operator build: per-replica block_diag loop vs vectorized plan assembly.
    def legacy_build():
        return BlockDiagonalCoupling(
            [partition_coupling_matrix(edge_index, row, num, rate) for row in groups]
        )

    legacy_op, legacy_build_s = _best_of(legacy_build)
    fast_op, fast_build_s = _best_of(lambda: plan.operator(groups))
    assert np.array_equal(legacy_op.matrix.indptr, fast_op.matrix.indptr)
    assert np.array_equal(legacy_op.matrix.indices, fast_op.matrix.indices)

    # Integration: one annealing interval, recording reference loop (the
    # pre-overhaul integrator contract: allocating RHS, per-step temporaries,
    # thinned trajectory) vs the final-state fast path.
    from repro.dynamics.batched import BatchedOscillatorModel
    from repro.dynamics.integrators import euler_maruyama_final, integrate_euler_maruyama

    model = BatchedOscillatorModel(coupling=fast_op, num_oscillators=num)
    legacy_model = BatchedOscillatorModel(coupling=legacy_op, num_oscillators=num)
    legacy_model_view = lambda t, y: legacy_model(t, y)  # noqa: E731 - hides evaluate_into
    phases = make_rng(5).uniform(0, 2 * np.pi, size=(BENCH_REPLICAS, num))
    seeds = iteration_seeds(BENCH_SEED, BENCH_REPLICAS)

    def run_legacy_integrate():
        return integrate_euler_maruyama(
            legacy_model_view,
            phases,
            config.timing.annealing,
            config.time_step,
            noise_amplitude=config.phase_noise_diffusion,
            seed=ReplicaRNG.from_seeds(seeds),
            record_every=config.record_every,
        ).final_phases

    def run_fast_integrate():
        return euler_maruyama_final(
            model,
            phases,
            config.timing.annealing,
            config.time_step,
            noise_amplitude=config.phase_noise_diffusion,
            seed=ReplicaRNG.from_seeds(seeds),
        )

    legacy_final, legacy_integrate_s = _best_of(run_legacy_integrate)
    fast_final, fast_integrate_s = _best_of(run_fast_integrate)
    assert np.array_equal(legacy_final, fast_final)

    # Decode/score: per-replica Python loops vs the replica-vectorized pass.
    bits = np.asarray(make_rng(9).integers(0, 2, size=(BENCH_REPLICAS, num)))
    from repro.core.metrics import coloring_accuracy

    def legacy_decode():
        records = [machine._score_stage(2, bits[r], groups[r]) for r in range(BENCH_REPLICAS)]
        accuracies = [
            coloring_accuracy(graph, machine._decode_coloring(groups[r]))
            for r in range(BENCH_REPLICAS)
        ]
        return records, accuracies

    def fast_decode():
        records = machine._score_stage_batch(2, bits, groups)
        accuracies = machine._batch_coloring_accuracies(groups)
        return records, accuracies

    (legacy_records, legacy_acc), legacy_decode_s = _best_of(legacy_decode)
    (fast_records, fast_acc), fast_decode_s = _best_of(fast_decode)
    assert legacy_acc == fast_acc
    assert [(r.cut_value, r.reference_cut, r.accuracy) for r in legacy_records] == [
        (r.cut_value, r.reference_cut, r.accuracy) for r in fast_records
    ]

    return {
        "board": f"{rows}x{rows}",
        "operator_build": {
            "legacy_s": round(legacy_build_s, 6),
            "fast_s": round(fast_build_s, 6),
            "speedup": round(legacy_build_s / fast_build_s, 1),
        },
        "integrate": {
            "legacy_s": round(legacy_integrate_s, 4),
            "fast_s": round(fast_integrate_s, 4),
            "speedup": round(legacy_integrate_s / fast_integrate_s, 3),
        },
        "decode": {
            "legacy_s": round(legacy_decode_s, 6),
            "fast_s": round(fast_decode_s, 6),
            "speedup": round(legacy_decode_s / fast_decode_s, 2),
        },
    }


def _bench_floor(rows):
    """Directly measure the bit-identity-pinned cost floor of one solve.

    Every bit-preserving implementation must execute, per integration step,
    ``sin``/``cos`` over the ``(R, N)`` phase array, consume the per-replica
    Gaussian noise stream, and run the CSR coupling kernel.  Timing those
    three alone bounds the whole-solve speedup any hot-path work can reach.
    """
    graph = kings_graph(rows, rows)
    config = MSROPMConfig(num_colors=4, seed=BENCH_SEED)
    steps = _steps(config)
    num = graph.num_nodes
    phases = make_rng(1).uniform(0, 2 * np.pi, size=(BENCH_REPLICAS, num))
    sin_buf = np.empty_like(phases)
    cos_buf = np.empty_like(phases)

    start = time.perf_counter()
    for _ in range(steps):
        np.sin(phases, out=sin_buf)
        np.cos(phases, out=cos_buf)
    trig_s = time.perf_counter() - start

    rng = ReplicaRNG.from_seeds(iteration_seeds(BENCH_SEED, BENCH_REPLICAS))
    start = time.perf_counter()
    drawn = 0
    while drawn < steps:
        chunk = min(500, steps - drawn)
        rng.noise_block(chunk, phases.shape)
        drawn += chunk
    noise_s = time.perf_counter() - start

    matrix = partition_coupling_matrix(
        graph.edge_index_array(), np.zeros(num, dtype=int), num, config.coupling_rate
    )
    from repro.dynamics.batched import FastSharedCoupling

    operator = FastSharedCoupling(matrix)
    start = time.perf_counter()
    for _ in range(steps):
        operator.apply_pair(cos_buf, sin_buf)
    kernel_s = time.perf_counter() - start

    return {
        "board": f"{rows}x{rows}",
        "steps": steps,
        "trig_s": round(trig_s, 4),
        "noise_stream_s": round(noise_s, 4),
        "coupling_kernel_s": round(kernel_s, 4),
        "floor_s": round(trig_s + noise_s + kernel_s, 4),
        "note": (
            "sin/cos per step, the per-replica RNG noise stream, and the CSR "
            "coupling kernel are pinned bit-identical to the sequential "
            "reference; their sum bounds any bit-preserving solve time from below"
        ),
    }


def _bench_throughput(rows):
    """The throughput tier against the exact fast path, per relaxation.

    Each variant runs the full whole-solve loop; ``throughput`` is the tier's
    default relaxation set, and the *_only variants isolate one relaxation
    each, so the contribution of the batched RNG stream, the float32 state
    and the fused trig is measured rather than inferred.  Accuracy means are
    checked to stay close to the exact tier's (the statistical-equivalence
    harness is the authoritative check; this is a coarse guard).
    """
    from repro.dynamics.batched import ThroughputOptions

    graph = kings_graph(rows, rows)
    config = MSROPMConfig(num_colors=4, seed=BENCH_SEED)
    exact_machine = MSROPM(graph, config)
    exact_machine.solve(iterations=BENCH_REPLICAS, seed=BENCH_SEED)  # warm-up
    exact_result, exact_s = _best_of(
        lambda: exact_machine.solve(iterations=BENCH_REPLICAS, seed=BENCH_SEED)
    )
    exact_mean = float(exact_result.accuracies.mean())

    variants = (
        ("throughput", ThroughputOptions()),
        ("batched_rng_only", ThroughputOptions(float32_state=False)),
        ("float32_only", ThroughputOptions(batched_rng=False)),
        ("fused_trig", ThroughputOptions(fused_shil=True)),
    )
    entries = {}
    for name, options in variants:
        machine = MSROPM(
            graph, MSROPMConfig(num_colors=4, seed=BENCH_SEED, precision="throughput")
        )
        engine = BatchedEngine(precision="throughput", throughput_options=options)
        machine.solve(iterations=BENCH_REPLICAS, seed=BENCH_SEED, engine=engine)  # warm-up
        result, tier_s = _best_of(
            lambda: machine.solve(iterations=BENCH_REPLICAS, seed=BENCH_SEED, engine=engine)
        )
        mean = float(result.accuracies.mean())
        assert abs(mean - exact_mean) < 0.05, (name, mean, exact_mean)
        entries[name] = {
            "time_s": round(tier_s, 4),
            "speedup_vs_exact": round(exact_s / tier_s, 3),
            "mean_accuracy": round(mean, 4),
            "options": {
                "batched_rng": options.batched_rng,
                "float32_state": options.float32_state,
                "fused_shil": options.fused_shil,
            },
        }
    return {
        "board": f"{rows}x{rows}",
        "replicas": BENCH_REPLICAS,
        "exact_s": round(exact_s, 4),
        "exact_mean_accuracy": round(exact_mean, 4),
        "variants": entries,
        "note": (
            "precision='throughput' trades bit-identity for speed; accuracy "
            "equivalence is enforced statistically by 'msropm equivalence'. "
            "The *_only variants isolate one relaxation each; fused_trig adds "
            "the fused-SHIL double-angle form on top of the defaults (off by "
            "default — measured slower than direct float32 sin on this libm)"
        ),
    }


def _bench_dispatch(tmp_path):
    """Cold pool spin-up vs warm-pool dispatch for a repeat job batch.

    The jobs use a reduced-timing configuration so the batch wall time is
    dominated by dispatch overhead — pool spin-up, worker imports, job
    pickling, machine construction — rather than integration work; the warm
    batch keeps the pool and the per-worker machine memo from the cold one.
    """
    from repro.core.config import TimingPlan
    from repro.units import ns

    clear_machine_memo()
    config = MSROPMConfig(
        num_colors=4,
        seed=BENCH_SEED,
        timing=TimingPlan(initialization=ns(1.0), annealing=ns(4.0), shil_settling=ns(2.0)),
        time_step=0.05e-9,
    )
    spec = KingsGraphSpec(5, 5)

    def jobs(offset):
        return [
            SolveJob(spec=spec, config=config, seed=offset + index, total_iterations=4)
            for index in range(6)
        ]

    scheduler = JobScheduler(workers=2)
    try:
        start = time.perf_counter()
        scheduler.run(jobs(0))
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        scheduler.run(jobs(100))
        warm_s = time.perf_counter() - start
        thread_caps = dict(scheduler.thread_caps)
        start_method = scheduler.start_method
    finally:
        scheduler.close()
    return {
        "jobs_per_batch": 6,
        "workers": 2,
        "cold_pool_s": round(cold_s, 4),
        "warm_pool_s": round(warm_s, 4),
        "dispatch_speedup": round(cold_s / warm_s, 3),
        "start_method": start_method,
        "worker_thread_caps": thread_caps,
    }


def test_bench_hotpath(tmp_path):
    boards = _bench_solves()
    largest = max(BENCH_BOARDS)
    phases = _bench_phases(largest)
    floor = _bench_floor(largest)
    dispatch = _bench_dispatch(tmp_path)
    throughput = _bench_throughput(largest)

    largest_entry = next(entry for entry in boards if entry["board"] == f"{largest}x{largest}")
    payload = {
        "benchmark": "hotpath",
        "replicas": BENCH_REPLICAS,
        "repeats": BENCH_REPEATS,
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "solve": boards,
        "phases": phases,
        "floor": floor,
        "dispatch": dispatch,
        "throughput": throughput,
        "floor_utilization": round(floor["floor_s"] / largest_entry["fast_s"], 3),
        "note": (
            "timings are single-process and the solves bit-identical per seed "
            "to the sequential engine; floor_utilization is how close the "
            "batched path runs to the measured bit-identity floor"
        ),
    }
    write_atomic_json(BENCH_OUT, payload, indent=2)
    print(f"\nhotpath benchmark -> {BENCH_OUT}")
    for entry in boards:
        print(f"  {entry['board']} x{entry['replicas']}: {entry['fast_s']:.3f}s")
    print(
        f"  phases @ {phases['board']}: operator-build {phases['operator_build']['speedup']}x, "
        f"integrate {phases['integrate']['speedup']}x, decode {phases['decode']['speedup']}x"
    )
    print(
        f"  dispatch: cold {dispatch['cold_pool_s']:.3f}s vs warm {dispatch['warm_pool_s']:.3f}s "
        f"({dispatch['dispatch_speedup']:.2f}x)"
    )
    tier = throughput["variants"]["throughput"]
    print(
        f"  throughput tier @ {throughput['board']}: exact {throughput['exact_s']:.3f}s vs "
        f"{tier['time_s']:.3f}s ({tier['speedup_vs_exact']:.2f}x); "
        f"rng-only {throughput['variants']['batched_rng_only']['speedup_vs_exact']:.2f}x, "
        f"f32-only {throughput['variants']['float32_only']['speedup_vs_exact']:.2f}x, "
        f"fused-trig {throughput['variants']['fused_trig']['speedup_vs_exact']:.2f}x"
    )

    # Each overhauled phase must win individually (loose floors: CI boxes
    # are noisy).
    assert phases["operator_build"]["speedup"] >= 2.0
    assert phases["decode"]["speedup"] >= 1.2
    assert phases["integrate"]["fast_s"] <= phases["integrate"]["legacy_s"]
    # Warm-pool dispatch overhead must be measurably below the cold pool.
    assert dispatch["warm_pool_s"] < dispatch["cold_pool_s"]
    # The throughput tier must clear the bit-identity floor decisively (the
    # target is >=3x on a quiet box; 2.5 leaves headroom for noisy CI runners)
    # and each individual relaxation must not lose to the exact path.
    assert tier["speedup_vs_exact"] >= 2.5
    for name in ("batched_rng_only", "float32_only", "fused_trig"):
        assert throughput["variants"][name]["speedup_vs_exact"] >= 1.0, name
