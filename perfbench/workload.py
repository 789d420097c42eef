"""One workload run, in its own process: set up, run units, check outputs.

Started by ``perfbench/run.py`` as ``python -m perfbench.workload ...`` with
``PYTHONPATH`` pointing at the checkout's ``src`` and the math-library
thread caps exported.  The process writes everything it measured to
``<work-dir>/result.json``; ``run.py`` turns that into metrics.

Set-up time runs from the moment the parent spawned the process (passed in
as ``--spawned-at``, a ``CLOCK_MONOTONIC`` reading) until the process could
submit its first job.  ``--probes N`` re-spawns the same set-up ``N`` more
times (``--probe`` processes that exit once ready), so a run carries several
set-up samples.  On ``service-replay`` the set-up samples are server starts.

A *unit* is the repeated piece of work the wall time is taken over: one
solve on ``kings46-*``, one cold campaign on ``zoo-campaign``.  Units repeat
until ``--seconds`` have passed.  On ``service-replay`` a unit is one request
(submit, poll, fetch, check) and the wall time is taken over blocks of the
trace, each with the same mix of requests; whole blocks repeat until
``--seconds`` have passed or the trace is used up.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench.analysis import UNIT_LAYER, UNIT_SPAN

clock = time.monotonic

WORKLOADS = ("kings46-exact", "kings46-throughput", "zoo-campaign", "service-replay")

THREAD_CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Workload sizes: the measured size and a tiny smoke size for the tests.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "kings_rows": 46,
        "kings_replicas": 40,
        "zoo_params": {},
        "zoo_workers": 2,
        "service_rows": (5, 6, 7, 8, 9),
        "service_iterations": 10,
        "service_families": ["er", "planar"],
        "service_scenario_iterations": 3,
        "service_blocks": 24,
    },
    "smoke": {
        "kings_rows": 5,
        "kings_replicas": 4,
        "zoo_params": {"families": ["er", "maxcut"], "iterations": 2},
        "zoo_workers": 2,
        "service_rows": (3, 4),
        "service_iterations": 2,
        "service_families": ["er"],
        "service_scenario_iterations": 2,
        "service_blocks": 2,
    },
}

#: The mix of one block of the service trace.  No recorded service traffic
#: exists to take it from, so it is an assumption: misses (ten fresh solve
#: keys, two per board size) carry the compute; eighteen runner-memo repeats
#: make hits the majority, as a warm service with skewed seed reuse would
#: see; one pre-filled key per block exercises disk-cache reads; one
#: multi-job ``scenarios`` spec, the same pre-filled one in every block, is
#: a disk read once and a memo hit after.  Every block has the same mix, so
#: the time to serve one block is comparable across seeds, runs and hosts.
SERVICE_MISSES_PER_ROW = 2
SERVICE_REPEATS = 18
SERVICE_DISK_READS = 1

#: Seconds between ticket polls of the service client.
POLL_INTERVAL = 0.01

#: The service's per-client token bucket is set wide enough that the single
#: closed-loop client is never throttled (the default of 50 jobs/s would be).
SERVICE_RATE = "1000"

#: Accuracies are recomputed from the returned colorings to this tolerance.
ACCURACY_TOLERANCE = 1e-12


def derive_seed(seed: int, *parts: Any) -> int:
    """A stable 31-bit seed derived from the workload seed and a label."""
    text = ":".join(str(part) for part in (seed,) + parts)
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:8], 16) & 0x7FFFFFFF


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------
def check_solve(result, graph, num_colors: int, replicas: int) -> List[str]:
    """Check one solve: replica count, every node colored below K, and the
    reported accuracy equal to one recomputed from the coloring."""
    from repro.core.metrics import coloring_accuracy

    failures = []
    if len(result.iterations) != replicas:
        failures.append(f"expected {replicas} replicas, got {len(result.iterations)}")
    nodes = set(graph.nodes)
    for item in result.iterations:
        assignment = item.coloring.assignment
        if set(assignment) != nodes:
            failures.append(f"replica {item.iteration_index}: coloring does not cover the graph")
            continue
        if any(not 0 <= color < num_colors for color in assignment.values()):
            failures.append(f"replica {item.iteration_index}: a color is outside [0, {num_colors})")
        recomputed = coloring_accuracy(graph, item.coloring)
        if abs(recomputed - item.accuracy) > ACCURACY_TOLERANCE:
            failures.append(
                f"replica {item.iteration_index}: reported accuracy {item.accuracy} "
                f"!= recomputed {recomputed}"
            )
    return failures


class Recorder:
    """What a workload run measured (written to ``result.json``)."""

    def __init__(self, workload: str, seed: int) -> None:
        self.data: Dict[str, Any] = {
            "workload": workload,
            "seed": seed,
            "setup_s": [],
            "units": [],
            "attempted": 0,
            "failed": 0,
            "failures": [],
            "accuracies": [],
            "best_per_problem": [],
            "latency": {"hit": [], "miss": []},
            "split": {"memo": 0, "disk": 0, "miss": 0},
        }

    def operation(self, failures: Sequence[str], label: str) -> None:
        """Count one attempted operation, failed if any check failed."""
        self.data["attempted"] += 1
        if failures:
            self.data["failed"] += 1
            if len(self.data["failures"]) < 20:
                self.data["failures"].append(f"{label}: {'; '.join(failures[:3])}")

    def accuracies(self, result) -> None:
        values = [float(item.accuracy) for item in result.iterations]
        if values:
            self.data["accuracies"].extend(values)
            self.data["best_per_problem"].append(max(values))


# ----------------------------------------------------------------------
# Tracing hooks (no-ops when the run is untraced)
# ----------------------------------------------------------------------
class Spans:
    def __init__(self, tracer=None) -> None:
        self.tracer = tracer

    def unit(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(UNIT_SPAN, UNIT_LAYER)

    def check(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span("bench.check", "bench.check")

    def sleep(self, seconds: float) -> None:
        if self.tracer is None:
            time.sleep(seconds)
            return
        with self.tracer.span("bench.poll_sleep", "bench.poll_sleep", wait=True):
            time.sleep(seconds)


def start_tracing(trace_dir: Optional[str], main_thread: bool = True):
    if not trace_dir:
        return None
    from perfbench.layers import install
    from perfbench.tracer import Tracer

    tracer = Tracer(Path(trace_dir), main_thread=main_thread)
    tracer.extra["missing"] = install(tracer)
    return tracer


def finish_tracing(tracer) -> None:
    if tracer is None:
        return
    from repro.obs.metrics import get_metrics

    tracer.extra["counters"] = get_metrics().snapshot()["counters"]
    tracer.flush()


# ----------------------------------------------------------------------
# kings46-exact / kings46-throughput
# ----------------------------------------------------------------------
def setup_kings(precision: str, size: Dict[str, Any]):
    from repro.cli import build_parser, runner_from_args  # noqa: F401

    return build_parser().parse_args(
        ["solve", "--rows", str(size["kings_rows"]), "--iterations", str(size["kings_replicas"]),
         "--precision", precision, "--no-cache", "--workers", "1"]
    )


def run_kings(recorder: Recorder, args, seconds: float, spans: Spans, seed: int) -> None:
    from repro.cli import runner_from_args
    from repro.core.config import MSROPMConfig
    from repro.graphs.generators import kings_graph
    from repro.runtime.jobs import KingsGraphSpec, clear_machine_memo

    graph = kings_graph(args.rows, args.rows)
    spec = KingsGraphSpec(args.rows, args.rows)
    loop_start = clock()
    index = 0
    while index == 0 or clock() - loop_start < seconds:
        unit_seed = derive_seed(seed, "kings", index)
        # Every unit is a cold `msropm solve`: a fresh runner, no machine
        # carried over, nothing of the previous unit kept alive.
        clear_machine_memo()
        config = MSROPMConfig(
            num_colors=args.colors, seed=unit_seed, engine=args.engine, precision=args.precision
        )
        start = clock()
        with spans.unit():
            with runner_from_args(args) as runner:
                result = runner.solve(spec, config, iterations=args.iterations, seed=unit_seed)
            with spans.check():
                failures = check_solve(result, graph, args.colors, args.iterations)
        wall = clock() - start
        recorder.operation(failures, f"solve seed {unit_seed}")
        recorder.accuracies(result)
        recorder.data["units"].append(
            {"wall_s": wall, "jobs": 1, "requests": 1, "replicas": args.iterations}
        )
        result = None
        index += 1


# ----------------------------------------------------------------------
# zoo-campaign
# ----------------------------------------------------------------------
def setup_zoo():
    from repro.campaigns import RunLedger, get_campaign, ledger_root, run_campaign  # noqa: F401
    from repro.cli import build_parser

    return build_parser()


def run_zoo(
    recorder: Recorder, parser, work_dir: Path, seconds: float, spans: Spans, seed: int,
    size: Dict[str, Any],
) -> None:
    from repro.campaigns import RunLedger, get_campaign, ledger_root, run_campaign
    from repro.cli import runner_from_args
    from repro.experiments.scenario_matrix import plan_scenario_requests
    from repro.workloads.registry import expand_workloads

    loop_start = clock()
    index = 0
    while index == 0 or clock() - loop_start < seconds:
        unit_seed = derive_seed(seed, "zoo", index)
        cache_dir = work_dir / f"zoo-{index}"
        argv = ["campaign", "run", "scenarios", "--workers", str(size["zoo_workers"]),
                "--cache-dir", str(cache_dir), "--seed", str(unit_seed)]
        args = parser.parse_args(argv)
        # The parameters `msropm campaign run scenarios` records.
        params = {"seed": args.seed, "engine": args.engine, "precision": args.precision}
        params.update(size["zoo_params"])
        iterations = params.get("iterations", 5)
        start = clock()
        with spans.unit():
            with runner_from_args(args) as runner:
                run = run_campaign(
                    get_campaign("scenarios"), params, runner=runner,
                    ledger=RunLedger(ledger_root(cache_dir)),
                )
                stats = runner.stats()
                with spans.check():
                    instances = expand_workloads(params.get("families"), base_seed=unit_seed)
                    requests = plan_scenario_requests(
                        instances, iterations=iterations, seed=unit_seed,
                        engine=args.engine, precision=args.precision,
                    )
                    # Served from the runner's memo: the campaign solved
                    # exactly these jobs, so nothing may run again.
                    solves = runner.solve_many(requests)
                    drifted = runner.stats()["jobs_run"] != stats["jobs_run"]
                    recorder.operation(["re-planned solves missed the memo"] if drifted else [], "plan")
                    for instance, solve in zip(instances, solves):
                        failures = check_solve(
                            solve, instance.build(), instance.num_colors, iterations
                        )
                        recorder.operation(failures, f"solve {instance.label}")
                        recorder.accuracies(solve)
                    rows = len(run.final_output.rows)
                    recorder.operation(
                        [f"{rows} rows for {len(instances)} instances"] if rows != len(instances) else [],
                        "scenario matrix",
                    )
                    verify = runner.cache.verify()
                    recorder.operation(
                        [f"{verify['corrupt']} corrupt cache entries"] if verify["corrupt"] else [],
                        "cache verify",
                    )
                    for row in run.final_output.rows:
                        for name, value in row.baselines.items():
                            bad = value is not None and not (math.isfinite(value) and value >= 0)
                            recorder.operation(
                                [f"accuracy {value!r}"] if bad else [], f"{name} on {row.label}"
                            )
        wall = clock() - start
        replicas = sum(len(solve.iterations) for solve in solves)
        recorder.data["units"].append(
            {"wall_s": wall, "jobs": stats["jobs_run"], "requests": 1, "replicas": replicas,
             "cache_stores": stats["cache_stores"]}
        )
        shutil.rmtree(cache_dir, ignore_errors=True)
        run = solves = None
        index += 1


# ----------------------------------------------------------------------
# service-replay
# ----------------------------------------------------------------------
def service_trace(seed: int, size: Dict[str, Any]):
    """The seeded request trace, as blocks, and the specs pre-filled into the cache.

    Every block holds the same mix (see :data:`SERVICE_REPEATS`), in a
    seeded order:

    * fresh solve keys (board rows x seed): misses;
    * pre-filled solve keys: a disk-cache read on first use;
    * repeats of keys issued earlier, picked with Zipf-skewed popularity
      (earlier keys more often): runner-memo hits;
    * one multi-job ``scenarios`` spec, pre-filled and the same in every
      block.
    """
    rng = random.Random(derive_seed(seed, "service"))
    rows = list(size["service_rows"])

    def solve_spec(board):
        return {"kind": "solve", "rows": board, "seed": rng.randrange(1, 10 ** 6),
                "iterations": size["service_iterations"]}

    scenario = {"kind": "scenarios", "families": list(size["service_families"]),
                "iterations": size["service_scenario_iterations"],
                "seed": rng.randrange(1, 10 ** 6)}
    blocks_count = size["service_blocks"]
    prefill = [solve_spec(rows[index % len(rows)])
               for index in range(blocks_count * SERVICE_DISK_READS)]
    issued: List[Dict[str, Any]] = []
    blocks: List[List[Dict[str, Any]]] = []
    for block in range(blocks_count):
        kinds = (["fresh"] * (SERVICE_MISSES_PER_ROW * len(rows)) + ["repeat"] * SERVICE_REPEATS
                 + ["prefilled"] * SERVICE_DISK_READS + ["scenario"])
        rng.shuffle(kinds)
        if not issued:
            # A repeat needs an earlier key: the trace opens with a fresh one.
            first = kinds.index("fresh")
            kinds[0], kinds[first] = kinds[first], kinds[0]
        boards = rows * SERVICE_MISSES_PER_ROW
        rng.shuffle(boards)
        disk = prefill[block * SERVICE_DISK_READS:(block + 1) * SERVICE_DISK_READS]
        requests: List[Dict[str, Any]] = []
        for kind in kinds:
            if kind == "repeat":
                weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(issued))]
                requests.append(rng.choices(issued, weights)[0])
                continue
            if kind == "scenario":
                requests.append(scenario)
                continue
            spec = disk.pop() if kind == "prefilled" else solve_spec(boards.pop())
            issued.append(spec)
            requests.append(spec)
        blocks.append(requests)
    return blocks, prefill + [scenario]


def start_server(cache_root: Path, trace_dir: Optional[str]) -> Tuple[subprocess.Popen, float, Any]:
    """Spawn a server; return it, its set-up time and a client bound to it."""
    from repro.exceptions import ReproError
    from repro.service.client import ServiceClient, discover_endpoint
    from repro.service.state import ServiceState

    # A record left by a server that did not shut down cleanly is not ours.
    ServiceState(cache_root).endpoint_path.unlink(missing_ok=True)
    command = [sys.executable, "-m", "perfbench.serve", "--cache-dir", str(cache_root),
               "--rate", SERVICE_RATE]
    if trace_dir:
        command += ["--trace-dir", trace_dir]
    spawned = clock()
    process = subprocess.Popen(command, stdout=subprocess.DEVNULL)
    deadline = spawned + 60.0
    while True:
        if process.poll() is not None:
            raise RuntimeError(f"server exited with code {process.returncode} during start-up")
        if clock() > deadline:
            stop_server(process)
            raise RuntimeError("server did not become ready within 60 s")
        try:
            client = ServiceClient(discover_endpoint(cache_root), client_id="perfbench")
            client.healthz()
            return process, clock() - spawned, client
        except (ReproError, OSError):
            time.sleep(0.002)


def stop_server(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def peak_rss_of(pid: int) -> float:
    """VmHWM of a live process in MiB (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class _Checker:
    """Graphs for the service checks, built once per board or scenario seed."""

    def __init__(self) -> None:
        self._kings: Dict[int, Any] = {}
        self._scenarios: Dict[Tuple, List] = {}

    def expected(self, spec: Dict[str, Any]) -> List[Tuple[Any, int, int]]:
        """(graph, colors, replicas) per job of a spec, in ticket order."""
        if spec["kind"] == "solve":
            from repro.graphs.generators import kings_graph

            rows = spec["rows"]
            if rows not in self._kings:
                self._kings[rows] = kings_graph(rows, rows)
            return [(self._kings[rows], 4, spec["iterations"])]
        from repro.workloads.registry import expand_workloads

        key = (tuple(spec["families"]), spec["seed"])
        if key not in self._scenarios:
            instances = expand_workloads(spec["families"], base_seed=spec["seed"])
            self._scenarios[key] = [
                (instance.build(), instance.num_colors, spec["iterations"]) for instance in instances
            ]
        return self._scenarios[key]


def serve_request(
    recorder: Recorder, client, checker: _Checker, spans: Spans, spec: Dict[str, Any], index: int,
    seen: set, computed: Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]], totals: Dict[str, int],
) -> None:
    """Submit one spec, poll it to completion, fetch and check the results."""
    from repro.analysis.results_io import solve_result_from_dict

    start = clock()
    with spans.unit():
        tickets = client.submit([spec])
        hit = all(ticket["state"] == "done" for ticket in tickets)
        states = {}
        for ticket in tickets:
            state = ticket["state"]
            while state not in ("done", "failed"):
                spans.sleep(POLL_INTERVAL)
                state = client.poll(ticket["ticket_id"])["state"]
            states[ticket["ticket_id"]] = state
        payloads = [
            client.fetch(ticket["ticket_id"]) if states[ticket["ticket_id"]] == "done" else None
            for ticket in tickets
        ]
        latency = clock() - start
        with spans.check():
            failures: List[str] = []
            expected = checker.expected(spec)
            if len(expected) != len(tickets):
                failures.append(f"{len(tickets)} tickets for {len(expected)} jobs")
            for ticket, payload, (graph, colors, replicas) in zip(tickets, payloads, expected):
                if payload is None:
                    failures.append(f"ticket {ticket['ticket_id'][:12]} failed")
                    continue
                result = solve_result_from_dict(payload["result"])
                failures += check_solve(result, graph, colors, replicas)
                recorder.accuracies(result)
                if not hit and ticket["state"] != "done":
                    totals["replicas"] += len(result.iterations)
                    if spec["kind"] == "solve":
                        computed[ticket["ticket_id"]] = (spec, payload["result"])
    wall = clock() - start
    recorder.operation(failures, f"request {index}")
    totals["jobs"] += len(tickets)
    key = json.dumps(spec, sort_keys=True)
    if hit:
        recorder.data["latency"]["hit"].append(latency)
        recorder.data["split"]["memo" if key in seen else "disk"] += 1
    else:
        recorder.data["latency"]["miss"].append(latency)
        recorder.data["split"]["miss"] += 1
    seen.add(key)
    recorder.data["units"].append(
        {"wall_s": wall, "latency_s": latency, "hit": hit, "kind": spec["kind"]}
    )


def run_service(
    recorder: Recorder, work_dir: Path, seconds: float, spans: Spans, seed: int,
    size: Dict[str, Any], trace_dir: Optional[str], probes: int,
) -> None:
    from repro.analysis.results_io import solve_result_to_dict
    from repro.core.config import MSROPMConfig
    from repro.runtime.jobs import KingsGraphSpec, SolveJob

    cache_root = work_dir / "service-cache"
    blocks, prefill = service_trace(seed, size)
    checker = _Checker()

    # Start 1 fills the cache with the pre-filled keys, then stops: the
    # measured server starts over a warm disk cache and an empty runner memo.
    process, setup, client = start_server(cache_root, None)
    try:
        tickets = [ticket["ticket_id"] for ticket in client.submit(prefill)]
        client.wait(tickets, timeout=120, poll_interval=POLL_INTERVAL)
    finally:
        stop_server(process)
    recorder.data["setup_s"].append(setup)
    for _ in range(probes):
        process, setup, _ = start_server(cache_root, None)
        stop_server(process)
        recorder.data["setup_s"].append(setup)

    process, setup, client = start_server(cache_root, trace_dir)
    recorder.data["setup_s"].append(setup)
    seen: set = set()
    computed: Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]] = {}
    totals = {"jobs": 0, "replicas": 0}
    block_walls: List[float] = []
    index = 0
    try:
        loop_start = clock()
        # Whole blocks only, until the seconds are up or the trace is.
        for block in blocks:
            if block_walls and clock() - loop_start >= seconds:
                break
            block_start = clock()
            for spec in block:
                index += 1
                serve_request(recorder, client, checker, spans, spec, index, seen, computed, totals)
            block_walls.append(clock() - block_start)
        loop_wall = clock() - loop_start
        server_rss = peak_rss_of(process.pid)
    finally:
        stop_server(process)

    # One computed key, re-run directly: the service must return exactly the
    # payload a direct SolveJob.run produces.
    if computed:
        ticket_id = random.Random(derive_seed(seed, "sample")).choice(sorted(computed))
        spec, fetched = computed[ticket_id]
        job = SolveJob(
            spec=KingsGraphSpec(spec["rows"], spec["rows"]),
            config=MSROPMConfig(num_colors=4, seed=spec["seed"], engine="batched", precision="exact"),
            seed=spec["seed"],
            total_iterations=spec["iterations"],
        )
        failures = []
        if job.job_hash != ticket_id:
            failures.append("direct job hash differs from the service ticket id")
        direct = solve_result_to_dict(job.run())
        if json.dumps(direct, sort_keys=True) != json.dumps(fetched, sort_keys=True):
            failures.append("fetched payload differs from a direct SolveJob.run")
        recorder.operation(failures, f"direct re-run of {ticket_id[:12]}")
    recorder.data["service"] = {
        "wall_s": loop_wall,
        "block_walls": block_walls,
        "requests": index,
        "jobs": totals["jobs"],
        "replicas": totals["replicas"],
        "server_rss_mb": server_rss,
    }


# ----------------------------------------------------------------------
def environment() -> Dict[str, Any]:
    import multiprocessing

    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "thread_caps": {name: os.environ.get(name) for name in THREAD_CAP_VARS},
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def spawn_probe(argv: List[str]) -> float:
    """Re-run this module's set-up in a fresh process; return its set-up time."""
    spawned = clock()
    output = subprocess.run(
        [sys.executable, "-m", "perfbench.workload", *argv, "--probe", "--spawned-at", repr(spawned)],
        check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    return json.loads(output.strip().splitlines()[-1])["setup_s"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--probes", type=int, default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--probe", action="store_true", help="set up, report, exit")
    args = parser.parse_args(argv)
    spawned = args.spawned_at if args.spawned_at is not None else clock()
    size = SIZES[args.size]
    workload = args.workload

    # Set-up: what a user's process does before it can submit a first job.
    state: Any = None
    if workload.startswith("kings46"):
        state = setup_kings(workload.split("-", 1)[1], size)
    elif workload == "zoo-campaign":
        state = setup_zoo()
    else:
        import repro.service.client  # noqa: F401 - the client's own imports
    setup = clock() - spawned
    if args.probe:
        print(json.dumps({"setup_s": setup}))
        return 0

    work_dir = Path(args.work_dir)
    recorder = Recorder(workload, args.seed)
    if workload != "service-replay":
        recorder.data["setup_s"].append(setup)
        probe_argv = ["--workload", workload, "--seed", str(args.seed), "--work-dir",
                      str(work_dir), "--size", args.size]
        for _ in range(args.probes):
            recorder.data["setup_s"].append(spawn_probe(probe_argv))

    tracer = start_tracing(args.trace_dir)
    spans = Spans(tracer)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        if workload.startswith("kings46"):
            run_kings(recorder, state, args.seconds, spans, args.seed)
        elif workload == "zoo-campaign":
            run_zoo(recorder, state, work_dir, args.seconds, spans, args.seed, size)
        else:
            run_service(recorder, work_dir, args.seconds, spans, args.seed, size,
                        args.trace_dir, args.probes)
    finish_tracing(tracer)
    recorder.data["peak_rss_mb"] = max(
        peak_rss_mb(), recorder.data.get("service", {}).get("server_rss_mb", 0.0)
    )
    recorder.data["environment"] = environment()
    recorder.data["traced"] = tracer is not None
    out = work_dir / "result.json"
    out.write_text(json.dumps(recorder.data), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
