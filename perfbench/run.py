"""The MSROPM benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (no build step; the program is the
checkout's ``src/repro``)::

    python3 perfbench/run.py --workload kings46-exact --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the workload twice, untraced and then traced, for half the seconds
each: the traced run yields the per-layer metrics and the reconciliation of
the traced wall time, and the difference between the two is the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits non-zero when any correctness check fails, and without a result when
the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.stats import summarize, tail_percentile  # noqa: E402

WORKLOADS = ("kings46-exact", "kings46-throughput", "zoo-campaign", "service-replay")

#: End-to-end metrics in the result JSON (every workload reports all).
E2E = {
    "setup_s": "s",
    "wall_s": "s",
    "replicas_per_s": "1/s",
    "jobs_per_s": "1/s",
    "requests_per_s": "1/s",
    "mean_accuracy": "ratio",
    "best_accuracy": "ratio",
    "peak_rss_mb": "MiB",
}

#: Metrics printed in the table only: they do not apply to every workload
#: (latencies need a cache or a server) or read 0 on a correct run.
TABLE_ONLY = {
    "hit_latency_p50_s": "s",
    "miss_latency_p50_s": "s",
    "latency_tail_s": "s",
    "error_ratio": "ratio",
}

#: Per-package import times parsed from ``python -X importtime``.
IMPORT_METRICS = {
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_scipy_sparse_s": "s",
    "cli.import_scipy_integrate_s": "s",
    "cli.import_repro_self_s": "s",
}

#: Per-layer metrics in the traced result JSON, with units.
PER_LAYER = {
    **IMPORT_METRICS,
    "dynamics.batched.evaluate_self_s": "s",
    "dynamics.batched.coupling_busy_s": "s",
    "dynamics.batched.evaluate_calls": "count",
    "dynamics.batched.apply_pair_calls": "count",
    "rng.noise_busy_s": "s",
    "dynamics.integrators.loop_self_s": "s",
    "core.stages.run_stage_self_s": "s",
    "core.stages.operator_busy_s": "s",
    "core.machine.build_busy_s": "s",
    "core.machine.solve_self_s": "s",
    "kernel.node_steps": "count",
    "kernel.ns_per_node_step": "ns",
    "kernel.csr_nnz": "count",
    "kernel.bytes_computed": "bytes",
    "runtime.jobs.hash_busy_s": "s",
    "runtime.jobs.build_machine_busy_s": "s",
    "runtime.jobs.machine_memo_hit_ratio": "ratio",
    "runtime.jobs.merge_busy_s": "s",
    "runtime.scheduler.batches": "count",
    "runtime.scheduler.busy_s": "s",
    "runtime.scheduler.job_wait_s": "s",
    "runtime.scheduler.parallel_efficiency": "ratio",
    "runtime.scheduler.retries": "count",
    "runtime.cache.load_busy_s": "s",
    "runtime.cache.store_busy_s": "s",
    "runtime.cache.hit_ratio": "ratio",
    "runtime.cache.bytes_written": "bytes",
    "runtime.runner.self_s": "s",
    "runtime.runner.memo_hit_ratio": "ratio",
    "runtime.runner.tickets_coalesced": "count",
    "campaigns.self_s": "s",
    "campaigns.ledger_append_busy_s": "s",
    "workloads.reference_busy_s": "s",
    "experiments.plan_busy_s": "s",
    "baselines.sa_busy_s": "s",
    "baselines.tabu_busy_s": "s",
    "baselines.roim_busy_s": "s",
    "baselines.single_stage_busy_s": "s",
    "service.handle_submit_busy_s": "s",
    "service.handle_tickets_busy_s": "s",
    "service.handle_other_busy_s": "s",
    "service.rejected": "count",
    "trace.mismatched_exits": "count",
    "trace.wall_s": "s",
    "trace.unaccounted_s": "s",
    "trace.reconcile_error_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Scheduler workers per workload (for parallel efficiency).
WORKERS = {"kings46-exact": 1, "kings46-throughput": 1, "zoo-campaign": 2, "service-replay": 1}

#: Set-up samples per run: the workload's own plus this many probes.
PROBES = {"kings46-exact": 4, "kings46-throughput": 4, "zoo-campaign": 4, "service-replay": 3}

THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: Every run must end within this many seconds.
DEADLINE_S = 175.0

WORK_ROOT = ROOT / ".perfbench-work"


class BenchmarkError(RuntimeError):
    """The benchmark could not run (no program, a crashed workload)."""


# ----------------------------------------------------------------------
# Running a workload process
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_workload(
    workload: str, seed: int, seconds: float, work_dir: Path, deadline: float,
    trace_dir: Optional[Path] = None, probes: int = 0, size: str = "full",
) -> Dict[str, Any]:
    """Run one workload process to completion and return its result record."""
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    spawned = time.monotonic()
    command = [
        sys.executable, "-m", "perfbench.workload", "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--work-dir", str(work_dir), "--spawned-at", repr(spawned),
        "--probes", str(probes), "--size", size,
    ]
    if trace_dir is not None:
        command += ["--trace-dir", str(trace_dir)]
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, stderr = process.communicate(timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(process)
        raise BenchmarkError(f"{workload}: workload process exceeded the time limit")
    finally:
        _kill_group(process)
    if process.returncode != 0:
        raise BenchmarkError(
            f"{workload}: workload process exited with {process.returncode}:\n{stderr[-4000:]}"
        )
    return json.loads((work_dir / "result.json").read_text(encoding="utf-8"))


def _kill_group(process: subprocess.Popen) -> None:
    """Stop the workload process and everything it started, and reap it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        pass


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _per_unit(result: Dict[str, Any], key: str) -> List[float]:
    return [unit[key] / unit["wall_s"] for unit in result["units"] if unit["wall_s"] > 0]


def end_to_end(result: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric of one run as ``name -> summary`` (median,
    quartiles, spread, sample count); absent where it does not apply."""
    metrics: Dict[str, Dict[str, Any]] = {}
    metrics["setup_s"] = summarize(result["setup_s"])
    service = result.get("service")
    if service is not None:
        # wall_s: the time to serve one block of the trace (every block has
        # the same mix); the rates are taken over the whole loop.
        metrics["wall_s"] = summarize(service["block_walls"])
        wall = service["wall_s"]
        for name, key in (("replicas_per_s", "replicas"), ("jobs_per_s", "jobs"),
                          ("requests_per_s", "requests")):
            metrics[name] = summarize([service[key] / wall])
        latencies = result["latency"]
        if latencies["hit"]:
            metrics["hit_latency_p50_s"] = summarize(latencies["hit"])
        if latencies["miss"]:
            metrics["miss_latency_p50_s"] = summarize(latencies["miss"])
        samples = latencies["hit"] + latencies["miss"]
    else:
        walls = [unit["wall_s"] for unit in result["units"]]
        metrics["wall_s"] = summarize(walls)
        metrics["replicas_per_s"] = summarize(_per_unit(result, "replicas"))
        metrics["jobs_per_s"] = summarize(_per_unit(result, "jobs"))
        metrics["requests_per_s"] = summarize(_per_unit(result, "requests"))
        metrics["miss_latency_p50_s"] = summarize(walls)
        samples = walls
    tail = tail_percentile(samples)
    if tail is not None:
        metrics["latency_tail_s"] = {
            "median": tail[1], "spread": 0.0, "n": len(samples), "note": f"p{tail[0]:g}"
        }
    metrics["mean_accuracy"] = summarize([statistics.fmean(result["accuracies"])])
    metrics["best_accuracy"] = summarize([statistics.fmean(result["best_per_problem"])])
    attempted = max(1, result["attempted"])
    metrics["error_ratio"] = summarize([result["failed"] / attempted])
    metrics["peak_rss_mb"] = summarize([result["peak_rss_mb"]])
    return metrics


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")

#: Packages whose cumulative import time is reported, by metric name.
IMPORT_PACKAGES = {
    "cli.import_numpy_s": "numpy",
    "cli.import_scipy_sparse_s": "scipy.sparse",
    "cli.import_scipy_integrate_s": "scipy.integrate",
}


def _in_package(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def parse_importtime(text: str) -> Dict[str, float]:
    """Import seconds per package from ``python -X importtime`` output.

    A package's time is the cumulative time of its outermost modules: every
    line of the package with no ancestor in the same package (scipy loads
    some subpackages lazily, so a package need not have a line of its own).
    ``cli.import_s`` is the cumulative time of the outermost ``repro``
    modules, i.e. all of ``import repro.cli``; ``cli.import_repro_self_s``
    sums the self time of every ``repro`` module.
    """
    lines = []
    for line in text.splitlines():
        match = _IMPORT_LINE.match(line)
        if match is not None:
            lines.append((int(match[1]), int(match[2]), len(match[3]), match[4]))
    packages = dict(IMPORT_PACKAGES, **{"cli.import_s": "repro"})
    totals = dict.fromkeys(packages, 0)
    repro_self = 0
    ancestors: List[Tuple[int, str]] = []
    # The output is post-order (a module after everything it imported);
    # read backwards, each line's ancestors are the shallower lines before it.
    for own, cumulative, depth, name in reversed(lines):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        for metric, package in packages.items():
            if _in_package(name, package) and not any(
                _in_package(parent, package) for _, parent in ancestors
            ):
                totals[metric] += cumulative
        if _in_package(name, "repro"):
            repro_self += own
        ancestors.append((depth, name))
    seconds = {metric: value / 1e6 for metric, value in totals.items()}
    seconds["cli.import_repro_self_s"] = repro_self / 1e6
    return seconds


def import_times() -> Dict[str, float]:
    output = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    return parse_importtime(output.stderr)


def _unit_time(result: Dict[str, Any]) -> Optional[float]:
    """The per-unit time the tracing overhead is taken over."""
    if result.get("service") is not None:
        misses = result["latency"]["miss"]
        return statistics.median(misses) if misses else None
    return statistics.median(unit["wall_s"] for unit in result["units"])


def traced_metrics(
    workload: str, untraced: Dict[str, Any], traced: Dict[str, Any], trace_dir: Path
) -> Tuple[Dict[str, float], Dict[str, Any], List[str]]:
    """Per-layer metrics, the reconciliation and any failed trace check."""
    from perfbench.analysis import layer_metrics, load_trace, reconcile, reconciles, reconciliation_error

    processes = load_trace(trace_dir)
    metrics = layer_metrics(processes, WORKERS[workload], import_times())
    parts = reconcile(processes)
    measured = sum(unit["wall_s"] for unit in traced["units"])
    failures = []
    # A layer whose functions were renamed or moved would read 0, like a big
    # gain, so a wrapper that found nothing to wrap fails the run.
    missing = sorted(
        {name for process in processes for name in process.get("extra", {}).get("missing", [])}
    )
    if missing:
        failures.append(f"functions not found, not traced: {', '.join(missing)}")
    if not reconciles(parts, measured):
        failures.append(
            f"reconciliation: layers {sum(parts['layers'].values()):.4f} s + unaccounted "
            f"{parts['unaccounted_s']:.4f} s != traced wall {measured:.4f} s"
        )
    before, after = _unit_time(untraced), _unit_time(traced)
    overhead = (after - before) if before is not None and after is not None else 0.0
    metrics.update(
        {
            "trace.wall_s": measured,
            "trace.unaccounted_s": parts["unaccounted_s"],
            "trace.reconcile_error_s": reconciliation_error(parts, measured),
            "trace.overhead_s": overhead,
            "trace.overhead_ratio": overhead / before if before else 0.0,
        }
    )
    return metrics, parts, failures


# ----------------------------------------------------------------------
# Environment block
# ----------------------------------------------------------------------
def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _caches() -> Dict[str, str]:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def _git_commit() -> Optional[str]:
    try:
        output = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return output.stdout.strip() if output.returncode == 0 else None


def environment(seed: int, workload_env: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        **workload_env,
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _cell(summary: Optional[Dict[str, Any]]) -> str:
    if summary is None:
        return "n/a"
    text = f"{summary['median']:.6g} ±{100 * summary['spread']:.1f}% n={summary['n']}"
    if summary.get("note"):
        text += f" {summary['note']}"
    return text


def print_table(rows: Dict[str, Dict[str, Dict[str, Any]]]) -> None:
    """One row per workload; each cell is median, spread (IQR/median) and n."""
    names = list(E2E) + list(TABLE_ONLY)
    units = {**E2E, **TABLE_ONLY}
    headers = ["workload"] + [f"{name} [{units[name]}]" for name in names]
    table = [headers] + [
        [workload] + [_cell(metrics.get(name)) for name in names] for workload, metrics in rows.items()
    ]
    widths = [max(len(row[col]) for row in table) for col in range(len(headers))]
    for row in table:
        print(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def print_reconciliation(workload: str, parts: Dict[str, Any], measured: float) -> None:
    print(f"reconciliation of {workload} (main-lane wall split into layers, traced):")
    for layer, seconds in sorted(parts["layers"].items(), key=lambda item: -item[1]):
        print(f"  {layer:<24} {seconds:10.4f} s  {100 * seconds / measured if measured else 0:5.1f}%")
    print(f"  {'unaccounted':<24} {parts['unaccounted_s']:10.4f} s")
    total = sum(parts["layers"].values()) + parts["unaccounted_s"]
    print(f"  {'sum':<24} {total:10.4f} s  vs traced wall {measured:.4f} s over {parts['units']} unit(s)")


# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool, size: str, deadline: float):
    """Run one workload; returns (metric values, table row, attempted, failed, failures, env)."""
    work = WORK_ROOT / f"{os.getpid()}-{workload}"
    try:
        if not trace:
            result = run_workload(
                workload, seed, seconds, work / "run", deadline, probes=PROBES[workload], size=size
            )
            row = end_to_end(result)
            values = {name: row[name]["median"] for name in E2E}
            return values, row, result["attempted"], result["failed"], result["failures"], result
        untraced = run_workload(workload, seed, seconds / 2, work / "untraced", deadline, size=size)
        trace_dir = work / "trace"
        traced = run_workload(
            workload, seed, seconds / 2, work / "traced", deadline, trace_dir=trace_dir, size=size
        )
        values, parts, trace_failures = traced_metrics(workload, untraced, traced, trace_dir)
        print_reconciliation(workload, parts, values["trace.wall_s"])
        row = end_to_end(untraced)
        # Two trace checks: the reconciliation and every span installed.
        attempted = untraced["attempted"] + traced["attempted"] + 2
        failed = untraced["failed"] + traced["failed"] + len(trace_failures)
        failures = untraced["failures"] + traced["failures"] + trace_failures
        return values, row, attempted, failed, failures, traced
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="'smoke' shrinks every workload to a few seconds (tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    rows: Dict[str, Dict[str, Dict[str, Any]]] = {}
    metrics: Dict[str, Any] = {}
    attempted = failed = 0
    environment_printed = False
    for workload in workloads:
        if args.workload == "all":
            deadline = time.monotonic() + DEADLINE_S
        try:
            values, row, tried, bad, failures, result = measure(
                workload, args.seed, args.seconds, bool(args.trace), args.size, deadline
            )
        except BenchmarkError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        if not environment_printed:
            print("environment: " + json.dumps(environment(args.seed, result["environment"])))
            environment_printed = True
        if result.get("split") and result.get("service"):
            print(f"{workload} request split: {json.dumps(result['split'])}")
        for failure in failures:
            print(f"CHECK FAILED {workload}: {failure}")
        rows[workload] = row
        attempted += tried
        failed += bad
        units = PER_LAYER if args.trace else E2E
        prefix = f"{workload}/" if args.workload == "all" else ""
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    print_table(rows)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
