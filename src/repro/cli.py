"""Command-line interface: run the paper's experiments from the terminal.

All solve-heavy commands route through the experiment runtime
(:mod:`repro.runtime`): ``--workers`` shards jobs across a process pool,
results are cached on disk under their content hash (``--cache-dir`` to place
the cache, ``--no-cache`` to disable it), and ``--replica-chunk`` splits a
single large solve into schedulable replica ranges.  Per seed, the printed
numbers are bit-identical regardless of the worker count.

Examples
--------
Solve a 7x7 King's graph 4-coloring with 10 iterations::

    msropm solve --rows 7 --iterations 10 --seed 1

Solve an external DIMACS ``.col`` instance (a first-class workload)::

    msropm solve --graph instance.col --iterations 10 --seed 1

Compare against the original per-iteration loop (same results per seed)::

    msropm solve --rows 7 --iterations 10 --seed 1 --engine sequential

Reproduce the paper's tables and figures (optionally scaled down)::

    msropm table1 --scale 0.25
    msropm table2 --scale 0.25
    msropm fig5 --scale 0.25
    msropm fig3

Run the whole evaluation, stage by stage through one sharded, cached
runner::

    msropm suite --scale 0.25 --workers 4 --cache-dir ~/.cache/msropm

Inspect the workload zoo and run the scenario matrix across it::

    msropm workloads list
    msropm workloads show --family er
    msropm scenarios --family er,regular,planar,dimacs --workers 4

``suite`` and ``scenarios`` run the built-in campaigns of the same names
without a ledger.  Run them with one to make them resumable (persistent run
ledger under the cache dir; a killed run resumes from its last completed
stage with zero recomputation); the printed tables are the same::

    msropm campaign run suite --scale 0.25 --workers 4
    msropm campaign list
    msropm campaign status <run-id>
    msropm campaign resume <run-id> --workers 4

Fleet execution: drain the same jobs through a shared filesystem spool that
any number of worker processes (or hosts on a shared mount) steal from, with
bit-identical reports::

    msropm fleet worker /tmp/spool --wait &
    msropm scenarios --workers 2 --executor spool --spool-dir /tmp/spool
    msropm fleet status /tmp/spool
    msropm fleet stop /tmp/spool

Run the solver as a long-lived service (one warm runner amortized across a
stream of clients; tickets keyed by job content hash are idempotent across
resubmissions *and* server restarts)::

    msropm serve --cache-dir ~/.cache/msropm --workers 4 &
    msropm client submit --rows 7 --iterations 10 --seed 1 --wait
    msropm client submit --scenario-families er --wait
    msropm client poll <ticket>
    msropm client fetch <ticket>
    msropm client stats

Inspect and maintain the artifact store (the content-addressed result cache)::

    msropm cache stats
    msropm cache verify --prune
    msropm cache gc --drop-unreferenced
    msropm cache export results.tar.gz
    msropm cache import results.tar.gz
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.reporting import format_table, summarize_campaign_totals
from repro.core.config import MSROPMConfig
from repro.exceptions import ConfigurationError, ReproError
from repro.experiments.fig3_waveforms import render_figure3, run_figure3
from repro.experiments.fig5_accuracy import render_figure5, run_figure5
from repro.experiments.scenario_matrix import SCENARIO_BASELINES
from repro.experiments.table1_stats import run_table1
from repro.experiments.table2_comparison import run_table2
from repro.graphs.generators import kings_graph
from repro.runtime.cache import ResultCache, default_cache_dir
from repro.runtime.executors import EXECUTOR_NAMES
from repro.runtime.jobs import KingsGraphSpec, as_graph_spec
from repro.runtime.runner import ExperimentRunner
from repro.runtime.spool import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_POLL_INTERVAL,
    JobSpool,
    run_fleet_worker,
)
from repro.workloads import default_workload, family_names, get_family, iter_families


def add_runtime_arguments(parser: argparse.ArgumentParser, service: bool = False) -> None:
    """Attach the experiment-runtime flags shared by all solve-heavy commands.

    ``service=True`` leaves out ``--no-cache`` and ``--replica-chunk``: the
    service keys its tickets by job hash in the durable cache and plans
    every solve as one unsplit job.
    """
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the job scheduler (1 = run in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the content-addressed result cache "
        "(default: $MSROPM_CACHE_DIR or ~/.cache/msropm)",
    )
    if not service:
        parser.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the on-disk result cache for this run",
        )
        parser.add_argument(
            "--replica-chunk",
            type=int,
            default=None,
            help="split each solve into jobs of at most this many iterations "
            "(chunk boundaries are independent of --workers, so cache keys are too)",
        )
    parser.add_argument(
        "--executor",
        choices=EXECUTOR_NAMES,
        default="local",
        help="executor backend: 'local' runs a warm process pool on this host; "
        "'spool' drains jobs through a shared filesystem spool that external "
        "'msropm fleet worker' processes steal from (results bit-identical)",
    )
    parser.add_argument(
        "--spool-dir",
        default=None,
        help="shared spool directory for --executor spool",
    )
    parser.add_argument(
        "--lease-timeout",
        type=float,
        default=DEFAULT_LEASE_TIMEOUT,
        help="seconds before a dead fleet worker's claim is reclaimed "
        f"(spool executor; default {DEFAULT_LEASE_TIMEOUT:g})",
    )


def runner_from_args(args: argparse.Namespace) -> ExperimentRunner:
    """Build the :class:`ExperimentRunner` described by the runtime flags.

    Every command holding a runner uses it as a context manager, so the warm
    worker pool (and the service's drain thread) is released on success *and*
    on error exits alike — no ``ProcessPoolExecutor`` outlives a command.
    """
    no_cache = getattr(args, "no_cache", False)
    cache_dir = None if no_cache else (args.cache_dir or default_cache_dir())
    executor = getattr(args, "executor", "local")
    executor_options = {}
    if executor == "spool":
        executor_options["lease_timeout"] = getattr(
            args, "lease_timeout", DEFAULT_LEASE_TIMEOUT
        )
    return ExperimentRunner(
        workers=args.workers,
        cache_dir=cache_dir,
        replica_chunk=getattr(args, "replica_chunk", None),
        executor=executor,
        spool_dir=getattr(args, "spool_dir", None),
        executor_options=executor_options,
        max_pending=getattr(args, "max_pending", None),
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach ``--engine`` and ``--precision`` (how each solve runs)."""
    parser.add_argument(
        "--engine",
        choices=("sequential", "batched"),
        default="batched",
        help="replica execution engine (batched vectorizes all iterations; "
        "identical results per seed on sparse graphs such as the paper's "
        "King's graphs, numerically equivalent on dense ones)",
    )
    parser.add_argument(
        "--precision",
        choices=("exact", "throughput"),
        default="exact",
        help="precision tier (exact keeps the bit-identity contract; "
        "throughput runs float32 state with one batched noise stream — "
        "statistically equivalent accuracy, validated by 'msropm "
        "equivalence', at a >3x whole-solve speedup)",
    )


def _add_seed_argument(parser: argparse.ArgumentParser, default: Optional[int] = 2025) -> None:
    """Attach ``--seed`` (the base RNG seed every solve derives from)."""
    parser.add_argument("--seed", type=int, default=default, help="base RNG seed")


def _add_solve_arguments(parser: argparse.ArgumentParser, seed: int = 2025) -> None:
    """Attach ``--seed``, ``--engine``, ``--precision`` and the runtime flags."""
    _add_seed_argument(parser, seed)
    _add_engine_arguments(parser)
    add_runtime_arguments(parser)


def _add_cache_dir(
    parser: argparse.ArgumentParser,
    help_text: str = "cache directory (default: $MSROPM_CACHE_DIR or ~/.cache/msropm)",
) -> None:
    parser.add_argument("--cache-dir", default=None, help=help_text)


def _add_ledger_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the run id and ledger ``--cache-dir`` of a recorded-run command."""
    parser.add_argument("run_id", help="run id (see 'campaign list')")
    _add_cache_dir(parser, "cache directory holding the campaign ledgers")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``msropm`` command."""
    parser = argparse.ArgumentParser(
        prog="msropm",
        description="Multi-stage ring-oscillator Potts machine (DATE 2025 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser("solve", help="solve a 4-coloring problem")
    solve.add_argument("--rows", type=int, default=7, help="board side length (rows == cols)")
    solve.add_argument(
        "--graph",
        default=None,
        help="solve this DIMACS .col (or graph JSON) instance instead of a King's board",
    )
    solve.add_argument("--iterations", type=int, default=10, help="number of repeated runs")
    solve.add_argument("--colors", type=int, default=4, help="number of colors (power of two)")
    _add_solve_arguments(solve, seed=1)

    for name, help_text in (
        ("table1", "reproduce Table 1 (per-problem statistics)"),
        ("table2", "reproduce Table 2 (prior-work comparison)"),
        ("fig5", "reproduce Figure 5 (accuracy and Hamming-distance data)"),
        ("suite", "run the built-in suite campaign: Tables 1-2 and Fig. 5"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--scale", type=float, default=1.0, help="problem/iteration scale in (0, 1]")
        sub.add_argument("--iterations", type=int, default=None, help="override iteration count")
        _add_solve_arguments(sub)

    fig3 = subparsers.add_parser("fig3", help="reproduce Figure 3 (stage waveforms)")
    fig3.add_argument("--rows", type=int, default=4, help="board side length of the traced run")
    fig3.add_argument("--seed", type=int, default=7, help="RNG seed of the traced run")

    workloads = subparsers.add_parser("workloads", help="inspect the workload zoo")
    workloads_sub = workloads.add_subparsers(dest="workloads_command", required=True)
    workloads_sub.add_parser("list", help="list the registered workload families")
    show = workloads_sub.add_parser("show", help="expand one family's default workload")
    show.add_argument("--family", required=True, help="registered family name (see 'workloads list')")
    show.add_argument("--seed", type=int, default=2025, help="base seed of the instance seed policy")

    scenarios = subparsers.add_parser(
        "scenarios", help="run the MSROPM and the baselines across the workload zoo"
    )
    scenarios.add_argument(
        "--family",
        default=None,
        help="comma-separated workload families (default: the whole zoo; "
        f"registered: {', '.join(family_names())})",
    )
    scenarios.add_argument(
        "--iterations", type=int, default=5, help="MSROPM/baseline iterations per instance"
    )
    _add_seed_argument(scenarios)
    scenarios.add_argument(
        "--baselines",
        default=",".join(SCENARIO_BASELINES),
        help="comma-separated baselines to run "
        f"(subset of: {', '.join(SCENARIO_BASELINES)}; empty string skips all)",
    )
    _add_engine_arguments(scenarios)
    add_runtime_arguments(scenarios)

    equivalence = subparsers.add_parser(
        "equivalence",
        help="validate the throughput tier: matched exact/throughput ensembles "
        "compared by KS test and bootstrap CI (exit 1 on failure)",
    )
    equivalence.add_argument(
        "--family",
        default=None,
        help="comma-separated workload families to compare "
        "(default: er,regular; registered: " + ", ".join(family_names()) + ")",
    )
    equivalence.add_argument(
        "--iterations", type=int, default=20, help="iterations per instance and tier"
    )
    _add_seed_argument(equivalence)
    equivalence.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="equivalence margin on the mean-accuracy difference (default 0.05)",
    )
    add_runtime_arguments(equivalence)

    from repro.campaigns import campaign_names

    campaign = subparsers.add_parser(
        "campaign",
        help="declarative multi-stage campaigns with a persistent run ledger "
        "and crash-safe resume",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    campaign_run = campaign_sub.add_parser("run", help="start a new campaign run")
    campaign_run.add_argument(
        "name", help=f"campaign name (registered: {', '.join(campaign_names())})"
    )
    campaign_run.add_argument(
        "--scale", type=float, default=1.0, help="problem/iteration scale (suite campaign)"
    )
    campaign_run.add_argument(
        "--iterations", type=int, default=None, help="override iteration count"
    )
    _add_seed_argument(campaign_run)
    _add_engine_arguments(campaign_run)
    campaign_run.add_argument(
        "--family",
        default=None,
        help="comma-separated workload families (scenarios campaign; default: whole zoo)",
    )
    campaign_run.add_argument(
        "--baselines",
        default=None,
        help="comma-separated baselines (scenarios campaign; empty string skips all)",
    )
    campaign_run.add_argument(
        "--run-id", default=None, help="explicit run id (default: generated)"
    )
    add_runtime_arguments(campaign_run)

    campaign_resume = campaign_sub.add_parser(
        "resume", help="resume a killed or failed campaign run from its ledger"
    )
    campaign_resume.add_argument("run_id", help="run id (see 'campaign list')")
    add_runtime_arguments(campaign_resume)

    for observed_sub in (campaign_run, campaign_resume):
        observed_sub.add_argument(
            "--event-log",
            default=None,
            help="also append every ledger event as one JSON line to this file",
        )
        observed_sub.add_argument(
            "--webhook",
            default=None,
            help="also POST every ledger event as JSON to this http(s) URL "
            "(best-effort; delivery failures never fail the run)",
        )

    campaign_status = campaign_sub.add_parser(
        "status", help="show one run's stage states from its ledger"
    )
    _add_ledger_arguments(campaign_status)

    campaign_list = campaign_sub.add_parser("list", help="list recorded campaign runs")
    _add_cache_dir(campaign_list, "cache directory holding the campaign ledgers")

    campaign_watch = campaign_sub.add_parser(
        "watch",
        help="live view of a (possibly still running) campaign, projected "
        "from its ledger tail",
    )
    _add_ledger_arguments(campaign_watch)
    campaign_watch.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between ledger polls (default 1.0)",
    )
    campaign_watch.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (scripting/CI mode)",
    )

    campaign_report = campaign_sub.add_parser(
        "report",
        help="render a run's report purely from its ledger and the result "
        "cache (byte-identical across invocations)",
    )
    _add_ledger_arguments(campaign_report)
    campaign_report.add_argument(
        "--metrics-out",
        default=None,
        help="also write this process's metrics-spine JSON snapshot to PATH",
    )

    fleet = subparsers.add_parser(
        "fleet",
        help="work-stealing fleet execution over a shared filesystem spool",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_worker = fleet_sub.add_parser(
        "worker", help="drain jobs from a spool directory (crash-tolerant)"
    )
    fleet_worker.add_argument("spool_dir", help="the shared spool directory")
    fleet_worker.add_argument(
        "--wait",
        action="store_true",
        help="keep polling for new work after the spool drains "
        "(exit on 'fleet stop' or --idle-timeout); default: exit once drained",
    )
    fleet_worker.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="exit after this many seconds of continuous idleness",
    )
    fleet_worker.add_argument(
        "--max-jobs", type=int, default=None, help="exit after executing this many jobs"
    )
    fleet_worker.add_argument(
        "--lease-timeout",
        type=float,
        default=DEFAULT_LEASE_TIMEOUT,
        help="seconds before another worker's unrefreshed claim is reclaimed "
        f"(default {DEFAULT_LEASE_TIMEOUT:g})",
    )
    fleet_worker.add_argument(
        "--poll-interval",
        type=float,
        default=DEFAULT_POLL_INTERVAL,
        help=f"seconds between idle spool scans (default {DEFAULT_POLL_INTERVAL:g})",
    )
    fleet_worker.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )

    fleet_status = fleet_sub.add_parser(
        "status", help="show a spool's pending/active/result counts"
    )
    fleet_status.add_argument("spool_dir", help="the shared spool directory")

    fleet_stop = fleet_sub.add_parser(
        "stop", help="ask waiting workers on a spool to exit (place a stop marker)"
    )
    fleet_stop.add_argument("spool_dir", help="the shared spool directory")
    fleet_stop.add_argument(
        "--clear",
        action="store_true",
        help="remove the stop marker instead, so new workers keep waiting",
    )

    cache = subparsers.add_parser(
        "cache", help="inspect and maintain the content-addressed artifact store"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    cache_stats = cache_sub.add_parser(
        "stats", help="entry counts and bytes, total and per namespace"
    )
    _add_cache_dir(cache_stats)

    cache_verify = cache_sub.add_parser(
        "verify",
        help="integrity sweep: re-hash every envelope; exit 1 if corrupt "
        "entries remain",
    )
    _add_cache_dir(cache_verify)
    cache_verify.add_argument(
        "--prune", action="store_true", help="delete corrupt entries as found"
    )

    cache_gc = cache_sub.add_parser(
        "gc", help="sweep schema-stale and corrupt entries (already read as misses)"
    )
    _add_cache_dir(cache_gc)
    cache_gc.add_argument(
        "--drop-unreferenced",
        action="store_true",
        help="also remove sound job results no campaign ledger references",
    )

    cache_export = cache_sub.add_parser(
        "export", help="write verified entries to a portable result bundle (tar.gz)"
    )
    _add_cache_dir(cache_export)
    cache_export.add_argument("bundle", help="path of the bundle file to write")
    cache_export.add_argument(
        "--run-id",
        default=None,
        help="restrict to the job hashes one campaign run recorded finished",
    )
    cache_export.add_argument(
        "--no-payloads",
        action="store_true",
        help="skip payload namespaces (reference solutions), export job results only",
    )

    cache_import = cache_sub.add_parser(
        "import",
        help="merge a bundle into this store (every member integrity-verified first)",
    )
    _add_cache_dir(cache_import)
    cache_import.add_argument("bundle", help="path of the bundle file to read")

    from repro.service.ratelimit import DEFAULT_BURST, DEFAULT_RATE

    serve = subparsers.add_parser(
        "serve",
        help="run the solver service: a long-lived JSON-over-HTTP front door "
        "on one warm runner (idempotent hash-keyed tickets, request "
        "coalescing, rate limits and queue backpressure)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (0 = pick a free port; the bound port is published in "
        "the cache dir's service/endpoint.json)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=DEFAULT_RATE,
        help=f"per-client sustained rate limit in jobs/second (default {DEFAULT_RATE:g})",
    )
    serve.add_argument(
        "--burst",
        type=float,
        default=DEFAULT_BURST,
        help=f"per-client burst capacity in jobs (default {DEFAULT_BURST:g})",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="in-flight submitted jobs before the submit queue answers "
        "429 + Retry-After (default 256)",
    )
    add_runtime_arguments(serve, service=True)

    client = subparsers.add_parser(
        "client", help="talk to a running solver service ('msropm serve')"
    )
    client_sub = client.add_subparsers(dest="client_command", required=True)

    def _add_client_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--endpoint",
            default=None,
            help="service URL, e.g. http://127.0.0.1:8765 (default: discovered "
            "from the cache dir's service/endpoint.json)",
        )
        _add_cache_dir(
            sub,
            "cache directory whose endpoint record locates the service "
            "(default: $MSROPM_CACHE_DIR or ~/.cache/msropm)",
        )
        sub.add_argument(
            "--client-id", default="cli", help="rate-limit identity (default: cli)"
        )

    client_submit = client_sub.add_parser(
        "submit", help="submit a solve or scenarios batch; prints one ticket per job"
    )
    _add_client_common(client_submit)
    client_submit.add_argument(
        "--scenario-families",
        default=None,
        help="submit the MSROPM scenario jobs of these comma-separated workload "
        "families instead of a single solve (empty string = the whole zoo)",
    )
    client_submit.add_argument(
        "--rows", type=int, default=7, help="board side length of a solve submission"
    )
    client_submit.add_argument(
        "--graph", default=None, help="server-side DIMACS .col path instead of a board"
    )
    client_submit.add_argument(
        "--colors", type=int, default=4, help="number of colors (solve submission)"
    )
    client_submit.add_argument("--iterations", type=int, default=None, help="iteration count")
    _add_seed_argument(client_submit, default=None)
    _add_engine_arguments(client_submit)
    client_submit.add_argument(
        "--wait", action="store_true", help="block until every ticket is terminal"
    )
    client_submit.add_argument(
        "--timeout", type=float, default=600.0, help="--wait timeout in seconds"
    )

    client_poll = client_sub.add_parser("poll", help="show one ticket's state")
    _add_client_common(client_poll)
    client_poll.add_argument("ticket", help="ticket id (the job content hash)")

    client_fetch = client_sub.add_parser(
        "fetch", help="print a finished ticket's result payload as JSON"
    )
    _add_client_common(client_fetch)
    client_fetch.add_argument("ticket", help="ticket id (the job content hash)")

    client_stats = client_sub.add_parser(
        "stats", help="print the service's runner/admission counters as JSON"
    )
    _add_client_common(client_stats)

    dev = subparsers.add_parser(
        "dev", help="developer tooling: the repro-lint static analyzer"
    )
    dev_sub = dev.add_subparsers(dest="dev_command", required=True)

    dev_lint = dev_sub.add_parser(
        "lint",
        help="run the invariant checkers (determinism, schema-hash coupling, "
        "atomicity, hot-path discipline); exit 1 on findings",
    )
    dev_lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    dev_lint.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE",
        help="restrict to a checker name or rule id (repeatable)",
    )
    dev_lint.add_argument(
        "--root",
        default=None,
        help="repo root (default: nearest ancestor with pyproject.toml)",
    )

    dev_regen = dev_sub.add_parser(
        "regen-manifest",
        help="recompute devtools/schema_manifest.json after a schema change "
        "and its version bump",
    )
    dev_regen.add_argument(
        "--force",
        action="store_true",
        help="regenerate even when a changed surface's version is unbumped",
    )
    dev_regen.add_argument(
        "--check",
        action="store_true",
        help="only report whether the manifest is current; write nothing",
    )
    dev_regen.add_argument(
        "--root",
        default=None,
        help="repo root (default: nearest ancestor with pyproject.toml)",
    )

    return parser


def _run_solve(args: argparse.Namespace) -> int:
    if args.graph is not None:
        # One spec, parsed once: its built graph is cached in-process, so the
        # display metadata and a serial solve share the same parse.
        spec = as_graph_spec(args.graph)
        graph = spec.build()
        title_name = spec.label
    else:
        graph = kings_graph(args.rows, args.rows)
        spec = KingsGraphSpec(args.rows, args.rows)
        title_name = f"{graph.num_nodes}-node King's graph"
    config = MSROPMConfig(
        num_colors=args.colors, seed=args.seed, engine=args.engine, precision=args.precision
    )
    with runner_from_args(args) as runner:
        result = runner.solve(spec, config, iterations=args.iterations, seed=args.seed)
        stats = runner.stats()
    rows = [
        [
            item.iteration_index,
            f"{item.stage1_accuracy:.3f}",
            f"{item.stage1_raw_accuracy:.3f}",
            f"{item.accuracy:.3f}",
            item.is_exact,
        ]
        for item in result.iterations
    ]
    print(
        format_table(
            ("iteration", "stage-1 accuracy", "stage-1 raw", "coloring accuracy", "exact"),
            rows,
            title=f"MSROPM on {title_name} ({args.colors} colors, {graph.num_nodes} nodes)",
        )
    )
    print()
    print(f"best accuracy:  {result.best_accuracy:.3f}")
    print(f"mean accuracy:  {result.accuracies.mean():.3f}")
    print(f"exact solutions: {result.num_exact_solutions}/{result.num_iterations}")
    if stats["cache_hits"]:
        print(f"(result served from cache: {stats['cache_hits']} hit(s))")
    return 0


def _run_workloads(args: argparse.Namespace) -> int:
    if args.workloads_command == "list":
        rows = [
            [
                family.name,
                family.kind,
                family.num_colors,
                len(family.default_grid),
                "yes" if family.seeded else "no",
                family.description,
            ]
            for family in iter_families()
        ]
        print(
            format_table(
                ("Family", "Kind", "Colors", "Grid points", "Seeded", "Description"),
                rows,
                title="Workload zoo",
            )
        )
        return 0
    family = get_family(args.family)
    instances = default_workload(family.name, base_seed=args.seed).expand()
    rows = []
    for instance in instances:
        graph = instance.build()
        reference = instance.reference(graph)
        if reference.kind == "maxcut" and reference.reference_cut is not None:
            reference_text = f"cut {reference.reference_cut:.0f}"
        elif reference.colorable is None:
            reference_text = "unknown"
        elif reference.colorable:
            reference_text = f"{instance.num_colors}-colorable"
        else:
            reference_text = f"not {instance.num_colors}-colorable"
        rows.append(
            [
                instance.label,
                ", ".join(f"{k}={v}" for k, v in instance.params) or "-",
                instance.seed if instance.seed is not None else "-",
                graph.num_nodes,
                graph.num_edges,
                f"{reference_text} ({reference.provider})",
            ]
        )
    print(
        format_table(
            ("Instance", "Parameters", "Seed", "Nodes", "Edges", "Reference"),
            rows,
            title=f"Workload family '{family.name}': {family.description}",
        )
    )
    return 0


def _split_names(value: str, option: Optional[str] = None) -> List[str]:
    """The non-blank names of a comma-separated option value.

    With ``option`` given, a value that names nothing (``--family ,``) is an
    error instead of an empty selection.
    """
    names = [name.strip() for name in value.split(",") if name.strip()]
    if option is not None and not names:
        raise ConfigurationError(f"{option} {value!r} names no workload family")
    return names


def _campaign_params(args: argparse.Namespace) -> dict:
    """The built-in campaign parameters that ``args`` sets.

    Shared by the one-shot commands and ``campaign run``.  Only meaningfully
    set knobs go in: the orchestrator rejects parameters the chosen campaign
    does not read, so ``campaign run suite --family er`` fails loudly instead
    of silently running the full suite.
    """
    params = {"seed": args.seed, "engine": args.engine, "precision": args.precision}
    if getattr(args, "scale", 1.0) != 1.0:
        params["scale"] = args.scale
    if args.iterations is not None:
        params["iterations"] = args.iterations
    if getattr(args, "family", None):
        params["families"] = _split_names(args.family, "--family")
    if getattr(args, "baselines", None) is not None:
        params["baselines"] = _split_names(args.baselines)
    return params


def _run_oneshot_campaign(args: argparse.Namespace):
    """Run the built-in campaign named like the command, without a ledger.

    Returns its final (report) stage's output.  Nothing is recorded, so a
    failing stage surfaces as its own error and no run id is printed.
    """
    from repro.campaigns import get_campaign, run_campaign

    with runner_from_args(args) as runner:
        run = run_campaign(get_campaign(args.command), _campaign_params(args), runner=runner)
    return run.final_output


def _run_scenarios(args: argparse.Namespace) -> int:
    result = _run_oneshot_campaign(args)
    print(result.render())
    stats = result.runner_stats
    # Worker count and wall time deliberately omitted: the scenarios output is
    # byte-comparable between --workers 1 and --workers N.
    print()
    print(
        f"scenarios: {len(result.rows)} instance(s), {stats['jobs_run']} job(s) solved, "
        f"{stats['cache_hits']} cache hit(s), {stats['cache_stores']} store(s)"
    )
    stale = stats.get("cache_stale_misses", 0)
    if stale:
        # Prefixed "scenarios:" so the cold/warm byte-comparison (which strips
        # these status lines) stays intact even when the counts differ.
        print(
            f"scenarios: note: {stale} stale cache entr{'y' if stale == 1 else 'ies'} "
            "skipped (schema or tier change) and recomputed"
        )
    return 0


def _run_equivalence(args: argparse.Namespace) -> int:
    from repro.experiments.equivalence import (
        DEFAULT_EQUIVALENCE_FAMILIES,
        DEFAULT_TOLERANCE,
        run_equivalence,
    )

    families = (
        _split_names(args.family, "--family")
        if args.family
        else list(DEFAULT_EQUIVALENCE_FAMILIES)
    )
    tolerance = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    with runner_from_args(args) as runner:
        result = run_equivalence(
            families=families,
            iterations=args.iterations,
            seed=args.seed,
            tolerance=tolerance,
            runner=runner,
        )
    print(result.render())
    return 0 if result.passed else 1


def _campaign_ledger(cache_dir: Optional[str]):
    """The run ledger under the (explicit or default) cache directory.

    The ledger deliberately ignores ``--no-cache``: the journal is the
    control plane, not a result cache, and a run started uncached should
    still be listable and resumable (its resume recomputes results).
    """
    from repro.campaigns import RunLedger, ledger_root

    base = Path(cache_dir) if cache_dir else default_cache_dir()
    return RunLedger(ledger_root(base))


def _campaign_sinks(args: argparse.Namespace):
    """Build the event-sink router from ``--event-log``/``--webhook`` flags.

    Returns ``None`` when neither flag is set, so un-observed runs skip the
    router entirely.
    """
    from repro.obs import JsonlFileSink, SinkRouter, WebhookSink

    event_log = getattr(args, "event_log", None)
    webhook = getattr(args, "webhook", None)
    if not event_log and not webhook:
        return None
    router = SinkRouter()
    if event_log:
        router.add(JsonlFileSink(Path(event_log)))
    if webhook:
        router.add(WebhookSink(webhook))
    return router


def _report_sink_errors(sinks) -> None:
    """One stderr line when best-effort event delivery dropped anything."""
    if sinks is not None and sinks.errors:
        print(
            f"warning: {sinks.errors} event delivery failure(s); "
            f"last: {sinks.last_error}",
            file=sys.stderr,
        )


def _campaign_watch(args: argparse.Namespace) -> int:
    """Live terminal view of one run, re-projected from its ledger tail."""
    import time

    from repro.obs import CampaignProjection, LedgerFollower, render_watch, wall_time

    ledger = _campaign_ledger(args.cache_dir)
    path = ledger.path(args.run_id)
    if not path.exists():
        print(
            f"error: unknown campaign run {args.run_id!r} under {ledger.root}",
            file=sys.stderr,
        )
        return 2
    follower = LedgerFollower(path)
    projection = CampaignProjection(args.run_id)
    seen_truncations = 0
    first_frame = True
    while True:
        events = follower.poll()
        if follower.truncations != seen_truncations:
            # The journal shrank under us (rotation/tampering): the follower
            # re-read it from the top, so fold into a fresh projection.
            seen_truncations = follower.truncations
            projection = CampaignProjection(args.run_id)
        for event in events:
            projection.apply(event)
        if events or first_frame:
            first_frame = False
            frame = render_watch(projection, now=wall_time())
            if follower.malformed:
                frame += (
                    f"\nwarning: {follower.malformed} malformed ledger "
                    "line(s) skipped"
                )
            print(frame)
            print()
        if projection.terminal:
            return 1 if projection.failed else 0
        if args.once:
            return 0
        time.sleep(args.interval)


def _campaign_report(args: argparse.Namespace) -> int:
    """Post-hoc report of one run, rendered from ledger + cache alone."""
    from repro.obs import get_metrics, project_state, render_report
    from repro.runtime.atomic import write_atomic_json

    ledger = _campaign_ledger(args.cache_dir)
    state = ledger.replay(args.run_id)
    projection = project_state(state)
    cache_base = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    print(render_report(projection, cache=ResultCache(cache_base)))
    if args.metrics_out:
        write_atomic_json(Path(args.metrics_out), get_metrics().snapshot(), indent=2)
    return 0


def _print_campaign_result(result, runner_stats: Optional[dict] = None) -> None:
    final = result.final_output
    if final is not None and hasattr(final, "render"):
        print(final.render())
        print()
    print(result.render())
    totals = summarize_campaign_totals(result.reports)
    print(
        f"campaign {result.run_id}: {totals['stages_passed']}/{totals['stages']} "
        f"stage(s) passed, {totals['computed']} job(s) computed, "
        f"{totals['served']} served from cache"
    )
    stale = (runner_stats or {}).get("cache_stale_misses", 0)
    if stale:
        print(
            f"note: {stale} stale cache entr{'y' if stale == 1 else 'ies'} "
            "skipped (schema or tier change) and recomputed"
        )


def _run_campaign(args: argparse.Namespace) -> int:
    from repro.campaigns import get_campaign, resume_campaign, run_campaign

    if args.campaign_command == "list":
        ledger = _campaign_ledger(args.cache_dir)
        runs, corrupt = ledger.scan_runs()
        rows = [
            [
                state.run_id,
                state.campaign,
                sum(1 for value in state.stage_states.values() if value == "passed"),
                state.num_finished_jobs,
                "yes" if state.finished else "no",
            ]
            for state in runs
        ]
        # Journals that failed to replay still get a row: hiding a rotted run
        # from the listing would make its disappearance look like deletion.
        rows.extend(
            [entry["run_id"], "?", "-", "-", "CORRUPT"] for entry in corrupt
        )
        print(
            format_table(
                ("Run", "Campaign", "Stages passed", "Jobs recorded", "Finished"),
                rows,
                title=f"Campaign runs ({ledger.root})",
            )
        )
        for entry in corrupt:
            print(f"warning: run {entry['run_id']}: {entry['error']}", file=sys.stderr)
        return 0
    if args.campaign_command == "watch":
        return _campaign_watch(args)
    if args.campaign_command == "report":
        return _campaign_report(args)
    if args.campaign_command == "status":
        ledger = _campaign_ledger(args.cache_dir)
        state = ledger.replay(args.run_id)
        spec = get_campaign(state.campaign)
        rows = [
            [
                stage.name,
                ", ".join(stage.requires) if stage.requires else "-",
                state.stage_states.get(stage.name, "not_started"),
                len(state.finished_jobs.get(stage.name, [])),
            ]
            for stage in spec.stages
        ]
        print(
            format_table(
                ("Stage", "Requires", "State", "Jobs recorded"),
                rows,
                title=f"Campaign '{state.campaign}' run {state.run_id}",
            )
        )
        print()
        print(f"finished: {'yes' if state.finished else 'no'}")
        return 0
    ledger = _campaign_ledger(args.cache_dir)
    sinks = _campaign_sinks(args)
    if args.campaign_command == "resume":
        with runner_from_args(args) as runner:
            result = resume_campaign(
                args.run_id, ledger, runner=runner, log=print, sinks=sinks
            )
            stats = runner.stats()
        _print_campaign_result(result, stats)
        _report_sink_errors(sinks)
        return 0
    spec = get_campaign(args.name)
    params = _campaign_params(args)
    with runner_from_args(args) as runner:
        result = run_campaign(
            spec,
            params,
            runner=runner,
            ledger=ledger,
            run_id=args.run_id,
            log=print,
            sinks=sinks,
        )
        stats = runner.stats()
    _print_campaign_result(result, stats)
    _report_sink_errors(sinks)
    return 0


def _run_fleet(args: argparse.Namespace) -> int:
    if args.fleet_command == "worker":
        log = None if args.quiet else print
        counters = run_fleet_worker(
            args.spool_dir,
            wait=args.wait,
            idle_timeout=args.idle_timeout,
            max_jobs=args.max_jobs,
            lease_timeout=args.lease_timeout,
            poll_interval=args.poll_interval,
            log=log,
        )
        print(
            f"fleet worker: {counters['executed']} job(s) executed, "
            f"{counters['failed']} failed, {counters['reclaimed']} claim(s) reclaimed"
        )
        return 0
    spool = JobSpool(args.spool_dir)
    if args.fleet_command == "status":
        if not spool.exists:
            print(f"{spool.root} is not an initialized spool")
            return 1
        counts = spool.counts()
        print(f"spool {spool.root}")
        print(f"pending: {counts['pending']}")
        print(f"active:  {counts['active']}")
        print(f"results: {counts['results']}")
        print(f"stop requested: {'yes' if spool.stop_requested else 'no'}")
        return 0
    if args.fleet_command == "stop":
        if args.clear:
            spool.clear_stop()
            print(f"stop marker cleared on {spool.root}")
        else:
            spool.request_stop()
            print(f"stop requested on {spool.root} (waiting workers will exit)")
        return 0
    raise AssertionError(f"unhandled fleet command {args.fleet_command!r}")


def _human_bytes(count: int) -> str:
    """A compact human-readable byte count (binary units)."""
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{count} B"
        size /= 1024
    return f"{count} B"  # pragma: no cover - unreachable


def _run_cache(args: argparse.Namespace) -> int:
    store = ResultCache(args.cache_dir or default_cache_dir())
    if args.cache_command == "stats":
        stats = store.stats()
        rows = [
            [kind, bucket["entries"], _human_bytes(bucket["bytes"])]
            for kind, bucket in sorted(stats["kinds"].items())
        ]
        rows.append(["total", stats["entries"], _human_bytes(stats["bytes"])])
        print(
            format_table(
                ("Namespace", "Entries", "Size"),
                rows,
                title=f"Artifact store {stats['root']} (schema v{stats['cache_schema']})",
            )
        )
        return 0
    if args.cache_command == "verify":
        report = store.verify(prune=args.prune)
        print(
            f"cache verify: {report['ok']} ok, {report['stale']} stale, "
            f"{report['corrupt']} corrupt ({report['pruned']} pruned)"
        )
        for entry in report["corrupt_entries"]:
            print(f"corrupt: {entry['path']}: {entry['detail']}")
        return 1 if report["corrupt"] > report["pruned"] else 0
    if args.cache_command == "gc":
        referenced = None
        if args.drop_unreferenced:
            referenced = _campaign_ledger(args.cache_dir).referenced_job_hashes()
        removed = store.gc(referenced=referenced)
        print(
            f"cache gc: removed {removed['stale']} stale, {removed['corrupt']} corrupt, "
            f"{removed['unreferenced']} unreferenced; kept {removed['kept']}"
        )
        return 0
    if args.cache_command == "export":
        job_hashes = None
        if args.run_id is not None:
            state = _campaign_ledger(args.cache_dir).replay(args.run_id)
            job_hashes = {
                job_hash
                for hashes in state.finished_jobs.values()
                for job_hash in hashes
            }
        manifest = store.export_bundle(
            args.bundle,
            job_hashes=job_hashes,
            include_payloads=not args.no_payloads,
        )
        print(
            f"cache export: {len(manifest['entries'])} result(s), "
            f"{len(manifest['payloads'])} payload(s) -> {args.bundle} "
            f"({manifest['skipped_unsound']} unsound entr"
            f"{'y' if manifest['skipped_unsound'] == 1 else 'ies'} skipped)"
        )
        return 0
    if args.cache_command == "import":
        counters = store.import_bundle(args.bundle)
        print(
            f"cache import: {counters['imported']} imported, "
            f"{counters['existing']} already present, {counters['rejected']} rejected"
        )
        return 0
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service.server import run_server

    cache_root = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    with runner_from_args(args) as runner:
        return run_server(
            runner,
            cache_root,
            host=args.host,
            port=args.port,
            rate=args.rate,
            burst=args.burst,
            log=print,
        )


def _run_client(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import ServiceClient, discover_endpoint

    endpoint = args.endpoint or discover_endpoint(args.cache_dir or default_cache_dir())
    client = ServiceClient(endpoint, client_id=args.client_id)
    if args.client_command == "submit":
        spec: dict = {}
        if args.scenario_families is not None:
            spec["kind"] = "scenarios"
            if args.scenario_families:
                spec["families"] = _split_names(
                    args.scenario_families, "--scenario-families"
                )
        else:
            spec["kind"] = "solve"
            spec["rows"] = args.rows
            spec["colors"] = args.colors
            if args.graph is not None:
                spec["graph"] = args.graph
        spec["engine"] = args.engine
        spec["precision"] = args.precision
        if args.iterations is not None:
            spec["iterations"] = args.iterations
        if args.seed is not None:
            spec["seed"] = args.seed
        tickets = client.submit([spec])
        for ticket in tickets:
            print(f"ticket {ticket['ticket_id']} {ticket['state']} ({ticket['source']})")
        if not args.wait:
            return 0
        ticket_ids = list(dict.fromkeys(ticket["ticket_id"] for ticket in tickets))
        states = client.wait(ticket_ids, timeout=args.timeout)
        done = sum(1 for payload in states.values() if payload.get("state") == "done")
        failed = sum(1 for payload in states.values() if payload.get("state") == "failed")
        for ticket_id in ticket_ids:
            payload = states[ticket_id]
            line = f"final {ticket_id} {payload.get('state')} ({payload.get('source')})"
            if payload.get("error"):
                line += f": {payload['error']}"
            print(line)
        print(f"client submit: {len(ticket_ids)} ticket(s), {done} done, {failed} failed")
        return 1 if failed else 0
    if args.client_command == "poll":
        print(json.dumps(client.poll(args.ticket), indent=2, sort_keys=True))
        return 0
    if args.client_command == "fetch":
        payload = client.fetch(args.ticket)
        print(json.dumps(payload["result"], indent=2, sort_keys=True))
        return 0
    if args.client_command == "stats":
        print(json.dumps(client.stats(), indent=2, sort_keys=True))
        return 0
    raise AssertionError(f"unhandled client command {args.client_command!r}")


def _run_dev(args: argparse.Namespace) -> int:
    # Imported lazily: the analyzer is developer tooling, and solve-path
    # invocations should not pay for (or depend on) it.
    from pathlib import Path

    from repro.devtools.__main__ import (
        find_repo_root,
        run_lint_command,
        run_regen_command,
    )

    root = (Path(args.root) if args.root else find_repo_root()).resolve()
    if args.dev_command == "lint":
        return run_lint_command(root, args.format, args.rule)
    if args.dev_command == "regen-manifest":
        return run_regen_command(root, args.force, args.check)
    raise AssertionError(f"unhandled dev command {args.dev_command!r}")


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``msropm`` command.

    A :class:`ReproError` (a bad option value the library rejects) prints
    ``msropm: error: <message>`` and exits 2, like an argparse usage error;
    any other exception propagates.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_command(parser, args)
    except ReproError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


#: The single-experiment commands: the experiment's runner and its renderer.
_EXPERIMENT_COMMANDS = {
    "table1": (run_table1, lambda result: result.render()),
    "table2": (run_table2, lambda result: result.render()),
    "fig5": (run_figure5, render_figure5),
}


def _run_command(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "solve":
        return _run_solve(args)
    if args.command in _EXPERIMENT_COMMANDS:
        run, render = _EXPERIMENT_COMMANDS[args.command]
        with runner_from_args(args) as runner:
            result = run(
                scale=args.scale,
                iterations=args.iterations,
                seed=args.seed,
                engine=args.engine,
                precision=args.precision,
                runner=runner,
            )
        print(render(result))
        return 0
    if args.command == "suite":
        print(_run_oneshot_campaign(args).render())
        return 0
    if args.command == "fig3":
        result = run_figure3(rows=args.rows, cols=args.rows, seed=args.seed)
        print(render_figure3(result))
        return 0
    if args.command == "workloads":
        return _run_workloads(args)
    if args.command == "scenarios":
        return _run_scenarios(args)
    if args.command == "equivalence":
        return _run_equivalence(args)
    if args.command == "campaign":
        return _run_campaign(args)
    if args.command == "fleet":
        return _run_fleet(args)
    if args.command == "cache":
        return _run_cache(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "client":
        return _run_client(args)
    if args.command == "dev":
        return _run_dev(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - manual invocation path
    sys.exit(main())
