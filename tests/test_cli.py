"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import _split_names, build_parser, main
from repro.exceptions import ConfigurationError
from repro.workloads import family_names


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.rows == 7
        assert args.iterations == 10
        assert args.colors == 4

    def test_table_scale_option(self):
        args = build_parser().parse_args(["table1", "--scale", "0.25"])
        assert args.scale == 0.25

    def test_fig3_options(self):
        args = build_parser().parse_args(["fig3", "--rows", "5", "--seed", "3"])
        assert args.rows == 5 and args.seed == 3

    def test_engine_option_defaults_to_batched(self):
        assert build_parser().parse_args(["solve"]).engine == "batched"
        assert build_parser().parse_args(["table1"]).engine == "batched"

    def test_engine_option_accepts_sequential(self):
        args = build_parser().parse_args(["solve", "--engine", "sequential"])
        assert args.engine == "sequential"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--engine", "turbo"])

    def test_solve_engines_print_identical_tables(self, capsys):
        main(["solve", "--rows", "4", "--iterations", "2", "--seed", "1", "--engine", "sequential"])
        sequential_out = capsys.readouterr().out
        main(["solve", "--rows", "4", "--iterations", "2", "--seed", "1", "--engine", "batched"])
        batched_out = capsys.readouterr().out
        assert sequential_out == batched_out


class TestMain:
    def test_solve_command_output(self, capsys):
        exit_code = main(["solve", "--rows", "4", "--iterations", "2", "--seed", "1"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "MSROPM on 16-node King's graph" in captured
        assert "best accuracy" in captured

    def test_fig3_command_output(self, capsys):
        exit_code = main(["fig3", "--rows", "3", "--seed", "2"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Figure 3" in captured

    def test_table1_command_scaled(self, capsys):
        exit_code = main(["table1", "--scale", "0.08", "--iterations", "2", "--seed", "3"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Table 1" in captured
        assert "4^49" in captured

    def test_fig5_command_scaled(self, capsys):
        exit_code = main(["fig5", "--scale", "0.08", "--iterations", "2", "--seed", "4"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Figure 5(a)" in captured


class TestRuntimeFlags:
    def test_runtime_flags_parse_on_all_solve_commands(self):
        for command in ("solve", "table1", "table2", "fig5", "suite"):
            args = build_parser().parse_args(
                [command, "--workers", "4", "--no-cache", "--replica-chunk", "8"]
            )
            assert args.workers == 4
            assert args.no_cache is True
            assert args.replica_chunk == 8

    def test_cache_dir_flag(self):
        args = build_parser().parse_args(["suite", "--cache-dir", "/tmp/somewhere"])
        assert args.cache_dir == "/tmp/somewhere"
        assert args.workers == 1

    def test_solve_graph_flag_runs_dimacs_workload(self, capsys, tmp_path):
        from repro.graphs import kings_graph, write_dimacs

        path = tmp_path / "board.col"
        write_dimacs(kings_graph(4, 4), path)
        exit_code = main(
            ["solve", "--graph", str(path), "--iterations", "2", "--seed", "3", "--no-cache"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "MSROPM on board" in captured
        assert "16 nodes" in captured

    def test_solve_workers_matches_serial_output(self, capsys, tmp_path):
        """--workers 4 must print byte-identical results to --workers 1."""
        base = ["solve", "--rows", "4", "--iterations", "4", "--seed", "5", "--no-cache"]
        main(base + ["--workers", "1"])
        serial_out = capsys.readouterr().out
        main(base + ["--workers", "4", "--replica-chunk", "1"])
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out

    def test_solve_cache_round_trip(self, capsys, tmp_path):
        base = [
            "solve", "--rows", "4", "--iterations", "2", "--seed", "6",
            "--cache-dir", str(tmp_path),
        ]
        main(base)
        cold_out = capsys.readouterr().out
        main(base)
        warm_out = capsys.readouterr().out
        assert "served from cache" in warm_out
        assert cold_out in warm_out.replace("(result served from cache: 1 hit(s))\n", "")

    def test_suite_command_scaled(self, capsys, tmp_path):
        exit_code = main(
            [
                "suite", "--scale", "0.05", "--iterations", "2", "--seed", "7",
                "--cache-dir", str(tmp_path),
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Table 1" in captured
        assert "Figure 5(a)" in captured
        assert "suite finished" in captured

    def test_serve_rejects_the_knobs_it_never_used(self):
        """The service always caches and plans unsplit jobs."""
        for flags in (["--replica-chunk", "4"], ["--no-cache"]):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(["serve"] + flags)
            assert excinfo.value.code == 2


class TestOneShotCampaigns:
    """``suite`` and ``scenarios`` are their built-in campaigns, run without a
    ledger: the same tables as ``campaign run``, and nothing recorded."""

    def test_suite_prints_the_campaign_tables(self, capsys, tmp_path):
        import re

        from repro.campaigns import ledger_root

        knobs = ["--scale", "0.05", "--iterations", "2", "--seed", "7"]
        assert main(["suite", *knobs, "--cache-dir", str(tmp_path / "a")]) == 0
        oneshot = capsys.readouterr().out
        assert main(["campaign", "run", "suite", *knobs, "--cache-dir", str(tmp_path / "b")]) == 0
        campaign = capsys.readouterr().out

        def untimed(text):
            return re.sub(r"suite finished in [0-9.]+s", "suite finished in Xs", text)

        assert oneshot.startswith("Table 1")
        assert untimed(oneshot) in untimed(campaign)
        assert not ledger_root(tmp_path / "a").exists()
        assert any(ledger_root(tmp_path / "b").iterdir())

    def test_scenarios_prints_the_campaign_matrix(self, capsys, tmp_path):
        from repro.campaigns import ledger_root

        knobs = ["--family", "dimacs", "--iterations", "2", "--seed", "6", "--baselines", "sa"]
        assert main(["scenarios", *knobs, "--cache-dir", str(tmp_path / "a")]) == 0
        oneshot = capsys.readouterr().out
        assert main(["campaign", "run", "scenarios", *knobs, "--cache-dir", str(tmp_path / "b")]) == 0
        campaign = capsys.readouterr().out

        matrix = oneshot[: oneshot.index("\nscenarios: ")]
        assert matrix.startswith("Scenario matrix")
        assert matrix in campaign
        assert not ledger_root(tmp_path / "a").exists()
        assert any(ledger_root(tmp_path / "b").iterdir())


class TestWorkloadsCommands:
    def test_workloads_list(self, capsys):
        exit_code = main(["workloads", "list"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Workload zoo" in captured
        for family in ("kings", "er", "regular", "planar", "dimacs", "maxcut"):
            assert family in captured

    def test_workloads_show_requires_family(self):
        with pytest.raises(SystemExit):
            main(["workloads", "show"])

    def test_workloads_show_expands_instances(self, capsys):
        exit_code = main(["workloads", "show", "--family", "dimacs"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "myciel3" in captured and "myciel4" in captured
        assert "not 4-colorable" in captured  # myciel4's known chromatic number is 5

    def test_scenarios_smoke_on_dimacs(self, capsys):
        exit_code = main(
            ["scenarios", "--family", "dimacs", "--iterations", "2", "--seed", "3",
             "--baselines", "sa", "--no-cache"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Scenario matrix" in captured
        assert "Per-family MSROPM accuracy" in captured
        assert "3 instance(s)" in captured

    def test_scenarios_workers_match_serial_output(self, capsys):
        """Acceptance: scenarios --workers 2 prints byte-identical results."""
        base = ["scenarios", "--family", "er,dimacs", "--iterations", "2", "--seed", "5",
                "--baselines", "sa", "--no-cache"]
        main(base + ["--workers", "1"])
        serial_out = capsys.readouterr().out
        main(base + ["--workers", "2"])
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out

    def test_scenarios_warm_cache_rerun(self, capsys, tmp_path):
        base = ["scenarios", "--family", "dimacs", "--iterations", "2", "--seed", "6",
                "--baselines", "", "--cache-dir", str(tmp_path)]
        main(base)
        cold_out = capsys.readouterr().out
        main(base)
        warm_out = capsys.readouterr().out
        assert "3 job(s) solved, 0 cache hit(s)" in cold_out
        assert "0 job(s) solved, 3 cache hit(s)" in warm_out
        assert cold_out.split("scenarios:")[0] == warm_out.split("scenarios:")[0]


class TestErrorExit:
    """A bad option value is a one-line usage error (exit 2), not a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--rows", "0"], "rows must be a positive integer"),
            (["solve", "--iterations", "0"], "total_iterations must be at least 1"),
            (["solve", "--colors", "3"], "num_colors must be a power of two"),
            (["solve", "--workers", "0"], "workers must be >= 1"),
            (["solve", "--replica-chunk", "0"], "replica_chunk must be >= 1"),
            (["scenarios", "--family", "nope"], "unknown workload family 'nope'"),
            (["scenarios", "--family", ","], "--family ',' names no workload family"),
            (["campaign", "run", "scenarios", "--family", " , "], "names no workload family"),
            (["equivalence", "--tolerance", "-1"], "tolerance must be > 0, got -1"),
            (["equivalence", "--tolerance", "0"], "tolerance must be > 0, got 0"),
            (
                ["client", "submit", "--endpoint", "http://127.0.0.1:9",
                 "--scenario-families", ","],
                "--scenario-families ',' names no workload family",
            ),
            (["table1", "--iterations", "0"], "total_iterations must be at least 1"),
            (["fig5", "--iterations", "0"], "total_iterations must be at least 1"),
            (["suite", "--scale", "0"], "scale must be in (0, 1]"),
            (["scenarios", "--iterations", "0"], "iterations must be at least 1"),
            (["campaign", "run", "nope"], "unknown campaign 'nope'"),
            (["equivalence", "--family", "nope"], "unknown workload family 'nope'"),
        ],
    )
    def test_bad_value_prints_one_error_line(self, argv, message, capsys, tmp_path):
        if argv[0] != "client":
            argv = argv + ["--cache-dir", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("msropm: error: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "name, is_dir, reason",
        [
            ("missing.col", False, "No such file or directory"),
            ("missing.json", False, "No such file or directory"),
            ("boards", True, "Is a directory"),
            ("boards.json", True, "Is a directory"),
        ],
    )
    def test_unreadable_graph_path_is_one_error_line(self, name, is_dir, reason, capsys, tmp_path):
        path = tmp_path / name
        if is_dir:
            path.mkdir()
        argv = ["solve", "--graph", str(path), "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"msropm: error: cannot read graph file {path}: {reason}\n"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["suite", "--scale", "0"], "scale must be in (0, 1], got 0.0"),
            (
                ["scenarios", "--family", "nope"],
                f"unknown workload family 'nope'; available: {', '.join(family_names())}",
            ),
            (
                ["scenarios", "--family", "er", "--iterations", "2", "--baselines", "nope"],
                "unknown baseline 'nope'; available: sa, tabu, roim, single_stage",
            ),
            (
                ["campaign", "run", "scenarios", "--family", "er", "--iterations", "2",
                 "--baselines", "nope", "--run-id", "bad"],
                "stage 'solves' of run 'bad' failed: unknown baseline 'nope'; "
                "available: sa, tabu, roim, single_stage",
            ),
        ],
    )
    def test_campaign_errors_fail_before_any_job(
        self, argv, line, capsys, monkeypatch, tmp_path
    ):
        """A one-shot command keeps its library error as the whole line (no
        run id: nothing is recorded), and a bad value of any campaign form
        fails before a job is solved or cached."""
        from repro.runtime.cache import ResultCache
        from repro.runtime.runner import ExperimentRunner

        ran = []
        run_jobs = ExperimentRunner.run_jobs

        def counting_run_jobs(self, jobs, *args, **kwargs):
            ran.extend(jobs)
            return run_jobs(self, jobs, *args, **kwargs)

        monkeypatch.setattr(ExperimentRunner, "run_jobs", counting_run_jobs)
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"msropm: error: {line}\n"
        assert ran == []
        assert ResultCache(tmp_path).stats()["entries"] == 0


class TestSplitNames:
    """The one parser of comma-separated name lists (families, baselines)."""

    @pytest.mark.parametrize(
        "value, names",
        [
            ("er", ["er"]),
            ("er,dimacs", ["er", "dimacs"]),
            (" er , ,dimacs ,", ["er", "dimacs"]),
            ("", []),
            (" , ", []),
        ],
    )
    def test_blank_pieces_are_dropped(self, value, names):
        assert _split_names(value) == names

    def test_option_rejects_a_value_that_names_nothing(self):
        assert _split_names(" kings ,", "--family") == ["kings"]
        with pytest.raises(ConfigurationError, match="--family ' , ' names no workload family"):
            _split_names(" , ", "--family")


class TestRunnerLifecycle:
    """No ProcessPoolExecutor outlives a CLI command (the warm-pool leak audit).

    Every runner-holding command wraps the runner in a context manager, so the
    pool's worker processes are joined before ``main`` returns — on clean
    exits and on mid-command errors alike.
    """

    def test_no_worker_processes_outlive_solve(self, capsys):
        import multiprocessing

        exit_code = main(
            ["solve", "--rows", "3", "--iterations", "2", "--seed", "1",
             "--workers", "2", "--no-cache"]
        )
        capsys.readouterr()
        assert exit_code == 0
        assert multiprocessing.active_children() == []

    def test_no_worker_processes_outlive_error_exit(self, capsys, monkeypatch):
        import multiprocessing

        from repro.runtime.runner import ExperimentRunner

        # Fail *inside* the command's `with runner` block, after the pool has
        # warmed up: the context manager must still join the workers.
        def boom(self):
            raise RuntimeError("simulated failure after solve")

        monkeypatch.setattr(ExperimentRunner, "stats", boom)
        with pytest.raises(RuntimeError, match="simulated failure"):
            main(
                ["solve", "--rows", "3", "--iterations", "2", "--seed", "1",
                 "--workers", "2", "--no-cache"]
            )
        capsys.readouterr()
        assert multiprocessing.active_children() == []


class TestImportFootprint:
    def test_cli_import_leaves_scipy_integrate_unloaded(self):
        """Only the reference integrator needs scipy.integrate; the CLI must not load it."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        script = "import sys, repro.cli; print('scipy.integrate' in sys.modules)"
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
        )
        assert completed.stdout.strip() == "False"
