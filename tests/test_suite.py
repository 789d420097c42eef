"""Tests for the evaluation suite: the built-in ``suite`` campaign run without
a ledger (what ``msropm suite`` does) and its runtime integration."""

from __future__ import annotations

from repro.campaigns import get_campaign, run_campaign
from repro.campaigns.spec import CampaignContext
from repro.runtime.runner import ExperimentRunner

#: Tiny-but-real suite shape used by all tests here.
SUITE_PARAMS = dict(scale=0.05, iterations=2, seed=2025)


def _run_suite(runner):
    """The ledgerless suite campaign, as ``msropm suite`` runs it."""
    return run_campaign(get_campaign("suite"), SUITE_PARAMS, runner=runner)


def _stage_hashes(stage_name):
    context = CampaignContext(params=dict(SUITE_PARAMS), runner=ExperimentRunner())
    return [job.job_hash for job in get_campaign("suite").stage(stage_name).plan(context)]


def _suite_accuracy_fingerprint(result):
    """Every per-iteration number the suite reports, as comparable arrays."""
    return (
        [(row.problem_name, row.top_accuracy, row.mean_accuracy, row.num_exact) for row in result.table1.rows],
        result.table2.msropm_accuracies.tolist(),
        [
            (series.problem_name, series.coloring_accuracies.tolist(), series.maxcut_accuracies.tolist())
            for series in result.figure5.series
        ],
    )


class TestSuitePlanning:
    def test_plan_covers_all_experiments(self):
        # 4 Table 1 problems + 1 Table 2 headline row + 3 Figure 5 problems.
        counts = [len(_stage_hashes(name)) for name in ("table1", "table2", "fig5", "report")]
        assert counts == [4, 1, 3, 0]

    def test_fig5_jobs_dedupe_against_table1(self):
        """Fig. 5 replots Table 1's sizes under the same seeds: same hashes."""
        table1 = _stage_hashes("table1")
        fig5 = _stage_hashes("fig5")
        # The three Figure 5 jobs are hash-identical to three Table 1 jobs.
        assert len(set(fig5)) == 3
        assert set(fig5) <= set(table1)


class TestSuiteExecution:
    def test_suite_runs_and_renders(self, tmp_path):
        run = _run_suite(ExperimentRunner(cache_dir=tmp_path))
        result = run.final_output
        text = result.render()
        assert "Table 1" in text
        assert "MSROPM (this work)" in text
        assert "Figure 5(a)" in text
        assert "suite finished" in text
        # Deduplication: 8 planned requests, 5 distinct jobs actually solved.
        assert sum(report.num_jobs for report in run.reports) == 8
        assert result.runner_stats["jobs_run"] == 5

    def test_parallel_suite_bit_identical_to_serial_and_warm_cache_skips(self, tmp_path):
        """Acceptance property at test scale: workers=4 == workers=1, and a
        warm cache turns the rerun into pure loads."""
        serial = _run_suite(ExperimentRunner(workers=1)).final_output
        with ExperimentRunner(workers=4, cache_dir=tmp_path) as parallel_runner:
            parallel = _run_suite(parallel_runner).final_output
        assert _suite_accuracy_fingerprint(serial) == _suite_accuracy_fingerprint(parallel)

        with ExperimentRunner(workers=4, cache_dir=tmp_path) as warm_runner:
            warm = _run_suite(warm_runner).final_output
        assert warm.runner_stats["jobs_run"] == 0
        assert warm.runner_stats["cache_hits"] == 5
        assert _suite_accuracy_fingerprint(serial) == _suite_accuracy_fingerprint(warm)
