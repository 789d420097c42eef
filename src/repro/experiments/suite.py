"""The full evaluation suite's report: every table and figure in one result.

``msropm suite`` reproduces the paper's whole evaluation grid — Table 1,
Table 2 and Figure 5 — by running the built-in ``suite`` campaign
(:mod:`repro.campaigns.builtin`) without a ledger; ``msropm campaign run
suite`` runs the same campaign with one, which makes it resumable.  The
campaign solves the experiments stage by stage through one
:class:`~repro.runtime.runner.ExperimentRunner`: Fig. 5 re-plots the sizes
Table 1 solves under the same seeds, so its jobs resolve from the runner's
memo, and a warm cache directory skips every solve.  Its report stage
assembles the :class:`SuiteResult` defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.experiments.fig5_accuracy import Figure5Result, render_figure5
from repro.experiments.table1_stats import Table1Result
from repro.experiments.table2_comparison import Table2Result


@dataclass
class SuiteResult:
    """Everything one suite invocation produced."""

    table1: Table1Result
    table2: Table2Result
    figure5: Figure5Result
    wall_time_s: float
    runner_stats: Dict[str, int]
    workers: int

    def render(self) -> str:
        """Render the full evaluation plus a runtime summary."""
        stats = self.runner_stats
        summary = (
            f"suite finished in {self.wall_time_s:.1f}s with {self.workers} worker(s): "
            f"{stats['jobs_run']} job(s) solved, "
            f"{stats['cache_hits']} cache hit(s), {stats['cache_stores']} store(s)"
        )
        stale = stats.get("cache_stale_misses", 0)
        if stale:
            summary += (
                f"\nnote: {stale} cache entr{'y' if stale == 1 else 'ies'} were stale "
                "(schema or tier change) and recomputed"
            )
        return "\n\n".join(
            [
                self.table1.render(),
                self.table2.render(),
                render_figure5(self.figure5),
                summary,
            ]
        )
