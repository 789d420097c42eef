"""Campaign orchestrator: execute declarative campaigns with crash-safe resume.

``run_campaign`` drives one :class:`~repro.campaigns.spec.CampaignSpec`
through the :class:`~repro.campaigns.stage_machine.StageMachine` in
topological order.  Each stage plans its job batch, runs it through the
shared :class:`~repro.runtime.runner.ExperimentRunner` (which shards across
the warm worker pool and resolves repeats from the content-addressed cache),
records its progress in the :class:`~repro.campaigns.ledger.RunLedger`, and
reduces the batch into the stage output the downstream stages read.

Crash-safe resume is the design center.  A killed campaign leaves (a) cache
entries for every job that finished and (b) a ledger journal ending wherever
the crash hit.  ``resume_campaign`` replays the journal: stages recorded
``passed`` re-plan their jobs and resolve them entirely from the cache (their
outputs are needed by later stages and the final report — recomputing them
would be both wasteful and a correctness bug), the interrupted stage
re-enqueues only the jobs the cache cannot answer, and untouched stages run
normally.  Because planners are deterministic and job results are pure
functions of their content hash, a resumed campaign's outputs are
byte-identical to an uninterrupted run's.

Failure policy: a stage whose batch (or reducer) raises is marked ``FAILED``
and its transitive dependents ``BLOCKED`` — all recorded — before the error
propagates as :class:`CampaignError`.  Resuming such a run retries the failed
stage from scratch (its previous state replays as not-started).  A run
without a ledger (the one-shot ``msropm suite`` / ``msropm scenarios``) has
no run to name or resume, so the stage's own error propagates unchanged.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.exceptions import ReproError
from repro.campaigns.ledger import LedgerState, RunLedger
from repro.campaigns.spec import CampaignContext, CampaignSpec, CampaignStage
from repro.campaigns.stage_machine import StageMachine, StageState
from repro.obs.clock import wall_time
from repro.obs.metrics import get_metrics
from repro.obs.sinks import SinkRouter
from repro.runtime.jobs import Job
from repro.runtime.runner import ExperimentRunner

#: Test/CI hook: when set to a stage name, the orchestrator hard-exits the
#: process right after that stage's ``stage_passed`` ledger record (runs
#: without a ledger have nothing to resume and ignore it) — a
#: reproducible stand-in for "the machine died mid-campaign" that the
#: campaign-smoke CI job uses to exercise resume.
KILL_AFTER_ENV = "MSROPM_CAMPAIGN_KILL_AFTER"

#: Exit code of the simulated kill (distinct from ordinary failures).
KILL_EXIT_CODE = 86

#: How many completed jobs a stage accumulates before committing an
#: incremental ``jobs_progress`` ledger event.  Each commit is a write +
#: fsync; chunking keeps watch-granularity progress from turning a large
#: stage into an fsync storm.
PROGRESS_CHUNK = 8


class CampaignError(ReproError):
    """A campaign stage failed; the run's ledger records the failure."""


@dataclass
class StageReport:
    """Execution accounting of one stage within one campaign invocation."""

    name: str
    requires: tuple
    state: str
    num_jobs: int
    jobs_run: int
    description: str = ""

    @property
    def served(self) -> int:
        """Jobs answered without computing (cache, memo, or dedup)."""
        return self.num_jobs - self.jobs_run


@dataclass
class CampaignRun:
    """Everything one ``run_campaign`` invocation produced."""

    run_id: str
    campaign: str
    params: Dict[str, Any]
    outputs: Dict[str, Any]
    reports: List[StageReport]
    runner_stats: Dict[str, int]
    resumed: bool = False
    wall_time_s: float = 0.0

    @property
    def final_output(self) -> Any:
        """The last stage's output (the campaign's headline artifact)."""
        if not self.reports:
            return None
        return self.outputs.get(self.reports[-1].name)

    def render(self) -> str:
        """The per-stage campaign report table."""
        from repro.analysis.reporting import format_campaign_report

        return format_campaign_report(
            self.reports,
            title=f"Campaign '{self.campaign}' run {self.run_id}"
            + (" (resumed)" if self.resumed else ""),
        )


def _default_log(message: str) -> None:
    """Default progress sink: silent (library callers opt in explicitly)."""


def run_campaign(
    spec: CampaignSpec,
    params: Optional[Dict[str, Any]] = None,
    runner: Optional[ExperimentRunner] = None,
    ledger: Optional[RunLedger] = None,
    run_id: Optional[str] = None,
    resume: bool = False,
    log: Callable[[str], None] = _default_log,
    replayed_state: Optional[LedgerState] = None,
    sinks: Optional[SinkRouter] = None,
) -> CampaignRun:
    """Execute (or resume) one campaign run.

    Parameters
    ----------
    spec:
        The campaign to run.
    params:
        Campaign parameters, visible to every stage planner/reducer.  On
        resume they are ignored in favor of the parameters the ledger
        recorded at run creation (a resumed run must re-plan identical jobs).
    runner:
        Execution runtime shared by all stages (``None`` = serial, uncached —
        legal, but resume then recomputes instead of loading).
    ledger:
        Run journal; ``None`` runs ephemerally (no persistence, no resume; a
        failing stage raises its own error, not :class:`CampaignError`).
    run_id:
        Explicit id for a new run, or the id to resume when ``resume=True``.
    log:
        Progress callback (one short line per event); silent by default.
    replayed_state:
        An already-replayed :class:`LedgerState` for ``run_id`` (resume path
        only) — saves :func:`resume_campaign` a second journal parse.
    sinks:
        Optional :class:`~repro.obs.sinks.SinkRouter`; every ledger event the
        run records is also published through it (best-effort — sink failures
        are counted, never raised).
    """
    runner = runner or ExperimentRunner()
    machine = StageMachine(spec.prerequisites())
    start = time.perf_counter()

    if resume:
        if ledger is None or run_id is None:
            raise CampaignError("resume needs a ledger and a run id")
        state = replayed_state if replayed_state is not None else ledger.replay(run_id)
        if state.run_id != run_id:
            raise CampaignError(
                f"replayed state is for run {state.run_id!r}, not {run_id!r}"
            )
        if state.campaign != spec.name:
            raise CampaignError(
                f"run {run_id!r} belongs to campaign {state.campaign!r}, "
                f"not {spec.name!r}"
            )
        params = state.params
        # Restore the planning knobs the original run recorded: job hashes
        # depend on replica-chunk boundaries, so resuming with a different
        # chunking would miss the cache and quietly recompute passed stages.
        recorded_chunk = state.runtime.get("replica_chunk")
        if recorded_chunk != runner.replica_chunk:
            log(
                f"campaign {spec.name}: restoring replica_chunk="
                f"{recorded_chunk} recorded by run {run_id}"
            )
            runner.replica_chunk = recorded_chunk
        _restore_machine(machine, state)
    else:
        params = dict(params or {})
        _validate_params(spec, params)
        if ledger is not None:
            run_id = ledger.start_run(
                spec.name,
                params,
                run_id,
                runtime={"replica_chunk": runner.replica_chunk},
            )
        elif run_id is None:
            run_id = RunLedger.new_run_id(spec.name)
        if sinks is not None:
            sinks.emit(
                {
                    "event": "campaign_started",
                    "campaign": spec.name,
                    "params": dict(params),
                    "run_id": run_id,
                    "ts": wall_time(),
                }
            )
    log(f"campaign {spec.name}: run {run_id}" + (" (resumed)" if resume else ""))

    context = CampaignContext(params=params, runner=runner, started=start)
    reports: List[StageReport] = []
    for name in machine.order:
        stage = spec.stage(name)
        report = _run_stage(
            stage, machine, context, runner, ledger, run_id, log, sinks
        )
        reports.append(report)
    finished_event = {"event": "campaign_finished", "ts": wall_time()}
    if ledger is not None:
        ledger.append(run_id, finished_event)
    if sinks is not None:
        sinks.emit(dict(finished_event, run_id=run_id))
    log(f"campaign {spec.name}: run {run_id} finished")
    return CampaignRun(
        run_id=run_id,
        campaign=spec.name,
        params=params,
        outputs=context.outputs,
        reports=reports,
        runner_stats=runner.stats(),
        resumed=resume,
        wall_time_s=time.perf_counter() - start,
    )


def _validate_params(spec: CampaignSpec, params: Dict[str, Any]) -> None:
    """Reject parameters the campaign does not understand.

    Without this, a suite run invoked with ``--family`` (or a scenarios run
    with ``--scale``) would silently ignore the flag *and* record it in the
    ledger as if it had taken effect.  Specs with ``param_names=None``
    (custom library campaigns) skip validation.
    """
    if spec.param_names is None:
        return
    unknown = sorted(set(params) - set(spec.param_names))
    if unknown:
        raise CampaignError(
            f"campaign {spec.name!r} does not accept parameter(s) "
            f"{', '.join(unknown)}; accepted: {', '.join(spec.param_names)}"
        )


def _restore_machine(machine: StageMachine, state: LedgerState) -> None:
    """Rebuild stage states from a replayed ledger.

    ``passed`` stages replay through the machine's own transition rules (the
    journal is a legal history, so this cannot raise).  A stage that was
    ``running`` at the crash stays running — the orchestrator continues it.
    ``failed``/``blocked`` stages deliberately replay as *not started*: a
    resume is a retry.
    """
    for name in machine.order:
        recorded = state.stage_states.get(name)
        if recorded == "passed":
            machine.transition(name, StageState.RUNNING)
            machine.transition(name, StageState.PASSED)
        elif recorded == "running":
            machine.transition(name, StageState.RUNNING)


def _run_stage(
    stage: CampaignStage,
    machine: StageMachine,
    context: CampaignContext,
    runner: ExperimentRunner,
    ledger: Optional[RunLedger],
    run_id: str,
    log: Callable[[str], None],
    sinks: Optional[SinkRouter] = None,
) -> StageReport:
    """Execute one stage (or re-resolve a passed one) and report on it."""
    name = stage.name
    current = machine.state(name)

    def record(event: Dict[str, Any]) -> None:
        # Stamp the timestamp here (rather than letting ledger.append default
        # it) so the ledger line and the sink copy carry the same ``ts``.
        payload = dict(event, stage=name)
        payload.setdefault("ts", wall_time())
        if ledger is not None:
            ledger.append(run_id, payload)
        if sinks is not None:
            sinks.emit(dict(payload, run_id=run_id))

    # --- per-job progress: buffer completions, commit small ledger chunks.
    progress_buffer: List[str] = []

    def flush_progress() -> None:
        if not progress_buffer:
            return
        batch = list(progress_buffer)
        del progress_buffer[:]
        try:
            record({"event": "jobs_progress", "job_hashes": batch})
        except Exception:  # noqa: BLE001 - progress is observability only
            # A full disk (or similar) will still fail the *batch-grained*
            # jobs_finished record below; incremental progress must not be
            # the thing that kills a run.
            get_metrics().inc("orchestrator.progress_record_errors")

    def on_job_done(job: Job) -> None:
        if job.cacheable:
            progress_buffer.append(job.job_hash)
            if len(progress_buffer) >= PROGRESS_CHUNK:
                flush_progress()

    observing = ledger is not None or sinks is not None
    progress = on_job_done if observing else None

    if current is StageState.PASSED:
        # Completed before the crash: re-plan and resolve purely from the
        # cache/memo so later stages (and the final report) see its output.
        jobs = list(stage.plan(context))
        jobs_before = runner.jobs_run
        results = runner.run_jobs(jobs)
        output = stage.reduce(context, results) if stage.reduce else results
        context.outputs[name] = output
        recomputed = runner.jobs_run - jobs_before
        log(
            f"  stage {name}: already passed, {len(jobs) - recomputed} of "
            f"{len(jobs)} job(s) served from cache"
        )
        return StageReport(
            name=name,
            requires=machine.requires(name),
            state=StageState.PASSED.value,
            num_jobs=len(jobs),
            jobs_run=recomputed,
            description=stage.description,
        )

    if current is StageState.NOT_STARTED:
        machine.transition(name, StageState.RUNNING)
        record({"event": "stage_started"})
        log(f"  stage {name}: started")
    else:  # RUNNING — interrupted mid-stage; continue it.
        record({"event": "stage_resumed"})
        log(f"  stage {name}: resuming interrupted stage")

    jobs_before = runner.jobs_run
    try:
        # Planning, execution and reduction all count as the stage's work:
        # a failure in any of them fails the stage (and blocks dependents).
        jobs = list(stage.plan(context))
        record({"event": "stage_planned", "num_jobs": len(jobs)})
        results = runner.run_jobs(jobs, progress=progress)
        flush_progress()
        output = stage.reduce(context, results) if stage.reduce else results
    except Exception as exc:
        flush_progress()  # jobs that finished before the failure still count
        machine.transition(name, StageState.FAILED)
        record({"event": "stage_failed", "error": str(exc)})
        for blocked in machine.cascade_failure(name):
            blocked_event = {
                "event": "stage_blocked",
                "stage": blocked,
                "cause": name,
                "ts": wall_time(),
            }
            if ledger is not None:
                ledger.append(run_id, blocked_event)
            if sinks is not None:
                sinks.emit(dict(blocked_event, run_id=run_id))
            log(f"  stage {blocked}: blocked (depends on failed {name})")
        if ledger is None:
            # No ledger records the run, so there is no run to name: the
            # caller sees the stage's own error.
            raise
        raise CampaignError(f"stage {name!r} of run {run_id!r} failed: {exc}") from exc
    recomputed = runner.jobs_run - jobs_before
    context.outputs[name] = output
    record(
        {
            "event": "jobs_finished",
            "job_hashes": [job.job_hash for job in jobs if job.cacheable],
        }
    )
    machine.transition(name, StageState.PASSED)
    record({"event": "stage_passed"})
    log(
        f"  stage {name}: passed "
        f"({len(jobs)} job(s), {recomputed} computed, {len(jobs) - recomputed} served)"
    )
    if ledger is not None:
        _maybe_simulate_kill(name, runner, log)
    return StageReport(
        name=name,
        requires=machine.requires(name),
        state=StageState.PASSED.value,
        num_jobs=len(jobs),
        jobs_run=recomputed,
        description=stage.description,
    )


def _maybe_simulate_kill(
    stage_name: str, runner: ExperimentRunner, log: Callable[[str], None]
) -> None:
    """CI hook: hard-exit after a named stage to exercise crash-safe resume.

    The worker pool is shut down first: ``os._exit`` skips every cleanup, and
    orphaned pool workers would otherwise keep inherited pipe descriptors
    open forever (hanging ``cmd | tee`` in the smoke script).  The ledger
    tail is unaffected — nothing after the stage's ``stage_passed`` record is
    written either way.
    """
    if os.environ.get(KILL_AFTER_ENV) == stage_name:
        log(f"  simulated kill after stage {stage_name} ({KILL_AFTER_ENV})")
        runner.close()
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(KILL_EXIT_CODE)


def resume_campaign(
    run_id: str,
    ledger: RunLedger,
    runner: Optional[ExperimentRunner] = None,
    log: Callable[[str], None] = _default_log,
    sinks: Optional[SinkRouter] = None,
) -> CampaignRun:
    """Resume a killed or failed campaign run from its ledger.

    The campaign spec is looked up by the name the ledger recorded, so all
    the caller needs is the run id (``msropm campaign resume <run-id>``).
    """
    from repro.campaigns.builtin import get_campaign

    state = ledger.replay(run_id)
    spec = get_campaign(state.campaign)
    return run_campaign(
        spec,
        runner=runner,
        ledger=ledger,
        run_id=run_id,
        resume=True,
        log=log,
        replayed_state=state,
        sinks=sinks,
    )
