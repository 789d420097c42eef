"""Executor backends: pluggable strategies for running batches of jobs.

The :class:`~repro.runtime.scheduler.JobScheduler` used to *be* a process
pool; it is now a thin facade over an :class:`ExecutorBackend`, the interface
this module defines.  A backend receives a batch of
:class:`~repro.runtime.jobs.Job` values and returns their JSON payloads in
submission order — nothing else.  Because every job is a pure function of its
content (seeds included) and payloads are the persisted form shared with the
result cache, *where* the jobs ran is unobservable in the results: the
invariant the backends are tested against is bit-identity across topologies
(serial ≡ local pool ≡ N fleet processes draining one spool).

Two backends ship:

:class:`LocalPoolExecutorBackend`
    The default — the warm :class:`~concurrent.futures.ProcessPoolExecutor`
    with thread-capped, pre-imported workers.  New here: a batch that dies to
    :class:`BrokenProcessPool` (one OOM-killed or crashed worker poisons the
    whole executor) is retried once on a fresh pool before the error
    propagates, which jobs' idempotence makes safe.

:class:`SpoolExecutorBackend`
    Fleet execution over a shared filesystem spool
    (:mod:`repro.runtime.spool`).  The submitter enqueues the batch, then
    *participates* in draining it while it waits, so a batch always completes
    even if no external worker ever attaches and even if every helper is
    killed mid-drain (expired claims are reclaimed).  ``workers=N`` spawns
    ``N-1`` local ``msropm fleet worker`` child processes so one host matches
    the local pool's parallelism; any number of additional workers — other
    processes, other hosts on a shared mount — can join the same spool via
    the CLI.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.engine import cap_replica_threads
from repro.exceptions import ConfigurationError
from repro.obs.metrics import get_metrics
from repro.runtime.jobs import Job
from repro.runtime.spool import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_POLL_INTERVAL,
    JobSpool,
    SpoolError,
    SpoolWorker,
)
from repro.runtime.worker_env import WORKER_THREAD_CAPS, _execute_job, _worker_init

#: Registered executor backend names (the CLI's ``--executor`` choices).
EXECUTOR_NAMES = ("local", "spool")

#: Per-job completion callback: invoked once per job as its payload becomes
#: available, in whatever order the backend observes completions.  Callbacks
#: are observability hooks — they must not raise, and backends may re-invoke
#: them for the same job after an internal retry (consumers deduplicate by
#: job hash).
ProgressCallback = Callable[[Job], None]


class ExecutorBackend(ABC):
    """Strategy interface: execute a batch of jobs, return payloads in order.

    Implementations may keep warm state between batches (a process pool, a
    set of spawned fleet workers); :meth:`close` releases it.  Backends always
    traffic in *payloads* (each job's JSON wire form) — decoding back to rich
    results is the scheduler's (single, shared) responsibility, which is what
    keeps a result identical no matter which backend produced it.
    """

    #: Registry name of the backend (shows up in stats and benchmarks).
    name: str = "backend"

    #: Worker parallelism the backend was configured for.
    workers: int = 1

    @abstractmethod
    def run_payloads(
        self, jobs: Sequence[Job], progress: Optional[ProgressCallback] = None
    ) -> List[Dict]:
        """Execute ``jobs``, returning one payload per job in submission order.

        ``progress`` (optional) is invoked once per job as its payload lands,
        giving callers per-job granularity without waiting for the batch.
        """

    def close(self) -> None:
        """Release any warm execution state (idempotent)."""

    def abort(self) -> None:
        """Release state without blocking (garbage-collection path).

        Defaults to :meth:`close`; backends whose close waits on workers
        override this with a non-blocking teardown.
        """
        self.close()


class LocalPoolExecutorBackend(ExecutorBackend):
    """The default backend: a warm local process pool (plus serial fast path).

    Behavior is identical to the pre-refactor ``JobScheduler`` with one
    addition: a :class:`BrokenProcessPool` batch is retried once on a fresh
    pool.  A single dead worker (OOM kill, segfaulting BLAS, an ``os._exit``
    in job code) poisons the entire executor mid-``map``; since jobs are
    idempotent and content-hashed, rerunning the whole batch is safe and turns
    a one-off worker death from a run-killing error into a logged hiccup.
    A batch that breaks the *fresh* pool too propagates the error — that is a
    systematic failure, not a hiccup.
    """

    name = "local"

    def __init__(self, workers: int = 1, thread_caps: Optional[Dict[str, str]] = None) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.thread_caps = dict(WORKER_THREAD_CAPS) if thread_caps is None else dict(thread_caps)
        self._pool: Optional[ProcessPoolExecutor] = None
        self.pools_started = 0
        #: Batches rerun on a fresh pool after a BrokenProcessPool.
        self.broken_pool_retries = 0

    # ------------------------------------------------------------------
    @property
    def pool_active(self) -> bool:
        """Whether a warm worker pool is currently alive."""
        return self._pool is not None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The backend's persistent pool (created on first use)."""
        if self._pool is None:
            # Default the caps in the parent too: children inherit the
            # environment before importing numpy under spawn/forkserver, which
            # is the only reliable moment to cap OpenBLAS/MKL threads.
            for name, value in self.thread_caps.items():
                os.environ.setdefault(name, value)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_worker_init,
                initargs=(self.thread_caps,),
            )
            self.pools_started += 1
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a (possibly poisoned) pool without waiting on its workers."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None

    abort = _discard_pool

    def close(self) -> None:
        """Shut the warm pool down (idempotent); a later batch restarts it."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    def _map_batch(
        self, jobs: Sequence[Job], progress: Optional[ProgressCallback] = None
    ) -> List[Dict]:
        # Without an explicit chunksize, pool.map ships jobs one at a time and
        # a scenario matrix of many small jobs serializes on IPC round-trips.
        # Target ~4 chunks per worker: big enough to amortize pickling, small
        # enough to balance uneven job costs.  map() returns results in
        # submission order regardless of chunking, preserving determinism.
        chunksize = max(1, len(jobs) // (self.workers * 4))
        pool = self._ensure_pool()
        # Consume the map iterator lazily: payloads surface (in submission
        # order) as their chunks complete, so progress fires per job during
        # the batch rather than all at once after it.
        payloads: List[Dict] = []
        for job, payload in zip(jobs, pool.map(_execute_job, jobs, chunksize=chunksize)):
            payloads.append(payload)
            if progress is not None:
                progress(job)
        return payloads

    def run_payloads(
        self, jobs: Sequence[Job], progress: Optional[ProgressCallback] = None
    ) -> List[Dict]:
        if self.workers == 1 or len(jobs) == 1:
            payloads = []
            for job in jobs:
                payloads.append(_execute_job(job))
                if progress is not None:
                    progress(job)
            return payloads
        try:
            return self._map_batch(jobs, progress)
        except BrokenProcessPool:
            # One dead worker poisons the whole executor and loses the entire
            # batch's in-flight results.  Jobs are idempotent, so retry the
            # batch once on a fresh pool before giving up.  A retried batch
            # may re-report progress for jobs the first attempt already
            # announced; progress consumers deduplicate by job hash.
            self._discard_pool()
            self.broken_pool_retries += 1
            get_metrics().inc("executor.broken_pool_retries")
            try:
                return self._map_batch(jobs, progress)
            except BrokenProcessPool:
                # Workers died again on a clean pool: systematic, propagate —
                # and drop the poisoned pool so a later batch starts fresh.
                self._discard_pool()
                raise


class SpoolExecutorBackend(ExecutorBackend):
    """Fleet backend: drain batches through a shared filesystem spool.

    ``workers`` is the *local* drain parallelism: the submitting process
    itself (which claims and executes jobs while it waits for results) plus
    ``workers - 1`` spawned ``msropm fleet worker`` child processes.  The
    children are warm — spawned on the first batch, reused by later batches,
    terminated by :meth:`close` — mirroring the local pool's lifecycle.
    External workers started independently (``msropm fleet worker <dir>``,
    possibly on other hosts sharing the mount) steal from the same spool.

    Completion needs no cooperation: the submitter keeps draining and
    reclaiming expired claims itself, so a batch finishes (with bit-identical
    results) even if every helper process is killed mid-drain.  While
    spawned children drain beside it, the submitter's own solves run on one
    replica thread, like the children's.

    Only content-hashed (cacheable) jobs travel through the spool; the rare
    uncacheable job (e.g. a seedless ensemble draw) runs inline in the
    submitter, preserving submission order either way.
    """

    name = "spool"

    def __init__(
        self,
        spool_dir: Union[str, Path],
        workers: int = 1,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        spawn_workers: Optional[int] = None,
        participate: bool = True,
        drain_timeout: Optional[float] = None,
        thread_caps: Optional[Dict[str, str]] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if not participate and spawn_workers == 0 and drain_timeout is None:
            raise ConfigurationError(
                "a non-participating spool backend with no spawned workers "
                "needs a drain_timeout (otherwise a batch with no external "
                "workers would wait forever)"
            )
        self.spool = JobSpool(spool_dir, lease_timeout=lease_timeout)
        self.workers = workers
        self.poll_interval = poll_interval
        self.participate = participate
        self.drain_timeout = drain_timeout
        self.spawn_workers = workers - 1 if spawn_workers is None else spawn_workers
        self.thread_caps = dict(WORKER_THREAD_CAPS) if thread_caps is None else dict(thread_caps)
        self._children: List[subprocess.Popen] = []
        self._participant = SpoolWorker(self.spool, poll_interval=poll_interval)
        #: Jobs this process executed itself while waiting.
        self.jobs_executed_locally = 0
        #: Jobs whose payloads came back from other workers (or prior runs).
        self.jobs_stolen = 0
        self.children_spawned = 0

    # ------------------------------------------------------------------
    def _ensure_children(self) -> None:
        """Spawn (or respawn) the configured warm fleet worker children."""
        self._children = [child for child in self._children if child.poll() is None]
        missing = self.spawn_workers - len(self._children)
        if missing <= 0:
            return
        # Children must resolve `repro` exactly like this process does, no
        # matter the caller's cwd: ship the absolute import path explicitly.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(p).resolve()) for p in sys.path if p]
        )
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "fleet",
            "worker",
            str(self.spool.root),
            "--wait",
            "--lease-timeout",
            str(self.spool.lease_timeout),
            "--poll-interval",
            str(self.poll_interval),
        ]
        for _ in range(missing):
            # Silence the children: their progress lines must never interleave
            # with the submitter's report output (byte-identity contract).
            self._children.append(
                subprocess.Popen(
                    command,
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            )
            self.children_spawned += 1

    def close(self) -> None:
        """Terminate spawned fleet children (external workers are untouched)."""
        for child in self._children:
            if child.poll() is None:
                child.terminate()
        for child in self._children:
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        self._children = []

    # ------------------------------------------------------------------
    def run_payloads(
        self, jobs: Sequence[Job], progress: Optional[ProgressCallback] = None
    ) -> List[Dict]:
        self.spool.ensure()
        payloads: Dict[int, Dict] = {}
        positions: Dict[str, List[int]] = {}
        inline: List[int] = []
        for index, job in enumerate(jobs):
            if job.cacheable:
                positions.setdefault(job.job_hash, []).append(index)
            else:
                inline.append(index)

        locally_before = self._participant.executed
        for index, job in enumerate(jobs):
            if job.cacheable and index == positions[job.job_hash][0]:
                self.spool.enqueue(job)
        if self.spawn_workers:
            self._ensure_children()

        missing = set(positions)
        deadline = (
            None if self.drain_timeout is None else time.monotonic() + self.drain_timeout
        )
        # While spawned children drain beside it, the submitter is one worker
        # among them: one replica thread, like theirs.
        previous_cap = cap_replica_threads(1) if self.spawn_workers else None
        try:
            while missing:
                progressed = False
                for job_hash in sorted(missing):
                    payload = self.spool.load_result(job_hash)
                    if payload is not None:
                        for index in positions[job_hash]:
                            payloads[index] = payload
                            if progress is not None:
                                progress(jobs[index])
                        missing.discard(job_hash)
                        progressed = True
                if not missing:
                    break
                if self.participate and self._participant.step():
                    progressed = True
                if self.spool.reclaim_expired():
                    progressed = True
                if progressed:
                    if deadline is not None:
                        deadline = time.monotonic() + self.drain_timeout
                    continue
                if deadline is not None and time.monotonic() >= deadline:
                    raise SpoolError(
                        f"spool drain stalled: {len(missing)} job(s) still "
                        f"unanswered after {self.drain_timeout}s without progress"
                    )
                time.sleep(self.poll_interval)
        finally:
            if self.spawn_workers:
                cap_replica_threads(previous_cap)

        executed = self._participant.executed - locally_before
        self.jobs_executed_locally += executed
        stolen = max(0, len(positions) - executed)
        self.jobs_stolen += stolen
        metrics = get_metrics()
        metrics.inc("spool.jobs_executed_locally", executed)
        metrics.inc("spool.jobs_stolen", stolen)

        # Uncacheable jobs have no content hash to key spool files by; they
        # run inline (matching the serial path bit for bit).
        for index in inline:
            payloads[index] = _execute_job(jobs[index])
            if progress is not None:
                progress(jobs[index])
        return [payloads[index] for index in range(len(jobs))]


def make_backend(
    executor: str,
    workers: int = 1,
    spool_dir: Optional[Union[str, Path]] = None,
    **options,
) -> ExecutorBackend:
    """Build a registered executor backend by name.

    ``options`` are forwarded to the backend constructor (e.g.
    ``lease_timeout`` for ``spool``); unknown executors and a ``spool``
    request without a spool directory are configuration errors.
    """
    if executor == "local":
        return LocalPoolExecutorBackend(workers=workers, **options)
    if executor == "spool":
        if spool_dir is None:
            raise ConfigurationError(
                "the spool executor needs a spool directory (--spool-dir)"
            )
        return SpoolExecutorBackend(spool_dir, workers=workers, **options)
    raise ConfigurationError(
        f"unknown executor {executor!r}; registered: {', '.join(EXECUTOR_NAMES)}"
    )
