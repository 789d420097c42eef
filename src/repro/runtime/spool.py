"""Filesystem job spool: a crash-tolerant work-stealing queue for fleet runs.

The spool turns any shared directory (local disk for N processes, NFS or a
shared volume for N hosts) into a job queue that independent ``msropm fleet
worker`` processes drain cooperatively.  It is built entirely on two POSIX
primitives — atomic ``rename`` within one filesystem and write-to-temp +
``rename`` publication — so there is no broker, no locks, and no state that
a ``kill -9`` can corrupt:

``pending/<hash>.job``
    One pickled :class:`~repro.runtime.jobs.Job` per file, named by the job's
    content hash.  Enqueueing is idempotent: a hash that is already pending,
    claimed, or answered is never written twice.
``active/<hash>.job``
    A *claim*: workers claim a job by renaming it out of ``pending/`` —
    ``rename`` is atomic, so exactly one worker wins and the losers simply
    move on.  The claim file's mtime is the lease timestamp: a claim older
    than the lease timeout belongs to a dead (or wedged) worker and any
    scanning worker may *reclaim* it by renaming it back to ``pending/``.
    Jobs are idempotent pure functions of their content, so the rare double
    execution a reclaim race allows is safe — both executions produce the
    same payload and result publication is last-writer-wins with identical
    bytes.
``results/<hash[:2]>/<hash>.json``
    The job's JSON payload (the same persisted form the result cache and the
    process pool use), published atomically.  A result's existence is the
    *only* completion signal; claims and pending files are just scheduling
    state and can be regenerated from scratch.

Workers execute jobs with the same environment as local pool workers
(:mod:`repro.runtime.worker_env`: BLAS thread caps + solver pre-import), so a
payload is byte-identical no matter which topology produced it — the property
the cross-topology bit-identity tests and the ``fleet-smoke`` CI job pin.

Security note: job files are pickles; a spool directory must only be shared
between mutually trusting processes (the same trust boundary as the result
cache it feeds).
"""

from __future__ import annotations

import json
import os
import pickle
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.exceptions import ConfigurationError, ReproError
from repro.obs.metrics import get_metrics
from repro.runtime.atomic import write_atomic_bytes
from repro.runtime.jobs import Job
from repro.runtime.worker_env import WORKER_THREAD_CAPS, _execute_job, _worker_init

#: Version of the spool directory layout and envelope formats.
SPOOL_SCHEMA_VERSION = 1

#: Default seconds before an unrefreshed claim counts as abandoned.
DEFAULT_LEASE_TIMEOUT = 30.0

#: Default seconds between idle scans of the spool.
DEFAULT_POLL_INTERVAL = 0.05


class SpoolError(ReproError):
    """A spool operation failed (corrupt envelope, failed job, stalled drain)."""


class JobFailedError(SpoolError):
    """A spooled job raised in whichever worker executed it."""


def _write_atomic_bytes(path: Path, data: bytes) -> None:
    """Publish ``data`` at ``path`` via write-to-temp + atomic rename."""
    write_atomic_bytes(path, data)


class JobSpool:
    """One spool directory: enqueue, claim, reclaim, and publish results.

    All methods are safe to call concurrently from any number of processes
    sharing the directory; every cross-process handoff is a single atomic
    rename.

    Parameters
    ----------
    root:
        The spool directory (created on :meth:`ensure`).
    lease_timeout:
        Seconds before a claim with an unrefreshed lease is considered
        abandoned and eligible for reclaim.
    """

    def __init__(
        self, root: Union[str, Path], lease_timeout: float = DEFAULT_LEASE_TIMEOUT
    ) -> None:
        if lease_timeout <= 0:
            raise ConfigurationError(f"lease_timeout must be > 0, got {lease_timeout}")
        self.root = Path(root)
        self.lease_timeout = float(lease_timeout)
        self.pending_dir = self.root / "pending"
        self.active_dir = self.root / "active"
        self.results_dir = self.root / "results"
        self.meta_path = self.root / "spool.json"
        self.stop_path = self.root / "stop"

    # ------------------------------------------------------------------
    def ensure(self) -> None:
        """Create the spool layout (idempotent, safe under contention)."""
        for directory in (self.pending_dir, self.active_dir, self.results_dir):
            directory.mkdir(parents=True, exist_ok=True)
        if not self.meta_path.exists():
            _write_atomic_bytes(
                self.meta_path,
                json.dumps({"spool_schema": SPOOL_SCHEMA_VERSION}).encode("utf-8"),
            )

    @property
    def exists(self) -> bool:
        """Whether the directory has been initialized as a spool."""
        return self.meta_path.is_file()

    # ------------------------------------------------------------------
    # Enqueue / results
    # ------------------------------------------------------------------
    def result_path(self, job_hash: str) -> Path:
        """The published-result path for a job hash (hash-sharded)."""
        return self.results_dir / job_hash[:2] / f"{job_hash}.json"

    def has_result(self, job_hash: str) -> bool:
        """Whether a result (success or recorded failure) was published."""
        return self.result_path(job_hash).is_file()

    def enqueue(self, job: Job) -> bool:
        """Queue one cacheable job; returns whether a new file was written.

        Idempotent by content hash: a job that is already pending, claimed,
        or answered is skipped.  (A benign race where two submitters both
        write the same hash resolves to identical pending files.)  A recorded
        *failure* result is cleared and the job queued again: resubmission is
        the retry, and without this a transient failure would poison the hash
        for the spool's lifetime.
        """
        job_hash = job.job_hash  # raises for uncacheable jobs, by design
        try:
            answered = self.has_result(job_hash)
        except OSError:  # pragma: no cover - transient filesystem error
            answered = False
        if answered:
            try:
                self.load_result(job_hash)
            except JobFailedError:
                self.result_path(job_hash).unlink(missing_ok=True)
                answered = False
            except SpoolError:
                self.result_path(job_hash).unlink(missing_ok=True)
                answered = False
        if (
            answered
            or (self.pending_dir / f"{job_hash}.job").exists()
            or (self.active_dir / f"{job_hash}.job").exists()
        ):
            return False
        _write_atomic_bytes(self.pending_dir / f"{job_hash}.job", pickle.dumps(job))
        get_metrics().inc("spool.enqueued")
        return True

    def store_result(self, job_hash: str, payload: Dict) -> None:
        """Publish a job's payload (atomic; last writer wins, bytes identical)."""
        envelope = {
            "spool_schema": SPOOL_SCHEMA_VERSION,
            "job_hash": job_hash,
            "payload": payload,
        }
        _write_atomic_bytes(
            self.result_path(job_hash), json.dumps(envelope).encode("utf-8")
        )

    def store_failure(self, job_hash: str, error: str) -> None:
        """Publish a job *failure* so the batch fails loudly instead of
        retrying a deterministically-raising job forever across the fleet."""
        envelope = {
            "spool_schema": SPOOL_SCHEMA_VERSION,
            "job_hash": job_hash,
            "error": error,
        }
        _write_atomic_bytes(
            self.result_path(job_hash), json.dumps(envelope).encode("utf-8")
        )

    def load_result(self, job_hash: str) -> Optional[Dict]:
        """Return a published payload, ``None`` if not yet published.

        Raises :class:`JobFailedError` for a published failure and
        :class:`SpoolError` for an unreadable envelope (results are written
        atomically, so corruption means external interference, not a crash).
        """
        path = self.result_path(job_hash)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            envelope = json.loads(text)
            if not isinstance(envelope, dict) or envelope.get("job_hash") != job_hash:
                raise ValueError("envelope mismatch")
        except ValueError as exc:
            raise SpoolError(f"corrupt spool result {path}: {exc}") from None
        if "error" in envelope:
            raise JobFailedError(
                f"spooled job {job_hash[:12]} failed in a worker: {envelope['error']}"
            )
        return envelope.get("payload")

    # ------------------------------------------------------------------
    # Claims and leases
    # ------------------------------------------------------------------
    def claim_next(self) -> Optional[Tuple[str, Path]]:
        """Claim one pending job by atomic rename; ``None`` if nothing pending.

        Exactly one contender wins each file; losers skip to the next.  A
        pending file whose result was already published (a reclaim raced a
        slow-but-alive worker) is discarded rather than claimed.
        """
        try:
            names = sorted(os.listdir(self.pending_dir))
        except OSError:
            return None
        for name in names:
            if not name.endswith(".job"):
                continue
            job_hash = name[: -len(".job")]
            source = self.pending_dir / name
            target = self.active_dir / name
            if self.has_result(job_hash):
                source.unlink(missing_ok=True)
                continue
            try:
                os.rename(source, target)
            except OSError:
                continue  # another worker won this file
            now = time.time()
            try:
                os.utime(target, (now, now))  # the claim's lease timestamp
            except OSError:
                pass
            get_metrics().inc("spool.claims")
            return job_hash, target
        return None

    def release(self, job_hash: str) -> None:
        """Drop a claim (after publishing its result, or on discard)."""
        (self.active_dir / f"{job_hash}.job").unlink(missing_ok=True)

    def reclaim_expired(self) -> int:
        """Return expired claims to ``pending/``; returns how many moved.

        A claim whose lease timestamp is older than the lease timeout belongs
        to a worker that died (or wedged) mid-job.  Renaming it back to
        ``pending/`` is atomic, so when several workers scan at once exactly
        one performs each reclaim.  Claims whose results were published while
        the claim lingered are simply dropped.
        """
        try:
            names = os.listdir(self.active_dir)
        except OSError:
            return 0
        deadline = time.time() - self.lease_timeout
        reclaimed = 0
        for name in names:
            if not name.endswith(".job"):
                continue
            job_hash = name[: -len(".job")]
            path = self.active_dir / name
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue  # released or reclaimed by someone else meanwhile
            if mtime > deadline:
                continue
            if self.has_result(job_hash):
                path.unlink(missing_ok=True)
                continue
            try:
                os.rename(path, self.pending_dir / name)
            except OSError:
                continue
            reclaimed += 1
        if reclaimed:
            get_metrics().inc("spool.reclaims", reclaimed)
        return reclaimed

    def load_job(self, path: Path) -> Job:
        """Unpickle a claimed job file."""
        try:
            with open(path, "rb") as handle:
                job = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, AttributeError, ImportError) as exc:
            raise SpoolError(f"unreadable spool job {path}: {exc}") from exc
        if not isinstance(job, Job):
            raise SpoolError(f"spool file {path} does not contain a Job")
        return job

    # ------------------------------------------------------------------
    # Coordination
    # ------------------------------------------------------------------
    @property
    def stop_requested(self) -> bool:
        """Whether a ``fleet stop`` marker asks waiting workers to exit."""
        return self.stop_path.exists()

    def request_stop(self) -> None:
        """Ask all waiting workers on this spool to exit after their job."""
        self.ensure()
        _write_atomic_bytes(self.stop_path, b"stop\n")

    def clear_stop(self) -> None:
        """Remove the stop marker so new workers keep waiting."""
        self.stop_path.unlink(missing_ok=True)

    def counts(self) -> Dict[str, int]:
        """Pending/active/result file counts (the ``fleet status`` view)."""

        def _count(directory: Path, suffix: str) -> int:
            try:
                return sum(
                    1
                    for _, _, files in os.walk(directory)
                    for name in files
                    if name.endswith(suffix)
                )
            except OSError:
                return 0

        return {
            "pending": _count(self.pending_dir, ".job"),
            "active": _count(self.active_dir, ".job"),
            "results": _count(self.results_dir, ".json"),
        }


class SpoolWorker:
    """One drain loop over a :class:`JobSpool`: claim, execute, publish.

    This is both the body of the ``msropm fleet worker`` CLI process and the
    in-process participant the :class:`~repro.runtime.executors.SpoolExecutorBackend`
    submitter runs while it waits — the two are literally the same code, so a
    batch finishes identically whether the submitter drained it alone or a
    fleet helped.

    Parameters
    ----------
    spool:
        The spool to drain.
    wait:
        ``False`` (drain mode): exit once the spool holds no pending *and* no
        active work.  ``True`` (fleet mode): keep polling for new work until a
        stop marker appears (or ``idle_timeout`` elapses, if set).
    idle_timeout:
        Optional seconds of continuous idleness after which the loop exits
        regardless of mode.
    max_jobs:
        Optional cap on executed jobs (test hook).
    poll_interval:
        Sleep between idle scans.
    log:
        Optional per-event line sink (the CLI passes ``print``).
    """

    def __init__(
        self,
        spool: JobSpool,
        wait: bool = False,
        idle_timeout: Optional[float] = None,
        max_jobs: Optional[int] = None,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.spool = spool
        self.wait = wait
        self.idle_timeout = idle_timeout
        self.max_jobs = max_jobs
        self.poll_interval = poll_interval
        self.log = log or (lambda message: None)
        self.executed = 0
        self.failed = 0
        self.reclaimed = 0

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Claim and execute at most one job; returns whether one ran.

        A job that raises publishes a *failure* result (so every consumer of
        the spool fails loudly instead of the fleet retrying a deterministic
        error forever) and still counts as progress.
        """
        claimed = self.spool.claim_next()
        if claimed is None:
            return False
        job_hash, path = claimed
        try:
            job = self.spool.load_job(path)
            payload = _execute_job(job)
        except Exception as exc:  # noqa: BLE001 — publish, don't crash the loop
            self.spool.store_failure(job_hash, f"{type(exc).__name__}: {exc}")
            self.failed += 1
            self.log(f"job {job_hash[:12]} failed: {exc}")
        else:
            self.spool.store_result(job_hash, payload)
            self.executed += 1
            self.log(f"job {job_hash[:12]} done ({job.label})")
        finally:
            self.spool.release(job_hash)
        return True

    def run(self) -> Dict[str, int]:
        """Drain the spool per the worker's mode; returns execution counters."""
        self.spool.ensure()
        idle_since = time.monotonic()
        while True:
            if self.max_jobs is not None and self.executed + self.failed >= self.max_jobs:
                break
            if self.spool.stop_requested:
                self.log("stop requested")
                break
            if self.step():
                idle_since = time.monotonic()
                continue
            reclaimed = self.spool.reclaim_expired()
            if reclaimed:
                self.reclaimed += reclaimed
                self.log(f"reclaimed {reclaimed} expired claim(s)")
                idle_since = time.monotonic()
                continue
            counts = self.spool.counts()
            drained = counts["pending"] == 0 and counts["active"] == 0
            if not self.wait and drained:
                break
            if (
                self.idle_timeout is not None
                and time.monotonic() - idle_since >= self.idle_timeout
            ):
                self.log("idle timeout")
                break
            time.sleep(self.poll_interval)
        return {
            "executed": self.executed,
            "failed": self.failed,
            "reclaimed": self.reclaimed,
        }


def run_fleet_worker(
    spool_dir: Union[str, Path],
    wait: bool = False,
    idle_timeout: Optional[float] = None,
    max_jobs: Optional[int] = None,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    thread_caps: Optional[Dict[str, str]] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, int]:
    """Entry point of ``msropm fleet worker``: prepare the environment and drain.

    The worker process is prepared exactly like a local pool worker
    (:func:`repro.runtime.worker_env._worker_init`): BLAS/OpenMP capped to one
    thread (pass ``thread_caps={}`` to opt out) and the solver stack
    pre-imported, so per-job behavior — and therefore every payload byte — is
    topology-independent.
    """
    caps = WORKER_THREAD_CAPS if thread_caps is None else thread_caps
    _worker_init(dict(caps))
    worker = SpoolWorker(
        JobSpool(spool_dir, lease_timeout=lease_timeout),
        wait=wait,
        idle_timeout=idle_timeout,
        max_jobs=max_jobs,
        poll_interval=poll_interval,
        log=log,
    )
    return worker.run()
