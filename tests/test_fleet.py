"""Tests for fleet execution: executor backends, the job spool, the artifact
store, and their CLI.

The load-bearing invariant is *bit-identity across topologies*: the same jobs
must produce byte-identical payloads (and therefore identical reports) whether
they ran serially, on a local process pool, or were stolen from a shared
filesystem spool by any number of concurrent workers — including workers that
were SIGKILLed mid-job and had their claims reclaimed.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tarfile
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.circuit.control import TimingPlan
from repro.core.config import MSROPMConfig
from repro.core.engine import replica_thread_budget
from repro.exceptions import ConfigurationError
from repro.runtime.cache import CACHE_SCHEMA_VERSION, ResultCache, integrity_hash
from repro.runtime.executors import (
    LocalPoolExecutorBackend,
    SpoolExecutorBackend,
    make_backend,
)
from repro.runtime.jobs import Job, KingsGraphSpec, SolveJob
from repro.runtime.scheduler import JobScheduler
from repro.runtime.spool import (
    JobFailedError,
    JobSpool,
    SpoolError,
    SpoolWorker,
    run_fleet_worker,
)
from repro.units import ns

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker-process tests rely on fork inheriting the loaded test module",
)


# ----------------------------------------------------------------------
# Cheap test jobs (picklable module-level value objects, per the protocol)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AddJob(Job):
    """A trivially-verifiable cacheable job: payload is the sum of two ints."""

    a: int
    b: int

    job_kind = "test-add"

    @property
    def cacheable(self) -> bool:
        return True

    def describe(self):
        return {"job_kind": self.job_kind, "a": self.a, "b": self.b}

    @property
    def label(self) -> str:
        return f"add-{self.a}-{self.b}"

    def execute(self):
        return {"sum": self.a + self.b}

    def decode(self, payload):
        return payload


@dataclass(frozen=True)
class FailJob(Job):
    """A job that deterministically raises in whichever worker runs it."""

    token: int = 0

    job_kind = "test-fail"

    @property
    def cacheable(self) -> bool:
        return True

    def describe(self):
        return {"job_kind": self.job_kind, "token": self.token}

    @property
    def label(self) -> str:
        return f"fail-{self.token}"

    def execute(self):
        raise ValueError("deliberate test failure")

    def decode(self, payload):
        return payload


@dataclass(frozen=True)
class UnhashedJob(Job):
    """An uncacheable job (no content hash): must run inline in the submitter."""

    job_kind = "test-unhashed"

    @property
    def cacheable(self) -> bool:
        return False

    def describe(self):
        return {"job_kind": self.job_kind}

    @property
    def label(self) -> str:
        return "unhashed"

    def execute(self):
        return {"value": 42}

    def decode(self, payload):
        return payload


@dataclass(frozen=True)
class CrashOnceJob(Job):
    """Kills its worker process the first time it runs (sentinel-gated).

    Models a one-off worker death (OOM kill, segfault): the first execution
    writes the sentinel and dies, poisoning the pool; the retried batch finds
    the sentinel and succeeds.
    """

    sentinel: str
    token: int = 0

    job_kind = "test-crash-once"

    @property
    def cacheable(self) -> bool:
        return True

    def describe(self):
        return {"job_kind": self.job_kind, "sentinel": self.sentinel, "token": self.token}

    @property
    def label(self) -> str:
        return f"crash-once-{self.token}"

    def execute(self):
        path = Path(self.sentinel)
        if not path.exists():
            path.write_text("died", encoding="utf-8")
            os._exit(1)
        return {"token": self.token}

    def decode(self, payload):
        return payload


@dataclass(frozen=True)
class BudgetJob(Job):
    """Reports the replica-thread budget of the process that executes it."""

    token: int

    job_kind = "test-budget"

    @property
    def cacheable(self) -> bool:
        return True

    def describe(self):
        return {"job_kind": self.job_kind, "token": self.token}

    @property
    def label(self) -> str:
        return f"budget-{self.token}"

    def execute(self):
        return {"budget": replica_thread_budget(), "pid": os.getpid()}

    def decode(self, payload):
        return payload


def _solve_jobs(seeds, iterations=2):
    """Real MSROPM solves, small enough to keep the fleet tests quick."""
    config = MSROPMConfig(
        num_colors=4,
        timing=TimingPlan(initialization=ns(1.0), annealing=ns(6.0), shil_settling=ns(2.0)),
        time_step=0.05e-9,
        seed=4321,
    )
    return [
        SolveJob(spec=KingsGraphSpec(4, 4), config=config, seed=seed, total_iterations=iterations)
        for seed in seeds
    ]


def _fingerprint(results):
    return [
        [
            (item.iteration_index, item.seed, item.accuracy, item.coloring.assignment)
            for item in result.iterations
        ]
        for result in results
    ]


# ----------------------------------------------------------------------
# Worker-process entry points (must be module-level for multiprocessing)
# ----------------------------------------------------------------------
def _fleet_drain(spool_dir):
    """Body of an external fleet worker: poll until stop or idle timeout."""
    run_fleet_worker(spool_dir, wait=True, idle_timeout=30.0, poll_interval=0.01)


def _claim_and_hang(spool_dir, ready_path):
    """Claim one job, report the claim, then hang until killed."""
    spool = JobSpool(spool_dir)
    claimed = spool.claim_next()
    Path(ready_path).write_text(claimed[0] if claimed else "none", encoding="utf-8")
    time.sleep(300)


# ----------------------------------------------------------------------
# JobSpool mechanics
# ----------------------------------------------------------------------
class TestJobSpool:
    def test_enqueue_is_idempotent_by_hash(self, tmp_path):
        spool = JobSpool(tmp_path / "spool")
        spool.ensure()
        job = AddJob(1, 2)
        assert spool.enqueue(job) is True
        assert spool.enqueue(AddJob(1, 2)) is False  # same content hash
        assert spool.counts()["pending"] == 1

    def test_claim_is_exclusive_and_result_publishes(self, tmp_path):
        spool = JobSpool(tmp_path / "spool")
        spool.ensure()
        job = AddJob(3, 4)
        spool.enqueue(job)
        claimed = spool.claim_next()
        assert claimed is not None
        job_hash, path = claimed
        assert job_hash == job.job_hash
        assert spool.claim_next() is None  # the only pending file is claimed
        loaded = spool.load_job(path)
        spool.store_result(job_hash, loaded.execute())
        spool.release(job_hash)
        assert spool.load_result(job_hash) == {"sum": 7}
        assert spool.counts() == {"pending": 0, "active": 0, "results": 1}

    def test_claim_discards_pending_with_published_result(self, tmp_path):
        spool = JobSpool(tmp_path / "spool")
        spool.ensure()
        job = AddJob(5, 6)
        spool.enqueue(job)
        spool.store_result(job.job_hash, {"sum": 11})
        assert spool.claim_next() is None
        assert spool.counts()["pending"] == 0  # the stale pending file is gone

    def test_failure_envelope_raises_and_reenqueue_clears_it(self, tmp_path):
        spool = JobSpool(tmp_path / "spool")
        spool.ensure()
        job = AddJob(7, 8)
        spool.store_failure(job.job_hash, "ValueError: boom")
        with pytest.raises(JobFailedError, match="boom"):
            spool.load_result(job.job_hash)
        # Resubmission is the retry: the failure record must not poison the
        # hash forever.
        assert spool.enqueue(job) is True
        assert spool.load_result(job.job_hash) is None
        assert spool.counts()["pending"] == 1

    def test_corrupt_result_raises_and_reenqueue_clears_it(self, tmp_path):
        spool = JobSpool(tmp_path / "spool")
        spool.ensure()
        job = AddJob(9, 10)
        path = spool.result_path(job.job_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(SpoolError):
            spool.load_result(job.job_hash)
        assert spool.enqueue(job) is True
        assert spool.counts() == {"pending": 1, "active": 0, "results": 0}

    def test_reclaim_returns_only_expired_claims(self, tmp_path):
        spool = JobSpool(tmp_path / "spool", lease_timeout=60.0)
        spool.ensure()
        job = AddJob(11, 12)
        spool.enqueue(job)
        job_hash, path = spool.claim_next()
        assert spool.reclaim_expired() == 0  # fresh lease: not reclaimable
        stale = time.time() - 120.0
        os.utime(path, (stale, stale))
        assert spool.reclaim_expired() == 1
        assert spool.counts() == {"pending": 1, "active": 0, "results": 0}
        # The reclaimed job is claimable (and executable) again.
        assert spool.claim_next() is not None

    def test_expired_claim_with_result_is_dropped_not_reclaimed(self, tmp_path):
        spool = JobSpool(tmp_path / "spool", lease_timeout=60.0)
        spool.ensure()
        job = AddJob(13, 14)
        spool.enqueue(job)
        job_hash, path = spool.claim_next()
        spool.store_result(job_hash, {"sum": 27})
        stale = time.time() - 120.0
        os.utime(path, (stale, stale))
        assert spool.reclaim_expired() == 0
        assert spool.counts() == {"pending": 0, "active": 0, "results": 1}

    def test_stop_marker_roundtrip(self, tmp_path):
        spool = JobSpool(tmp_path / "spool")
        assert not spool.stop_requested
        spool.request_stop()
        assert spool.stop_requested
        spool.clear_stop()
        assert not spool.stop_requested

    def test_lease_timeout_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JobSpool(tmp_path / "spool", lease_timeout=0)


class TestSpoolWorker:
    def test_drain_mode_executes_everything_and_exits(self, tmp_path):
        spool = JobSpool(tmp_path / "spool")
        spool.ensure()
        jobs = [AddJob(i, 1) for i in range(3)]
        for job in jobs:
            spool.enqueue(job)
        counters = SpoolWorker(spool, poll_interval=0.01).run()
        assert counters == {"executed": 3, "failed": 0, "reclaimed": 0}
        for job in jobs:
            assert spool.load_result(job.job_hash) == job.execute()
        assert spool.counts() == {"pending": 0, "active": 0, "results": 3}

    def test_raising_job_publishes_failure_and_loop_survives(self, tmp_path):
        spool = JobSpool(tmp_path / "spool")
        spool.ensure()
        spool.enqueue(FailJob())
        spool.enqueue(AddJob(20, 22))
        counters = SpoolWorker(spool, poll_interval=0.01).run()
        assert counters["executed"] == 1
        assert counters["failed"] == 1
        with pytest.raises(JobFailedError, match="deliberate test failure"):
            spool.load_result(FailJob().job_hash)
        assert spool.load_result(AddJob(20, 22).job_hash) == {"sum": 42}

    def test_wait_mode_exits_on_stop_marker(self, tmp_path):
        spool = JobSpool(tmp_path / "spool")
        spool.request_stop()
        counters = SpoolWorker(spool, wait=True, poll_interval=0.01).run()
        assert counters == {"executed": 0, "failed": 0, "reclaimed": 0}

    def test_max_jobs_caps_the_run(self, tmp_path):
        spool = JobSpool(tmp_path / "spool")
        spool.ensure()
        for i in range(3):
            spool.enqueue(AddJob(i, 100))
        counters = SpoolWorker(spool, max_jobs=2, poll_interval=0.01).run()
        assert counters["executed"] == 2
        assert spool.counts()["pending"] == 1


# ----------------------------------------------------------------------
# Executor backends
# ----------------------------------------------------------------------
class TestExecutorBackends:
    def test_make_backend_registry(self, tmp_path):
        assert make_backend("local", workers=2).name == "local"
        assert make_backend("spool", workers=1, spool_dir=tmp_path / "s").name == "spool"
        with pytest.raises(ConfigurationError):
            make_backend("spool", workers=1)  # spool needs a directory
        with pytest.raises(ConfigurationError):
            make_backend("teleport", workers=1)
        with pytest.raises(ConfigurationError):
            make_backend("local", workers=0)

    def test_spool_backend_submitter_drains_alone(self, tmp_path):
        backend = SpoolExecutorBackend(tmp_path / "spool", workers=1, poll_interval=0.01)
        jobs = [AddJob(i, i) for i in range(4)]
        payloads = backend.run_payloads(jobs)
        assert payloads == [{"sum": 0}, {"sum": 2}, {"sum": 4}, {"sum": 6}]
        assert backend.jobs_executed_locally == 4
        assert backend.jobs_stolen == 0
        assert backend.children_spawned == 0

    def test_spool_backend_duplicate_hashes_computed_once(self, tmp_path):
        backend = SpoolExecutorBackend(tmp_path / "spool", workers=1, poll_interval=0.01)
        payloads = backend.run_payloads([AddJob(1, 1), AddJob(1, 1), AddJob(2, 2)])
        assert payloads == [{"sum": 2}, {"sum": 2}, {"sum": 4}]
        assert backend.jobs_executed_locally == 2  # two unique hashes

    def test_spool_backend_runs_uncacheable_jobs_inline(self, tmp_path):
        backend = SpoolExecutorBackend(tmp_path / "spool", workers=1, poll_interval=0.01)
        payloads = backend.run_payloads([UnhashedJob(), AddJob(1, 2)])
        assert payloads == [{"value": 42}, {"sum": 3}]
        # The uncacheable job never touched the spool.
        assert backend.spool.counts()["results"] == 1

    def test_spool_backend_surfaces_worker_failures(self, tmp_path):
        backend = SpoolExecutorBackend(tmp_path / "spool", workers=1, poll_interval=0.01)
        with pytest.raises(JobFailedError, match="deliberate test failure"):
            backend.run_payloads([FailJob()])

    def test_non_participating_backend_without_workers_is_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SpoolExecutorBackend(
                tmp_path / "spool", workers=1, spawn_workers=0, participate=False
            )

    def test_batch_results_survive_preexisting_spool_results(self, tmp_path):
        # A second batch over the same spool reuses published results
        # (jobs_stolen counts them) instead of re-executing.
        backend = SpoolExecutorBackend(tmp_path / "spool", workers=1, poll_interval=0.01)
        first = backend.run_payloads([AddJob(6, 6)])
        again = backend.run_payloads([AddJob(6, 6)])
        assert first == again == [{"sum": 12}]
        assert backend.jobs_executed_locally == 1
        assert backend.jobs_stolen == 1

    @fork_only
    def test_broken_pool_batch_is_retried_once(self, tmp_path):
        sentinel = tmp_path / "crashed"
        backend = LocalPoolExecutorBackend(workers=2)
        jobs = [AddJob(i, i) for i in range(3)] + [CrashOnceJob(str(sentinel))]
        try:
            # The crashing job kills its worker mid-batch, poisoning the pool;
            # the one-shot retry on a fresh pool finds the sentinel and
            # completes the whole batch.
            payloads = backend.run_payloads(jobs)
        finally:
            backend.close()
        assert payloads == [{"sum": 0}, {"sum": 2}, {"sum": 4}, {"token": 0}]
        assert sentinel.exists()
        assert backend.broken_pool_retries == 1
        assert backend.pools_started == 2


class TestReplicaThreadBudget:
    """Worker processes solve on one replica thread, like their BLAS pools."""

    @fork_only
    def test_pool_workers_get_one_replica_thread(self):
        backend = LocalPoolExecutorBackend(workers=2)
        try:
            payloads = backend.run_payloads([BudgetJob(token) for token in range(2)])
        finally:
            backend.close()
        assert all(payload["pid"] != os.getpid() for payload in payloads)
        assert [payload["budget"] for payload in payloads] == [1, 1]

    @fork_only
    def test_fleet_worker_child_gets_one_replica_thread(self, tmp_path):
        spool = JobSpool(tmp_path / "spool")
        spool.ensure()
        job = BudgetJob(0)
        spool.enqueue(job)
        child = multiprocessing.Process(target=run_fleet_worker, args=(str(spool.root),))
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        payload = spool.load_result(job.job_hash)
        assert payload["pid"] != os.getpid()
        assert payload["budget"] == 1

    def test_spool_submitter_caps_only_while_children_drain(self, tmp_path, monkeypatch):
        full = replica_thread_budget()
        alone = SpoolExecutorBackend(tmp_path / "alone", workers=1, poll_interval=0.01)
        assert alone.run_payloads([BudgetJob(1)])[0]["budget"] == full
        beside = SpoolExecutorBackend(tmp_path / "beside", workers=2, poll_interval=0.01)
        monkeypatch.setattr(beside, "_ensure_children", lambda: None)  # no real children
        (payload,) = beside.run_payloads([BudgetJob(2)])
        assert payload["pid"] == os.getpid()  # the submitter ran it itself
        assert payload["budget"] == 1
        assert replica_thread_budget() == full  # the cap is lifted afterwards


# ----------------------------------------------------------------------
# Cross-topology bit-identity and crash tolerance
# ----------------------------------------------------------------------
class TestFleetTopologies:
    @fork_only
    def test_serial_pool_and_concurrent_spool_workers_bit_identical(self, tmp_path):
        jobs = _solve_jobs(range(4))
        serial = JobScheduler(workers=1).run(jobs)
        with JobScheduler(workers=2) as pool_scheduler:
            pooled = pool_scheduler.run(_solve_jobs(range(4)))

        spool_dir = tmp_path / "spool"
        JobSpool(spool_dir).ensure()
        workers = [
            multiprocessing.Process(target=_fleet_drain, args=(str(spool_dir),))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        backend = SpoolExecutorBackend(
            spool_dir, workers=1, spawn_workers=0, poll_interval=0.01
        )
        try:
            with JobScheduler(backend=backend) as spool_scheduler:
                spooled = spool_scheduler.run(_solve_jobs(range(4)))
        finally:
            JobSpool(spool_dir).request_stop()
            for worker in workers:
                worker.join(timeout=30)
                if worker.is_alive():  # pragma: no cover - hung helper
                    worker.kill()
                    worker.join()
        assert _fingerprint(serial) == _fingerprint(pooled) == _fingerprint(spooled)
        # Every job is accounted for, wherever it ran.
        assert backend.jobs_executed_locally + backend.jobs_stolen == 4
        # The published payload equals the inline execution's payload, byte
        # for byte in canonical form (JSON round-trips lose tuple-ness only).
        from repro.runtime.jobs import canonical_json

        spool = JobSpool(spool_dir)
        job = jobs[0]
        assert canonical_json(spool.load_result(job.job_hash)) == canonical_json(
            json.loads(json.dumps(job.execute()))
        )

    @fork_only
    def test_lease_expiry_recovers_job_from_killed_worker(self, tmp_path):
        spool_dir = tmp_path / "spool"
        spool = JobSpool(spool_dir, lease_timeout=0.3)
        spool.ensure()
        job = AddJob(2, 3)
        spool.enqueue(job)

        ready = tmp_path / "ready"
        holder = multiprocessing.Process(
            target=_claim_and_hang, args=(str(spool_dir), str(ready))
        )
        holder.start()
        deadline = time.monotonic() + 15
        while not ready.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ready.read_text(encoding="utf-8") == job.job_hash
        holder.kill()  # SIGKILL: dies holding the claim, no cleanup runs
        holder.join()
        assert spool.counts() == {"pending": 0, "active": 1, "results": 0}

        # A later worker must reclaim the expired claim and finish the job.
        counters = SpoolWorker(spool, poll_interval=0.02).run()
        assert counters == {"executed": 1, "failed": 0, "reclaimed": 1}
        assert spool.load_result(job.job_hash) == {"sum": 5}
        counts = spool.counts()
        assert counts["pending"] == 0 and counts["active"] == 0


# ----------------------------------------------------------------------
# Artifact store: integrity, verify, gc, bundles
# ----------------------------------------------------------------------
class TestArtifactStore:
    def _store_with_jobs(self, root, count=2):
        store = ResultCache(root)
        jobs = [AddJob(i, 1) for i in range(count)]
        for job in jobs:
            store.store(job, job.execute())
        return store, jobs

    def _tamper(self, store, job):
        path = store.path_for(job.job_hash)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["result"]["sum"] = 999  # integrity hash now disagrees
        path.write_text(json.dumps(envelope), encoding="utf-8")

    def test_envelopes_carry_integrity_hashes(self, tmp_path):
        store, jobs = self._store_with_jobs(tmp_path / "cache")
        envelope = json.loads(
            store.path_for(jobs[0].job_hash).read_text(encoding="utf-8")
        )
        assert envelope["integrity"] == integrity_hash(envelope["result"])

    def test_tampered_entry_is_a_stale_miss_and_verify_flags_it(self, tmp_path):
        store, jobs = self._store_with_jobs(tmp_path / "cache")
        self._tamper(store, jobs[0])
        assert store.load(jobs[0]) is None
        assert store.stale_misses == 1
        report = store.verify()
        assert report["ok"] == 1 and report["corrupt"] == 1
        assert report["corrupt_entries"][0]["detail"] == "integrity mismatch"
        # Pruning removes the corrupt entry; the sound one survives.
        report = store.verify(prune=True)
        assert report["pruned"] == 1
        assert store.verify() == {
            "ok": 1,
            "stale": 0,
            "corrupt": 0,
            "pruned": 0,
            "corrupt_entries": [],
        }

    def test_gc_sweeps_stale_corrupt_and_unreferenced(self, tmp_path):
        store, jobs = self._store_with_jobs(tmp_path / "cache", count=3)
        self._tamper(store, jobs[0])
        # Backdate one entry to the previous schema: readable, but stale.
        path = store.path_for(jobs[1].job_hash)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["cache_schema"] = CACHE_SCHEMA_VERSION - 1
        path.write_text(json.dumps(envelope), encoding="utf-8")
        removed = store.gc(referenced={jobs[2].job_hash})
        assert removed == {"stale": 1, "corrupt": 1, "unreferenced": 0, "kept": 1}
        assert store.load(jobs[2]) == {"sum": 3}

    def test_gc_drops_unreferenced_results_but_not_payloads(self, tmp_path):
        store, jobs = self._store_with_jobs(tmp_path / "cache", count=2)
        key = integrity_hash({"marker": 1})
        store.store_payload("reference", key, {"marker": 1})
        removed = store.gc(referenced={jobs[0].job_hash})
        assert removed["unreferenced"] == 1
        assert store.load(jobs[0]) == {"sum": 1}
        assert store.load(jobs[1]) is None  # swept
        # Payload namespaces are never reference-GC'd.
        assert store.load_payload("reference", key) == {"marker": 1}

    def test_export_import_roundtrip(self, tmp_path):
        store, jobs = self._store_with_jobs(tmp_path / "cache", count=2)
        key = integrity_hash({"marker": 2})
        store.store_payload("reference", key, {"marker": 2})
        bundle = tmp_path / "bundle.tar.gz"
        manifest = store.export_bundle(bundle)
        assert sorted(manifest["entries"]) == sorted(job.job_hash for job in jobs)
        assert manifest["payloads"] == [{"kind": "reference", "key": key}]

        other = ResultCache(tmp_path / "other")
        counters = other.import_bundle(bundle)
        assert counters == {"imported": 3, "existing": 0, "rejected": 0}
        for job in jobs:
            assert other.load(job) == job.execute()
        assert other.load_payload("reference", key) == {"marker": 2}
        # Re-importing is a no-op: entries are content-addressed.
        assert other.import_bundle(bundle) == {
            "imported": 0,
            "existing": 3,
            "rejected": 0,
        }

    def test_export_restricts_to_job_hashes_and_skips_unsound(self, tmp_path):
        store, jobs = self._store_with_jobs(tmp_path / "cache", count=3)
        self._tamper(store, jobs[2])
        manifest = store.export_bundle(
            tmp_path / "b.tar.gz",
            job_hashes=[jobs[0].job_hash, jobs[2].job_hash],
            include_payloads=False,
        )
        assert manifest["entries"] == [jobs[0].job_hash]
        assert manifest["skipped_unsound"] == 1

    def test_import_rejects_tampered_and_traversal_members(self, tmp_path):
        bundle = tmp_path / "evil.tar.gz"
        fake_hash = "ab" * 32
        bad_integrity = {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "job_hash": fake_hash,
            "integrity": "not-the-hash",
            "result": {"sum": 1},
        }
        traversal = {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "kind": "../escape",
            "key": fake_hash,
            "integrity": integrity_hash({"x": 1}),
            "payload": {"x": 1},
        }
        import io as io_module

        with tarfile.open(bundle, "w:gz") as tar:
            for name, envelope in (
                (f"entries/{fake_hash[:2]}/{fake_hash}.json", bad_integrity),
                ("payloads/../../escape.json", traversal),
            ):
                data = json.dumps(envelope).encode("utf-8")
                info = tarfile.TarInfo(name)
                info.size = len(data)
                tar.addfile(info, io_module.BytesIO(data))
        store = ResultCache(tmp_path / "cache")
        assert store.import_bundle(bundle) == {
            "imported": 0,
            "existing": 0,
            "rejected": 2,
        }
        assert list(store.scan()) == []
        assert not (tmp_path / "escape.json").exists()


# ----------------------------------------------------------------------
# Runner and CLI integration
# ----------------------------------------------------------------------
class TestFleetCLI:
    def test_runner_exposes_executor_name(self, tmp_path):
        with ExperimentRunnerFactory(tmp_path) as runner:
            assert runner.executor == "spool"
            assert runner.workers == 1

    def test_fleet_worker_drains_via_cli(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        from repro.runtime.worker_env import WORKER_THREAD_CAPS

        for name, value in WORKER_THREAD_CAPS.items():
            monkeypatch.setenv(name, value)
        spool = JobSpool(tmp_path / "spool")
        spool.ensure()
        for i in range(2):
            spool.enqueue(AddJob(i, 5))
        rc = main(["fleet", "worker", str(tmp_path / "spool"), "--quiet"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 job(s) executed" in out
        assert spool.counts() == {"pending": 0, "active": 0, "results": 2}

    def test_fleet_status_and_stop(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["fleet", "status", str(tmp_path / "nowhere")]) == 1
        capsys.readouterr()
        spool = JobSpool(tmp_path / "spool")
        spool.ensure()
        spool.enqueue(AddJob(1, 1))
        assert main(["fleet", "status", str(tmp_path / "spool")]) == 0
        out = capsys.readouterr().out
        assert "pending: 1" in out
        assert main(["fleet", "stop", str(tmp_path / "spool")]) == 0
        assert spool.stop_requested
        assert main(["fleet", "stop", str(tmp_path / "spool"), "--clear"]) == 0
        assert not spool.stop_requested

    def test_cache_cli_stats_verify_gc(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        store = ResultCache(cache_dir)
        jobs = [AddJob(i, 2) for i in range(2)]
        for job in jobs:
            store.store(job, job.execute())
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "result" in out and "schema v3" in out

        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0
        assert "2 ok" in capsys.readouterr().out

        # Tamper one entry: verify exits 1 until pruned.
        path = store.path_for(jobs[0].job_hash)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["result"]["sum"] = 999
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 1
        assert "1 corrupt" in capsys.readouterr().out
        assert main(["cache", "verify", "--prune", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()

        assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
        assert "kept 1" in capsys.readouterr().out

    def test_cache_cli_export_import(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        store = ResultCache(cache_dir)
        job = AddJob(4, 4)
        store.store(job, job.execute())
        bundle = tmp_path / "bundle.tar.gz"
        assert main(["cache", "export", str(bundle), "--cache-dir", str(cache_dir)]) == 0
        assert "1 result(s)" in capsys.readouterr().out
        other_dir = tmp_path / "other"
        assert main(["cache", "import", str(bundle), "--cache-dir", str(other_dir)]) == 0
        assert "1 imported" in capsys.readouterr().out
        assert ResultCache(other_dir).load(job) == {"sum": 8}

    @pytest.mark.parametrize("fraction", [0.2, 0.4, 0.5, 0.8, 0.95])
    def test_cache_cli_import_truncated_bundle_keeps_verified_entries(
        self, fraction, tmp_path, capsys
    ):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        store = ResultCache(cache_dir)
        for i in range(25):
            job = AddJob(i, 7)
            store.store(job, job.execute())
        bundle = tmp_path / "bundle.tar.gz"
        assert main(["cache", "export", str(bundle), "--cache-dir", str(cache_dir)]) == 0
        truncated = tmp_path / "truncated.tar.gz"
        data = bundle.read_bytes()
        truncated.write_bytes(data[: int(len(data) * fraction)])
        capsys.readouterr()

        other_dir = tmp_path / "other"
        assert main(["cache", "import", str(truncated), "--cache-dir", str(other_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = f"msropm: error: cache import from {truncated} failed after "
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
        installed = int(captured.err[len(prefix):].split()[0])
        assert 0 <= installed <= 25
        assert main(["cache", "verify", "--cache-dir", str(other_dir)]) == 0
        assert f"cache verify: {installed} ok, 0 stale, 0 corrupt" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["missing", "junk", "directory"])
    def test_cache_cli_import_unreadable_bundle_is_one_error_line(self, kind, tmp_path, capsys):
        from repro.cli import main

        bundle = tmp_path / "bundle.tar.gz"
        if kind == "junk":
            bundle.write_bytes(b"not a tar archive\n" * 8)
        elif kind == "directory":
            bundle.mkdir()
        argv = ["cache", "import", str(bundle), "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"msropm: error: cache import from {bundle} failed after 0 installed entries: "
        )
        assert captured.err.count("\n") == 1

    def test_scenarios_output_byte_identical_local_vs_spool(self, tmp_path, capsys):
        from repro.cli import main

        base = [
            "scenarios",
            "--family",
            "er",
            "--iterations",
            "1",
            "--baselines",
            "",
        ]
        assert (
            main(base + ["--workers", "1", "--cache-dir", str(tmp_path / "cache-local")])
            == 0
        )
        local_out = capsys.readouterr().out
        assert (
            main(
                base
                + [
                    "--workers",
                    "1",
                    "--executor",
                    "spool",
                    "--spool-dir",
                    str(tmp_path / "spool"),
                    "--cache-dir",
                    str(tmp_path / "cache-spool"),
                ]
            )
            == 0
        )
        spool_out = capsys.readouterr().out
        assert local_out == spool_out


def ExperimentRunnerFactory(tmp_path):
    """A spool-backed runner on a scratch directory (helper, not a fixture)."""
    from repro.runtime.runner import ExperimentRunner

    return ExperimentRunner(
        workers=1,
        executor="spool",
        spool_dir=tmp_path / "runner-spool",
        executor_options={"poll_interval": 0.01},
    )
