"""Tests for the replica execution engines (sequential vs batched).

The batched engine's contract is strict: for the same seeds it must reproduce
the sequential engine's colorings, accuracies, stage records and even the
final oscillator phases *bit-identically* on the exact precision tier, for
sparse and dense graphs alike — also when the batch runs as replica shards on
threads.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.core import (
    MSROPM,
    BatchedEngine,
    MSROPMConfig,
    SequentialEngine,
    get_engine,
)
from repro.core import engine as engine_module
from repro.dynamics.batched import ThroughputOptions
from repro.graphs import Graph, kings_graph
from repro.rng import ReplicaRNG, ThroughputRNG, make_rng, noise_buffer, normal_noise_block

SHARD_THREAD_PREFIX = "msropm-replica-shard"


def complete_graph(num_nodes: int) -> Graph:
    """A complete graph on integer nodes (density 1.0)."""
    return Graph(edges=[(i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)])


def assert_equivalent_solves(sequential, batched, exact_phases: bool = True):
    """Assert two solve results are replica-for-replica identical."""
    assert sequential.num_iterations == batched.num_iterations
    assert np.array_equal(sequential.accuracies, batched.accuracies)
    for seq_item, bat_item in zip(sequential.iterations, batched.iterations):
        assert seq_item.iteration_index == bat_item.iteration_index
        assert seq_item.seed == bat_item.seed
        assert seq_item.coloring.assignment == bat_item.coloring.assignment
        assert seq_item.run_time == bat_item.run_time
        assert len(seq_item.stage_results) == len(bat_item.stage_results)
        for seq_stage, bat_stage in zip(seq_item.stage_results, bat_item.stage_results):
            assert seq_stage.stage_index == bat_stage.stage_index
            assert seq_stage.cut_value == bat_stage.cut_value
            assert seq_stage.reference_cut == bat_stage.reference_cut
            assert seq_stage.accuracy == bat_stage.accuracy
            assert seq_stage.partition.side_a == bat_stage.partition.side_a
        if exact_phases:
            assert np.array_equal(
                seq_item.stage_results[-1].final_phases,
                bat_item.stage_results[-1].final_phases,
            )


class TestEngineSelection:
    def test_default_config_uses_batched(self):
        assert MSROPMConfig().engine == "batched"

    def test_get_engine_resolution(self):
        assert isinstance(get_engine("sequential"), SequentialEngine)
        assert isinstance(get_engine("batched"), BatchedEngine)
        assert isinstance(get_engine(None), BatchedEngine)
        engine = BatchedEngine(precision="exact")
        assert get_engine(engine) is engine

    def test_get_engine_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            get_engine("turbo")

    def test_config_validates_engine_and_backend(self):
        with pytest.raises(ConfigurationError):
            MSROPMConfig(engine="turbo")
        with pytest.raises(ConfigurationError):
            BatchedEngine(precision="nope")


class TestBatchedSequentialEquivalence:
    def test_bit_identical_on_kings_graph(self, fast_config):
        machine = MSROPM(kings_graph(5, 5), fast_config)
        sequential = machine.solve(iterations=5, seed=17, engine="sequential")
        batched = machine.solve(iterations=5, seed=17, engine="batched")
        assert_equivalent_solves(sequential, batched, exact_phases=True)

    def test_config_engine_matches_explicit_override(self, fast_config):
        graph = kings_graph(4, 4)
        by_config = MSROPM(graph, fast_config.with_updates(engine="batched")).solve(
            iterations=3, seed=9
        )
        by_override = MSROPM(graph, fast_config.with_updates(engine="sequential")).solve(
            iterations=3, seed=9, engine="batched"
        )
        assert_equivalent_solves(by_config, by_override, exact_phases=True)

    def test_single_iteration_batch(self, fast_config):
        machine = MSROPM(kings_graph(4, 4), fast_config)
        sequential = machine.solve(iterations=1, seed=3, engine="sequential")
        batched = machine.solve(iterations=1, seed=3, engine="batched")
        assert_equivalent_solves(sequential, batched, exact_phases=True)

    def test_two_color_single_stage_machine(self, fast_binary_config):
        machine = MSROPM(kings_graph(4, 4), fast_binary_config)
        sequential = machine.solve(iterations=4, seed=21, engine="sequential")
        batched = machine.solve(iterations=4, seed=21, engine="batched")
        assert_equivalent_solves(sequential, batched, exact_phases=True)

    def test_eight_colors_three_stages(self, fast_config):
        config = fast_config.with_updates(num_colors=8)
        machine = MSROPM(kings_graph(4, 4), config)
        sequential = machine.solve(iterations=3, seed=5, engine="sequential")
        batched = machine.solve(iterations=3, seed=5, engine="batched")
        assert_equivalent_solves(sequential, batched, exact_phases=True)

    def test_with_frequency_detuning(self, fast_config):
        config = fast_config.with_updates(frequency_detuning_std=0.01)
        machine = MSROPM(kings_graph(4, 4), config)
        sequential = machine.solve(iterations=3, seed=13, engine="sequential")
        batched = machine.solve(iterations=3, seed=13, engine="batched")
        assert_equivalent_solves(sequential, batched, exact_phases=True)

    def test_auto_dense_graph_end_to_end(self, fast_config):
        """A complete K32 graph solves on the sparse path, bit-identical to sequential."""
        graph = complete_graph(32)
        machine = MSROPM(graph, fast_config)
        sequential = machine.solve(iterations=2, seed=1, engine="sequential")
        batched = machine.solve(iterations=2, seed=1, engine="batched")
        assert batched.num_iterations == 2
        assert all(coloring.covers(graph) for coloring in batched.colorings)
        assert_equivalent_solves(sequential, batched, exact_phases=True)


class TestSweepEnginePlumbing:
    def test_sweep_engines_produce_identical_points(self, fast_config):
        from repro.analysis.sweep import coupling_strength_sweep

        graph = kings_graph(4, 4)
        sequential = coupling_strength_sweep(
            graph, [0.05, 0.1], base_config=fast_config, iterations=2, seed=3,
            engine="sequential",
        )
        batched = coupling_strength_sweep(
            graph, [0.05, 0.1], base_config=fast_config, iterations=2, seed=3,
            engine="batched",
        )
        assert len(sequential.points) == len(batched.points) == 2
        for seq_point, bat_point in zip(sequential.points, batched.points):
            assert seq_point.mean_accuracy == bat_point.mean_accuracy
            assert seq_point.best_accuracy == bat_point.best_accuracy
            assert seq_point.mean_stage1_accuracy == bat_point.mean_stage1_accuracy

    def test_sweep_rejects_invalid_engine(self, fast_config):
        """A bad engine name must raise, not silently skip every grid point."""
        from repro.analysis.sweep import coupling_strength_sweep

        with pytest.raises(ConfigurationError):
            coupling_strength_sweep(
                kings_graph(3, 3), [0.1], base_config=fast_config, iterations=1,
                seed=0, engine="batchd",
            )


class TestReplicaRNG:
    def test_streams_match_individual_generators(self):
        replica = ReplicaRNG.from_seeds([1, 2, 3])
        stacked = replica.standard_normal((3, 5))
        for row, seed in zip(stacked, [1, 2, 3]):
            assert np.array_equal(row, make_rng(seed).standard_normal(5))

    def test_scalar_size_adds_replica_axis(self):
        replica = ReplicaRNG.from_seeds([4, 5])
        drawn = replica.uniform(0.0, 1.0, size=6)
        assert drawn.shape == (2, 6)
        assert np.array_equal(drawn[1], make_rng(5).uniform(0.0, 1.0, size=6))

    def test_noise_block_matches_per_step_draws(self):
        replica = ReplicaRNG.from_seeds([8, 9])
        block = replica.noise_block(4, (2, 3))
        assert block.shape == (4, 2, 3)
        for index, seed in enumerate([8, 9]):
            generator = make_rng(seed)
            expected = np.stack([generator.standard_normal(3) for _ in range(4)])
            assert np.array_equal(block[:, index, :], expected)

    def test_size_validation(self):
        replica = ReplicaRNG.from_seeds([1, 2])
        with pytest.raises(ValueError):
            replica.standard_normal((3, 4))  # wrong replica axis
        with pytest.raises(ValueError):
            ReplicaRNG([])

    def test_noise_block_fills_a_reused_buffer(self):
        """A short block drawn into a larger reused buffer is a view of it and
        matches a fresh draw, for every generator kind."""
        for make in (
            lambda: make_rng(5),
            lambda: ReplicaRNG.from_seeds([5, 6, 7]),
            lambda: ThroughputRNG([5, 6, 7]),
        ):
            rng = make()
            buffer = noise_buffer(rng, 5, (3, 4))
            assert buffer.dtype == normal_noise_block(make(), 1, (3, 4)).dtype
            first = normal_noise_block(rng, 5, (3, 4), out=buffer)
            assert first.shape == (5, 3, 4)
            reference = make()
            assert np.array_equal(first, normal_noise_block(reference, 5, (3, 4)))
            second = normal_noise_block(rng, 3, (3, 4), out=buffer)
            assert np.shares_memory(second, buffer) and second.shape == (3, 3, 4)
            assert np.array_equal(second, normal_noise_block(reference, 3, (3, 4)))


def _shards_spawned(monkeypatch) -> list:
    """Record the shard count of every thread pool :class:`BatchedEngine` opens."""
    spawned: list = []
    original = engine_module.ThreadPoolExecutor

    def recording(max_workers, **kwargs):
        spawned.append(max_workers + 1)
        return original(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(engine_module, "ThreadPoolExecutor", recording)
    return spawned


@pytest.fixture
def force_shards(monkeypatch):
    """Force the shard count: a thread budget of ``n`` and no size floor."""

    def force(budget: int) -> None:
        monkeypatch.setattr(engine_module, "replica_thread_budget", lambda: budget)
        monkeypatch.setattr(engine_module, "MIN_SHARD_ELEMENTS", 1)

    return force


def _shard_threads() -> list:
    return [t for t in threading.enumerate() if t.name.startswith(SHARD_THREAD_PREFIX)]


class TestReplicaShards:
    """Exact-tier batches split into replica ranges on threads, bit-identically."""

    @pytest.mark.parametrize("detuning", [0.0, 0.01])
    @pytest.mark.parametrize("replicas,budget", [(5, 1), (5, 2), (5, 3), (5, 5), (2, 4)])
    def test_shards_match_unsharded_and_sequential(
        self, fast_config, force_shards, monkeypatch, replicas, budget, detuning
    ):
        config = fast_config.with_updates(frequency_detuning_std=detuning)
        machine = MSROPM(kings_graph(5, 5), config)
        unsharded = machine.solve(iterations=replicas, seed=29, engine="batched")
        sequential = machine.solve(iterations=replicas, seed=29, engine="sequential")
        force_shards(budget)
        spawned = _shards_spawned(monkeypatch)
        sharded = machine.solve(iterations=replicas, seed=29, engine="batched")
        expected = min(budget, replicas)
        assert spawned == ([] if expected == 1 else [expected])
        assert_equivalent_solves(unsharded, sharded, exact_phases=True)
        assert_equivalent_solves(sequential, sharded, exact_phases=True)

    def test_shard_count_rule(self, monkeypatch):
        monkeypatch.setattr(engine_module, "replica_thread_budget", lambda: 4)
        floor = engine_module.MIN_SHARD_ELEMENTS
        assert engine_module.replica_shards(40, 2116) == 4  # kings46: R x N >> floor
        assert engine_module.replica_shards(40, (2 * floor - 1) // 40) == 1
        assert engine_module.replica_shards(40, 2 * floor // 40 + 1) == 2
        assert engine_module.replica_shards(10, 81) == 1  # a service-replay 9x9 job
        assert engine_module.replica_shards(3, 10**6) == 3  # never more shards than replicas
        monkeypatch.setattr(engine_module, "replica_thread_budget", lambda: 1)
        assert engine_module.replica_shards(40, 2116) == 1

    @pytest.mark.parametrize("batched_rng", [True, False])
    def test_throughput_tier_never_shards(
        self, fast_config, force_shards, monkeypatch, batched_rng
    ):
        machine = MSROPM(kings_graph(5, 5), fast_config)
        engine = BatchedEngine(
            precision="throughput",
            throughput_options=ThroughputOptions(batched_rng=batched_rng),
        )
        reference = machine.solve(iterations=4, seed=8, engine=engine)
        force_shards(4)
        spawned = _shards_spawned(monkeypatch)
        forced = machine.solve(iterations=4, seed=8, engine=engine)
        assert spawned == []
        assert_equivalent_solves(reference, forced, exact_phases=True)

    def test_oversubscribed_shards_under_fast_thread_switching(
        self, fast_config, force_shards
    ):
        """More shards than CPUs, switching threads every microsecond: every
        run stays bit-identical to the unsharded batch (time-bounded)."""
        machine = MSROPM(kings_graph(4, 4), fast_config.with_updates(num_colors=8))
        reference = machine.solve(iterations=8, seed=41, engine="batched")
        force_shards(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 3.0
            runs = 0
            while runs < 2 or (runs < 10 and time.monotonic() < deadline):
                sharded = machine.solve(iterations=8, seed=41, engine="batched")
                assert_equivalent_solves(reference, sharded, exact_phases=True)
                runs += 1
        finally:
            sys.setswitchinterval(interval)
        assert not _shard_threads()

    def test_shard_exception_propagates_and_no_thread_survives(
        self, fast_config, force_shards, monkeypatch
    ):
        machine = MSROPM(kings_graph(4, 4), fast_config)
        force_shards(3)
        original = machine._score_stage_batch

        def failing(stage_index, bits, group_values):
            if threading.current_thread().name.startswith(SHARD_THREAD_PREFIX):
                raise RuntimeError("shard failed")
            return original(stage_index, bits, group_values)

        monkeypatch.setattr(machine, "_score_stage_batch", failing)
        with pytest.raises(RuntimeError, match="shard failed"):
            machine.solve(iterations=6, seed=2, engine="batched")
        assert not _shard_threads()
