"""Tests for the MSROPM machine, stage execution and mapping."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.control import TimingPlan
from repro.exceptions import ConfigurationError, MappingError, StageError
from repro.core import (
    MSROPM,
    MSROPMConfig,
    StageExecutor,
    binarize_against_offsets,
    group_offsets,
    identity_mapping,
    partition_coupling_matrix,
)
from repro.graphs import Graph, kings_graph
from repro.ising import kings_graph_reference_cut
from repro.rng import make_rng
from repro.units import ns
from graph_builders import cycle_graph, grid_graph


class TestStageHelpers:
    def test_group_offsets_stage1_all_zero(self):
        offsets = group_offsets(np.zeros(5, dtype=int), stage_index=1)
        assert np.allclose(offsets, 0.0)

    def test_group_offsets_stage2_are_shil1_and_shil2(self):
        offsets = group_offsets(np.array([0, 1, 0, 1]), stage_index=2)
        assert np.allclose(offsets, [0.0, np.pi / 2, 0.0, np.pi / 2])

    def test_group_offsets_stage3_quarter_steps(self):
        offsets = group_offsets(np.array([0, 1, 2, 3]), stage_index=3)
        assert np.allclose(offsets, [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4])

    def test_group_offsets_validation(self):
        with pytest.raises(StageError):
            group_offsets(np.array([0, 2]), stage_index=2)
        with pytest.raises(StageError):
            group_offsets(np.array([0]), stage_index=0)

    def test_partition_coupling_matrix_gates_cross_edges(self):
        graph = kings_graph(3, 3)
        edges = graph.edge_index_array()
        same_group = partition_coupling_matrix(edges, np.zeros(9, dtype=int), 9, 1.0)
        split = partition_coupling_matrix(edges, np.arange(9) % 2, 9, 1.0)
        assert same_group.nnz == 2 * graph.num_edges
        assert split.nnz < same_group.nnz

    def test_partition_coupling_matrix_empty(self):
        matrix = partition_coupling_matrix(np.zeros((0, 2), dtype=int), np.zeros(3, dtype=int), 3, 1.0)
        assert matrix.nnz == 0

    def test_partition_coupling_matrix_validation(self):
        with pytest.raises(StageError):
            partition_coupling_matrix(np.zeros((0, 2), dtype=int), np.zeros(3, dtype=int), 3, -1.0)

    def test_binarize_against_offsets(self):
        phases = np.array([0.1, np.pi - 0.1, np.pi / 2 + 0.05, 3 * np.pi / 2 - 0.05])
        offsets = np.array([0.0, 0.0, np.pi / 2, np.pi / 2])
        assert np.array_equal(binarize_against_offsets(phases, offsets), [0, 1, 0, 1])

    def test_stage_executor_produces_valid_bits(self, fast_config):
        graph = kings_graph(4, 4)
        executor = StageExecutor(
            config=fast_config,
            edge_index=graph.edge_index_array(),
            num_oscillators=graph.num_nodes,
        )
        rng = make_rng(3)
        phases = rng.uniform(0, 2 * np.pi, graph.num_nodes)
        final, bits, trajectory = executor.run_stage(1, phases, np.zeros(graph.num_nodes, dtype=int), rng)
        assert final.shape == (16,)
        assert set(np.unique(bits)) <= {0, 1}
        assert trajectory is None

    def test_stage_executor_trajectory_collection(self, fast_config):
        graph = kings_graph(3, 3)
        executor = StageExecutor(
            config=fast_config,
            edge_index=graph.edge_index_array(),
            num_oscillators=graph.num_nodes,
            collect_trajectory=True,
        )
        rng = make_rng(4)
        phases = rng.uniform(0, 2 * np.pi, graph.num_nodes)
        _, _, trajectory = executor.run_stage(1, phases, np.zeros(graph.num_nodes, dtype=int), rng)
        assert trajectory is not None
        assert trajectory.times[0] == 0.0
        expected_duration = (
            fast_config.timing.initialization
            + fast_config.timing.annealing
            + fast_config.timing.shil_settling
        )
        assert trajectory.times[-1] == pytest.approx(expected_duration, rel=1e-6)


class TestMapping:
    def test_identity_mapping(self):
        graph = kings_graph(3, 3)
        mapping = identity_mapping(graph)
        assert mapping.num_used_oscillators == 9
        assert mapping.utilization == 1.0
        assert len(mapping.enabled_couplings()) == graph.num_edges
        assert mapping.disabled_couplings() == []

    def test_mapping_validation(self):
        graph = kings_graph(2, 2)
        with pytest.raises(MappingError):
            identity_mapping(graph).oscillator_of((9, 9))


class TestMachine:
    def test_solve_produces_high_accuracy_on_49_nodes(self, fast_config):
        machine = MSROPM(kings_graph(7, 7), fast_config)
        result = machine.solve(iterations=4, seed=3)
        assert result.num_iterations == 4
        assert result.best_accuracy >= 0.9
        assert all(coloring.covers(machine.graph) for coloring in result.colorings)

    def test_solution_colors_respect_stage_bits(self, fast_config):
        """Stage-1 bit must equal the parity of the final color for every node."""
        machine = MSROPM(kings_graph(5, 5), fast_config)
        iteration = machine.run_iteration(seed=5)
        stage1 = iteration.stage_results[0]
        for node in machine.graph.nodes:
            bit = stage1.partition.side_of(node)
            assert iteration.coloring.color_of(node) % 2 == bit

    def test_stage1_reference_cut_default_for_kings(self):
        machine = MSROPM(kings_graph(6, 6))
        assert machine.stage1_reference_cut == kings_graph_reference_cut(6, 6)

    def test_stage1_reference_cut_default_generic(self):
        graph = cycle_graph(8)
        assert MSROPM(graph).stage1_reference_cut == graph.num_edges

    def test_run_time_matches_timing_plan(self, fast_config):
        machine = MSROPM(kings_graph(4, 4), fast_config)
        iteration = machine.run_iteration(seed=1)
        assert iteration.run_time == pytest.approx(fast_config.total_run_time)

    def test_reproducible_with_seed(self, fast_config):
        machine = MSROPM(kings_graph(5, 5), fast_config)
        first = machine.solve(iterations=2, seed=17)
        second = machine.solve(iterations=2, seed=17)
        assert np.allclose(first.accuracies, second.accuracies)
        assert first.iterations[0].coloring.assignment == second.iterations[0].coloring.assignment

    def test_different_seeds_differ(self, fast_config):
        machine = MSROPM(kings_graph(6, 6), fast_config)
        a = machine.run_iteration(seed=1)
        b = machine.run_iteration(seed=2)
        assert a.coloring.assignment != b.coloring.assignment

    def test_trajectory_collection_spans_run(self, fast_config):
        machine = MSROPM(kings_graph(3, 3), fast_config)
        iteration = machine.run_iteration(seed=2, collect_trajectory=True)
        assert iteration.trajectory is not None
        assert iteration.trajectory.times[-1] == pytest.approx(fast_config.total_run_time, rel=1e-6)

    def test_estimated_power_and_tts(self, fast_config):
        machine = MSROPM(kings_graph(4, 4), fast_config)
        assert machine.estimated_power() > 0
        assert machine.time_to_solution() == pytest.approx(fast_config.total_run_time)

    def test_empty_graph_rejected(self):
        with pytest.raises(MappingError):
            MSROPM(Graph())

    def test_invalid_iteration_count(self, fast_config):
        machine = MSROPM(kings_graph(3, 3), fast_config)
        with pytest.raises(ConfigurationError):
            machine.solve(iterations=0)

    def test_two_color_machine_on_bipartite_graph(self, fast_binary_config):
        """A single-stage (2-color) machine should 2-color a grid almost perfectly."""
        graph = grid_graph(5, 5)
        machine = MSROPM(graph, fast_binary_config, stage1_reference_cut=graph.num_edges)
        result = machine.solve(iterations=3, seed=8)
        assert result.best_accuracy >= 0.9

    def test_eight_colors_runs_three_stages(self, fast_config):
        graph = kings_graph(4, 4)
        machine = MSROPM(graph, fast_config.with_updates(num_colors=8))
        iteration = machine.run_iteration(seed=2)
        assert [stage.stage_index for stage in iteration.stage_results] == [1, 2, 3]
        assert iteration.coloring.num_colors == 8
        assert iteration.coloring.covers(graph)

    def test_color_composes_every_stage_bit(self, fast_config):
        """Stage s contributes bit s-1 of the final color (divide-and-color)."""
        machine = MSROPM(kings_graph(4, 4), fast_config.with_updates(num_colors=8))
        iteration = machine.run_iteration(seed=6)
        for node in machine.graph.nodes:
            composed = sum(
                stage.partition.side_of(node) << (stage.stage_index - 1)
                for stage in iteration.stage_results
            )
            assert iteration.coloring.color_of(node) == composed

    def test_stage_cuts_account_for_every_edge(self, fast_config):
        """Each edge is either cut by exactly one stage or left a conflict."""
        graph = kings_graph(5, 5)
        iteration = MSROPM(graph, fast_config).run_iteration(seed=4)
        total_cut = sum(stage.cut_value for stage in iteration.stage_results)
        assert total_cut + iteration.coloring.num_conflicts(graph) == graph.num_edges

    def test_two_color_stage_cut_counts_non_conflicts(self, fast_binary_config):
        graph = grid_graph(4, 4)
        iteration = MSROPM(graph, fast_binary_config).run_iteration(seed=1)
        assert len(iteration.stage_results) == 1
        assert iteration.stage_results[0].cut_value == (
            graph.num_edges - iteration.coloring.num_conflicts(graph)
        )

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=5, deadline=None)
    def test_accuracy_bounded_for_any_seed(self, seed):
        graph = kings_graph(3, 3)
        config = MSROPMConfig(
            num_colors=4,
            timing=TimingPlan(initialization=ns(1.0), annealing=ns(4.0), shil_settling=ns(2.0)),
            time_step=0.05e-9,
        )
        iteration = MSROPM(graph, config).run_iteration(seed=seed)
        assert iteration.coloring.covers(graph)
        assert 0.0 <= iteration.accuracy <= 1.0
        assert iteration.accuracy == pytest.approx(iteration.coloring.accuracy(graph))
