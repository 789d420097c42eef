"""Tests for the phase-domain (vector Potts) Hamiltonian and phase quantization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ReproError
from repro.graphs import kings_graph
from repro.ising import IsingProblem, phases_to_spins, vector_potts_energy, wrap_phase
from graph_builders import cycle_graph


class TestPhaseHelpers:
    def test_wrap_phase_range(self):
        wrapped = wrap_phase(np.array([-0.1, 0.0, 2 * np.pi, 7.0]))
        assert np.all(wrapped >= 0.0)
        assert np.all(wrapped < 2 * np.pi)

    def test_spin_phase_round_trip(self):
        spins = np.array([0, 1, 2, 3, 2, 1])
        phases = 2 * np.pi * spins / 4
        assert np.array_equal(phases_to_spins(phases, 4), spins)

    def test_phases_to_spins_with_offset(self):
        phases = 2 * np.pi * np.arange(4) / 4 + 0.3
        assert np.array_equal(phases_to_spins(phases, 4, offset=0.3), [0, 1, 2, 3])

class TestVectorPottsEnergy:
    def test_uniform_negative_coupling_minimum_at_antiphase(self):
        graph = cycle_graph(2)
        in_phase = vector_potts_energy(graph, np.array([0.0, 0.0]), default_coupling=-1.0)
        anti_phase = vector_potts_energy(graph, np.array([0.0, np.pi]), default_coupling=-1.0)
        assert in_phase == pytest.approx(-1.0)
        assert anti_phase == pytest.approx(1.0)

    def test_matches_ising_energy_on_lock_grid(self):
        """Eq. 2 reduces to Eq. 1 when phases sit exactly on the 2-phase grid."""
        graph = kings_graph(3, 3)
        problem = IsingProblem.antiferromagnetic(graph)
        spins_dict = problem.random_spins(seed=5)
        spins = np.array([spins_dict[node] for node in graph.nodes])
        phases = np.where(spins == 1, 0.0, np.pi)
        energy = vector_potts_energy(graph, phases, coupling_matrix=problem.coupling_matrix())
        assert energy == pytest.approx(problem.energy(spins_dict))

    def test_shape_validation(self):
        with pytest.raises(ReproError):
            vector_potts_energy(cycle_graph(3), np.zeros(2))

    def test_empty_graph(self):
        from repro.graphs import Graph

        assert vector_potts_energy(Graph(nodes=[1, 2]), np.zeros(2)) == 0.0

    def test_with_explicit_coupling_matrix(self):
        graph = cycle_graph(3)
        problem = IsingProblem.antiferromagnetic(graph, strength=2.0)
        phases = np.array([0.0, np.pi, 0.0])
        explicit = vector_potts_energy(graph, phases, coupling_matrix=problem.coupling_matrix())
        assert explicit == pytest.approx(2.0 * (np.cos(np.pi) + np.cos(np.pi) + np.cos(0.0)))

    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_energy_invariant_under_global_rotation(self, seed):
        """The phase Hamiltonian depends only on phase differences."""
        graph = kings_graph(3, 3)
        rng = np.random.default_rng(seed)
        phases = rng.uniform(0, 2 * np.pi, graph.num_nodes)
        shift = rng.uniform(0, 2 * np.pi)
        base = vector_potts_energy(graph, phases, default_coupling=-1.0)
        rotated = vector_potts_energy(graph, phases + shift, default_coupling=-1.0)
        assert rotated == pytest.approx(base, abs=1e-9)

    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_quantization_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        phases = rng.uniform(0, 2 * np.pi, 30)
        spins = phases_to_spins(phases, 4)
        requantized = phases_to_spins(2 * np.pi * spins / 4, 4)
        assert np.array_equal(spins, requantized)
