"""Tests for the Ising model layer (Eq. 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.graphs import kings_graph
from repro.ising import IsingProblem, spins_to_labels
from graph_builders import cycle_graph


class TestIsingProblem:
    def test_antiferromagnetic_energy_two_spins(self):
        graph = cycle_graph(2)
        problem = IsingProblem.antiferromagnetic(graph, strength=1.0)
        aligned = {0: 1, 1: 1}
        opposed = {0: 1, 1: -1}
        # Eq. (1) has no leading minus, so the anti-aligning coupling is J = +1:
        # aligned neighbours are penalized, opposed neighbours are rewarded.
        assert problem.energy(aligned) == pytest.approx(1.0)
        assert problem.energy(opposed) == pytest.approx(-1.0)

    def test_energy_convention_matches_eq1(self):
        """H = sum J_ij s_i s_j with anti-aligning J is minimized by anti-aligned spins."""
        graph = cycle_graph(4)
        problem = IsingProblem.antiferromagnetic(graph)
        alternating = {0: 1, 1: -1, 2: 1, 3: -1}
        uniform = {0: 1, 1: 1, 2: 1, 3: 1}
        assert problem.energy(alternating) < problem.energy(uniform)

    def test_energy_from_array_matches_dict(self):
        graph = kings_graph(3, 3)
        problem = IsingProblem.antiferromagnetic(graph)
        spins_dict = problem.random_spins(seed=1)
        spins_array = np.array([spins_dict[node] for node in graph.nodes])
        assert problem.energy(spins_dict) == pytest.approx(problem.energy_from_array(spins_array))

    def test_energy_from_array_validation(self):
        problem = IsingProblem.antiferromagnetic(cycle_graph(3))
        with pytest.raises(ReproError):
            problem.energy_from_array(np.array([1.0, 0.5, -1.0]))
        with pytest.raises(ReproError):
            problem.energy_from_array(np.array([1.0, -1.0]))

    def test_invalid_spin_value(self):
        problem = IsingProblem.antiferromagnetic(cycle_graph(2))
        with pytest.raises(ReproError):
            problem.energy({0: 1, 1: 0})

    def test_coupling_lookup_symmetric(self):
        graph = cycle_graph(3)
        problem = IsingProblem(graph=graph, couplings={(0, 1): 2.0}, default_coupling=1.0)
        assert problem.coupling(1, 0) == 2.0
        assert problem.coupling(1, 2) == 1.0

    def test_coupling_for_non_edge(self):
        problem = IsingProblem.antiferromagnetic(cycle_graph(4))
        with pytest.raises(ReproError):
            problem.coupling(0, 2)

    def test_coupling_on_nonexistent_edge_rejected_at_construction(self):
        with pytest.raises(ReproError):
            IsingProblem(graph=cycle_graph(4), couplings={(0, 2): -1.0})

    def test_coupling_matrix_symmetric(self):
        problem = IsingProblem.antiferromagnetic(kings_graph(3, 3))
        matrix = problem.coupling_matrix(dense=True)
        assert np.allclose(matrix, matrix.T)
        assert matrix.max() == 1.0

    def test_ground_state_bound(self):
        problem = IsingProblem.antiferromagnetic(cycle_graph(5), strength=2.0)
        assert problem.ground_state_energy_bound() == pytest.approx(-10.0)

    def test_ferromagnetic_prefers_alignment(self):
        problem = IsingProblem.ferromagnetic(cycle_graph(4))
        uniform = {i: 1 for i in range(4)}
        alternating = {0: 1, 1: -1, 2: 1, 3: -1}
        assert problem.energy(uniform) < problem.energy(alternating)

    def test_strength_validation(self):
        with pytest.raises(ReproError):
            IsingProblem.antiferromagnetic(cycle_graph(3), strength=0.0)

    def test_label_spin_conversions(self):
        spins = {1: 1, 2: -1}
        labels = spins_to_labels(spins)
        assert labels == {1: 0, 2: 1}

    def test_label_spin_validation(self):
        with pytest.raises(ReproError):
            spins_to_labels({1: 2})
