"""Tests for DFF/read-out blocks, the SHIL MUX, control schedule, power model and netlist."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import CircuitError, MappingError, StageError
from repro.circuit import (
    DFlipFlop,
    FabricNetlist,
    PAPER_POWER_MW,
    PhaseReadout,
    PowerModel,
    ReferenceSignal,
    ShilMux,
    TimingPlan,
    reference_bank,
    shil1,
    shil2,
)
from repro.graphs import kings_graph
from repro.units import ns


class TestDFFAndReferences:
    def test_dff_samples_data(self):
        dff = DFlipFlop()
        assert dff.sample(True) is True
        assert dff.sample(False) is False
        assert not dff.last_sample_metastable

    def test_dff_metastability_window(self):
        dff = DFlipFlop(setup_time=20e-12, hold_time=10e-12)
        assert dff.sample(True, data_transition_offset=5e-12) is False
        assert dff.last_sample_metastable
        assert dff.sample(True, data_transition_offset=50e-12) is True

    def test_dff_validation(self):
        with pytest.raises(CircuitError):
            DFlipFlop(setup_time=-1e-12)

    def test_reference_signal_values(self):
        ref = ReferenceSignal(frequency=1e9, phase=0.0)
        assert ref.value(0.1e-9) is True     # first half of the cycle
        assert ref.value(0.6e-9) is False    # second half

    def test_reference_rising_edges(self):
        ref = ReferenceSignal(frequency=1e9, phase=0.0)
        edges = ref.rising_edge_times(0.0, 3.5e-9)
        assert len(edges) == 4
        assert edges[1] == pytest.approx(1e-9)

    def test_reference_bank_phases(self):
        bank = reference_bank(4, frequency=1e9)
        phases = [ref.phase for ref in bank]
        assert phases == pytest.approx([0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_reference_validation(self):
        with pytest.raises(CircuitError):
            ReferenceSignal(frequency=0.0)
        with pytest.raises(CircuitError):
            reference_bank(1)


class TestPhaseReadout:
    def test_four_phase_sampling(self):
        readout = PhaseReadout(num_phases=4)
        phases = np.array([0.02, np.pi / 2 + 0.02, np.pi - 0.02, 3 * np.pi / 2])
        assert np.array_equal(readout.sample_phases(phases), [0, 1, 2, 3])

    def test_one_hot_pattern(self):
        readout = PhaseReadout(num_phases=4)
        pattern = readout.one_hot(np.pi)
        assert pattern.tolist() == [0, 0, 1, 0]

    def test_common_mode_offset_removed(self):
        readout = PhaseReadout(num_phases=4)
        phases = np.array([0.0, np.pi / 2, np.pi]) + 0.4
        assert np.array_equal(readout.sample_phases(phases, offset=0.4), [0, 1, 2])

    def test_ambiguous_count(self):
        readout = PhaseReadout(num_phases=2, ambiguity_window=np.pi / 8)
        readout.sample_phases(np.array([np.pi / 2 - 0.01, 0.0]))
        assert readout.last_ambiguous_count == 1

    def test_dff_bank_size(self):
        assert len(PhaseReadout(num_phases=4).dff_bank()) == 4

    def test_validation(self):
        with pytest.raises(CircuitError):
            PhaseReadout(num_phases=1)


class TestShilMux:
    def test_selection(self):
        mux = ShilMux(shil_a=shil1(), shil_b=shil2())
        assert mux.active_source is None  # disabled by default
        mux.set_enabled(True)
        assert mux.active_source is mux.shil_a
        mux.set_select(1)
        assert mux.active_source is mux.shil_b
        assert mux.fundamental_offset() == pytest.approx(np.pi / 2)

    def test_injection_strength(self):
        mux = ShilMux(shil_a=shil1(strength=0.3), shil_b=shil2(strength=0.3))
        assert mux.injection_strength() == 0.0
        mux.set_enabled(True)
        assert mux.injection_strength() == pytest.approx(0.3)

    def test_invalid_select(self):
        mux = ShilMux(shil_a=shil1(), shil_b=shil2())
        with pytest.raises(CircuitError):
            mux.set_select(2)
        with pytest.raises(CircuitError):
            ShilMux(shil_a=shil1(), shil_b=shil2(), select=3)


class TestControlSchedule:
    def test_paper_timing_totals_60ns(self):
        plan = TimingPlan()
        assert plan.total_for_stages(2) / ns(1.0) == pytest.approx(60.0)

    def test_validation(self):
        with pytest.raises(StageError):
            TimingPlan(initialization=0.0)


class TestPowerModel:
    def test_total_power_positive_and_monotone(self):
        model = PowerModel()
        small = model.total_power(49, 156)
        large = model.total_power(2116, 8372)
        assert 0 < small < large

    def test_breakdown_sums_to_total(self):
        model = PowerModel()
        breakdown = model.power_breakdown(400, 1482)
        assert sum(breakdown.values()) == pytest.approx(model.total_power(400, 1482))

    def test_power_tracks_paper_magnitudes(self):
        """The modeled power should land within 2x of every Table 1 entry."""
        model = PowerModel()
        sides = {49: 7, 400: 20, 1024: 32, 2116: 46}
        for nodes, paper_mw in PAPER_POWER_MW.items():
            graph = kings_graph(sides[nodes], sides[nodes])
            modeled = model.total_power_mw(graph.num_nodes, graph.num_edges)
            assert modeled == pytest.approx(paper_mw, rel=1.0)

    def test_validation(self):
        with pytest.raises(CircuitError):
            PowerModel(oscillator_activity=1.5)
        with pytest.raises(CircuitError):
            PowerModel().total_power(-1, 0)

class TestFabricNetlist:
    def test_block_counts(self):
        graph = kings_graph(4, 4)
        netlist = FabricNetlist(graph=graph)
        assert netlist.num_oscillators == 16
        assert netlist.num_couplings == graph.num_edges

    def test_partition_gating(self):
        graph = kings_graph(3, 3)
        netlist = FabricNetlist(graph=graph)
        labels = {node: (node[0] % 2) for node in graph.nodes}
        gated = netlist.apply_partition_gating(labels)
        assert gated > 0
        matrix_partitioned = netlist.coupling_matrix(respect_partition=True)
        matrix_full = netlist.coupling_matrix(respect_partition=False)
        assert matrix_partitioned.nnz < matrix_full.nnz
        # SHIL_SEL follows the partition labels.
        selects = netlist.shil_selects()
        offsets = netlist.shil_offsets()
        assert set(np.unique(selects)) == {0, 1}
        assert np.allclose(np.unique(offsets), [0.0, np.pi / 2])
        netlist.clear_partition_gating()
        assert netlist.coupling_matrix().nnz == matrix_full.nnz

    def test_partition_gating_requires_full_labels(self):
        netlist = FabricNetlist(graph=kings_graph(2, 2))
        with pytest.raises(MappingError):
            netlist.apply_partition_gating({(0, 0): 0})

    def test_coupling_element_lookup(self):
        graph = kings_graph(2, 2)
        netlist = FabricNetlist(graph=graph)
        assert netlist.coupling_element((0, 0), (0, 1)).strength == pytest.approx(0.1)
        with pytest.raises(MappingError):
            netlist.coupling_element((0, 0), (5, 5))

    def test_shil_sources(self):
        netlist = FabricNetlist(graph=kings_graph(2, 2))
        source1, source2 = netlist.shil_sources
        assert source1.fundamental_offset == 0.0
        assert source2.fundamental_offset == pytest.approx(np.pi / 2)

    def test_empty_graph_rejected(self):
        from repro.graphs import Graph

        with pytest.raises(MappingError):
            FabricNetlist(graph=Graph())
