"""Tests for the voltage-waveform reconstruction used by the Fig. 3 reproduction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.dynamics import Trajectory, WaveformSet, phase_to_voltage, reconstruct_waveforms
from repro.units import ghz


class TestPhaseToVoltage:
    def test_output_range(self):
        times = np.linspace(0, 5e-9, 400)
        for shape in ("sine", "square", "harmonic"):
            voltages = phase_to_voltage(times, np.zeros_like(times), shape=shape)
            assert voltages.min() >= 0.0 - 1e-12
            assert voltages.max() <= 1.0 + 1e-12

    def test_phase_shift_moves_waveform(self):
        times = np.linspace(0, 2e-9, 1000)
        base = phase_to_voltage(times, np.zeros_like(times), shape="sine")
        shifted = phase_to_voltage(times, np.full_like(times, np.pi), shape="sine")
        # A 180-degree phase shift inverts the waveform around mid-supply.
        assert np.allclose(base + shifted, 1.0, atol=1e-9)

    def test_multi_oscillator_shape(self):
        times = np.linspace(0, 1e-9, 100)
        phases = np.zeros((100, 3))
        voltages = phase_to_voltage(times, phases)
        assert voltages.shape == (100, 3)

    def test_supply_scaling(self):
        times = np.linspace(0, 1e-9, 50)
        voltages = phase_to_voltage(times, np.zeros_like(times), supply_voltage=1.2, shape="square")
        assert voltages.max() == pytest.approx(1.2)

    def test_validation(self):
        times = np.linspace(0, 1e-9, 10)
        with pytest.raises(SimulationError):
            phase_to_voltage(times, np.zeros(5))
        with pytest.raises(SimulationError):
            phase_to_voltage(times, np.zeros(10), shape="sawtooth")
        with pytest.raises(SimulationError):
            phase_to_voltage(times, np.zeros(10), frequency=-1.0)


class TestWaveformReconstruction:
    def _trajectory(self, num_oscillators=3, duration=4e-9, points=100):
        times = np.linspace(0, duration, points)
        phases = np.tile(np.linspace(0, np.pi, points)[:, None], (1, num_oscillators))
        return Trajectory(times=times, phases=phases)

    def test_reconstruction_shape(self):
        waveforms = reconstruct_waveforms(self._trajectory(), [0, 2], frequency=ghz(1.3))
        assert waveforms.voltages.shape[1] == 2
        assert waveforms.times[0] == 0.0

    def test_voltage_lookup_by_oscillator(self):
        waveforms = reconstruct_waveforms(self._trajectory(), [0, 2], frequency=ghz(1.3))
        assert waveforms.voltage_of(2).shape == waveforms.times.shape
        with pytest.raises(SimulationError):
            waveforms.voltage_of(1)

    def test_ascii_rendering(self):
        waveforms = reconstruct_waveforms(self._trajectory(), [0], frequency=ghz(1.3))
        art = waveforms.as_ascii(0, width=40, height=5)
        lines = art.splitlines()
        assert len(lines) == 5
        assert all(len(line) == 40 for line in lines)

    def test_requires_oscillators(self):
        with pytest.raises(SimulationError):
            reconstruct_waveforms(self._trajectory(), [])

    def test_samples_per_period_validation(self):
        with pytest.raises(SimulationError):
            reconstruct_waveforms(self._trajectory(), [0], samples_per_period=2)

    def test_waveform_set_validation(self):
        with pytest.raises(SimulationError):
            WaveformSet(times=np.zeros(5), voltages=np.zeros((4, 1)), oscillator_indices=[0], frequency=1e9)
        with pytest.raises(SimulationError):
            WaveformSet(times=np.zeros(5), voltages=np.zeros((5, 2)), oscillator_indices=[0], frequency=1e9)
