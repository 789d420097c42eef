"""Tests for the behavioural circuit blocks: technology, inverter, ROSC, coupling, SHIL."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import CircuitError
from repro.circuit import (
    TECH_65NM_GP,
    TECH_65NM_LP,
    Inverter,
    RingOscillator,
    CouplingElement,
    ShilSource,
    Technology,
    b2b_coupling,
    dynamic_power,
    leakage_power,
    paper_rosc,
    shil1,
    shil2,
)
from repro.units import ghz


class TestTechnology:
    def test_default_corner_is_1v(self):
        assert TECH_65NM_GP.supply_voltage == 1.0
        assert TECH_65NM_GP.name == "65nm-GP"

    def test_lp_corner_leaks_less(self):
        assert TECH_65NM_LP.leakage_current_per_um < TECH_65NM_GP.leakage_current_per_um

    def test_dynamic_power_formula(self):
        assert dynamic_power(1e-15, 1.0, 1e9) == pytest.approx(1e-6)
        assert dynamic_power(1e-15, 1.0, 1e9, activity=0.5) == pytest.approx(0.5e-6)

    def test_dynamic_power_validation(self):
        with pytest.raises(CircuitError):
            dynamic_power(-1e-15, 1.0, 1e9)
        with pytest.raises(CircuitError):
            dynamic_power(1e-15, 1.0, 1e9, activity=2.0)

    def test_leakage_power(self):
        assert leakage_power(10.0) == pytest.approx(10.0 * TECH_65NM_GP.leakage_current_per_um)
        with pytest.raises(CircuitError):
            leakage_power(-1.0)

    def test_invalid_technology(self):
        with pytest.raises(CircuitError):
            Technology(supply_voltage=0.0)


class TestInverter:
    def test_paper_skew_ratio(self):
        inverter = Inverter()
        assert inverter.beta_ratio == pytest.approx(4.0)

    def test_minimum_width_enforced(self):
        with pytest.raises(CircuitError):
            Inverter(nmos_width_um=0.01)

    def test_skewed_inverter_has_asymmetric_delays(self):
        inverter = Inverter()
        # The PMOS is 4x wide but only ~half as strong per um, so rise is faster than fall.
        assert inverter.rise_delay() < inverter.fall_delay()

    def test_delay_increases_with_fanout(self):
        inverter = Inverter()
        assert inverter.propagation_delay(fanout=4) > inverter.propagation_delay(fanout=1)

    def test_fanout_validation(self):
        with pytest.raises(CircuitError):
            Inverter().load_capacitance(fanout=-1)

    def test_power_scales_with_frequency(self):
        inverter = Inverter()
        assert inverter.switching_power(2e9) == pytest.approx(2 * inverter.switching_power(1e9))

    def test_leakage_positive(self):
        assert Inverter().leakage() > 0


class TestRingOscillator:
    def test_odd_stage_count_required(self):
        with pytest.raises(CircuitError):
            RingOscillator(num_stages=10)
        with pytest.raises(CircuitError):
            RingOscillator(num_stages=1)

    def test_paper_rosc_hits_target_frequency(self):
        rosc = paper_rosc(ghz(1.3))
        assert rosc.natural_frequency / ghz(1.0) == pytest.approx(1.3, rel=0.02)
        assert rosc.num_stages == 11

    def test_frequency_decreases_with_more_stages(self):
        fast = RingOscillator(num_stages=5)
        slow = RingOscillator(num_stages=21)
        assert slow.natural_frequency < fast.natural_frequency

    def test_power_components(self):
        rosc = paper_rosc()
        assert rosc.dynamic_power() > 0
        assert rosc.leakage_power() > 0
        assert rosc.total_power() == pytest.approx(rosc.dynamic_power() + rosc.leakage_power())

    def test_power_scales_with_activity(self):
        rosc = paper_rosc()
        assert rosc.dynamic_power(activity=0.5) == pytest.approx(0.5 * rosc.dynamic_power(activity=1.0))

    def test_jitter_and_diffusion(self):
        rosc = paper_rosc()
        assert rosc.period_jitter_rms(0.01) == pytest.approx(0.01 * rosc.period)
        assert rosc.phase_noise_diffusion(0.01) > 0
        with pytest.raises(CircuitError):
            rosc.period_jitter_rms(-0.1)

    def test_scaled_to_invalid_frequency(self):
        with pytest.raises(CircuitError):
            RingOscillator().scaled_to_frequency(0.0)


class TestCoupling:
    def test_b2b_is_inverting(self):
        element = b2b_coupling(0.2)
        assert element.inverting
        assert element.effective_strength == pytest.approx(0.2)
        # Anti-phase preference = positive J under the Eq. (1) convention.
        assert element.ising_coupling() == pytest.approx(0.2)

    def test_gating(self):
        element = b2b_coupling(0.2)
        element.set_partition_enable(False)
        assert not element.is_conducting
        assert element.effective_strength == 0.0
        assert element.ising_coupling() == 0.0
        element.set_partition_enable(True)
        element.set_local_enable(False)
        assert not element.is_conducting

    def test_negative_strength_rejected(self):
        with pytest.raises(CircuitError):
            CouplingElement(strength=-0.1)

    def test_power_zero_when_gated(self):
        element = b2b_coupling(0.2)
        element.set_local_enable(False)
        assert element.switching_power(1.3e9) == 0.0
        element.set_local_enable(True)
        assert element.switching_power(1.3e9) > 0

    def test_non_inverting_sign(self):
        element = CouplingElement(strength=0.3, inverting=False)
        assert element.ising_coupling() == pytest.approx(-0.3)


class TestShil:
    def test_shil_runs_at_twice_the_frequency(self):
        source = shil1(ghz(1.3))
        assert source.frequency == pytest.approx(2 * ghz(1.3))
        assert source.order == 2

    def test_shil1_locks_at_0_and_180(self):
        assert np.allclose(shil1().lock_phases(), [0.0, np.pi])

    def test_shil2_locks_at_90_and_270(self):
        assert np.allclose(shil2().lock_phases(), [np.pi / 2, 3 * np.pi / 2])

    def test_n_shil_lock_count(self):
        source = ShilSource(order=3, fundamental_offset=0.0)
        assert source.num_lock_phases == 3
        assert np.allclose(source.lock_phases(), [0, 2 * np.pi / 3, 4 * np.pi / 3])

    def test_lock_phases_are_stable_points_of_the_restoring_torque(self):
        for source in (shil1(), shil2(), ShilSource(order=3, fundamental_offset=0.0)):
            locks = source.lock_phases()
            assert np.allclose(source.restoring_torque(locks), 0.0, atol=1e-12)
            # Slightly off a lock phase, the torque pushes back towards it.
            epsilon = 1e-3
            assert np.all(source.restoring_torque(locks + epsilon) < 0)
            assert np.all(source.restoring_torque(locks - epsilon) > 0)

    def test_value_is_bounded(self):
        source = shil1()
        times = np.linspace(0, 3 / source.frequency, 50)
        values = np.array([source.value(t) for t in times])
        assert np.all(np.abs(values) <= 1.0)

    def test_with_strength(self):
        assert shil1().with_strength(0.5).strength == 0.5

    def test_validation(self):
        with pytest.raises(CircuitError):
            ShilSource(order=1)
        with pytest.raises(CircuitError):
            ShilSource(strength=-0.1)
        with pytest.raises(CircuitError):
            ShilSource(waveform="triangle")
