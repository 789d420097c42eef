"""Tests for the unit helpers and RNG management."""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.rng import iteration_seeds, make_rng


class TestUnits:
    def test_nanoseconds(self):
        assert units.ns(5.0) == pytest.approx(5e-9)

    def test_gigahertz(self):
        assert units.ghz(1.3) == pytest.approx(1.3e9)

    def test_milliwatts(self):
        assert units.mw(9.4) == pytest.approx(9.4e-3)

    def test_femtofarads(self):
        assert units.ff(2.3) == pytest.approx(2.3e-15)

    def test_round_trip_power(self):
        assert units.as_mw(units.mw(283.4)) == pytest.approx(283.4)

    def test_microamperes(self):
        assert units.ua(600.0) == pytest.approx(6e-4)


class TestRng:
    def test_make_rng_deterministic(self):
        a = make_rng(42).integers(0, 1000, size=10)
        b = make_rng(42).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_make_rng_passthrough(self):
        generator = np.random.default_rng(0)
        assert make_rng(generator) is generator

    def test_iteration_seeds_deterministic(self):
        assert iteration_seeds(5, 4) == iteration_seeds(5, 4)

    def test_iteration_seeds_distinct(self):
        seeds = iteration_seeds(5, 40)
        assert len(set(seeds)) == 40

    def test_iteration_seeds_count_validation(self):
        with pytest.raises(ValueError):
            iteration_seeds(0, -2)
