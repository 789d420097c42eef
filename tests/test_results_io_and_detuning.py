"""Tests for solve-result serialization and the process-variation (detuning) feature."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import AnalysisError, ConfigurationError
from repro.analysis import solve_result_from_dict, solve_result_to_dict
from repro.core import MSROPM, MSROPMConfig
from repro.experiments import run_detuning_ablation
from repro.graphs import kings_graph


class TestResultsIO:
    def _solve(self, fast_config):
        machine = MSROPM(kings_graph(4, 4), fast_config)
        return machine.solve(iterations=3, seed=9)

    def test_round_trip_preserves_everything_relevant(self, fast_config):
        result = self._solve(fast_config)
        loaded = solve_result_from_dict(json.loads(json.dumps(solve_result_to_dict(result))))
        assert loaded.num_iterations == result.num_iterations
        assert loaded.num_colors == result.num_colors
        assert np.allclose(loaded.accuracies, result.accuracies)
        assert np.allclose(loaded.stage1_accuracies, result.stage1_accuracies)
        for original, restored in zip(result.iterations, loaded.iterations):
            assert restored.seed == original.seed
            assert restored.coloring.assignment == original.coloring.assignment
            assert restored.run_time == pytest.approx(original.run_time)
            for stage_a, stage_b in zip(original.stage_results, restored.stage_results):
                assert stage_b.cut_value == stage_a.cut_value
                assert stage_b.partition.side_b == stage_a.partition.side_b

    def test_dict_round_trip_without_files(self, fast_config):
        from repro.analysis.results_io import FORMAT_VERSION, SCHEMA

        result = self._solve(fast_config)
        payload = solve_result_to_dict(result)
        assert payload["schema"] == SCHEMA
        assert payload["format_version"] == FORMAT_VERSION
        rebuilt = solve_result_from_dict(json.loads(json.dumps(payload)))
        assert np.allclose(rebuilt.accuracies, result.accuracies)

    def test_malformed_payload_rejected(self):
        from repro.analysis.results_io import SCHEMA

        with pytest.raises(AnalysisError):
            solve_result_from_dict({"iterations": []})
        with pytest.raises(AnalysisError):
            solve_result_from_dict(
                {"graph": {}, "iterations": [], "schema": SCHEMA, "format_version": 99, "num_colors": 4}
            )

    def test_schema_mismatch_rejected(self, fast_config):
        """Version-1 payloads (no schema field) and foreign schemas must not load."""
        payload = solve_result_to_dict(self._solve(fast_config))
        legacy = dict(payload)
        del legacy["schema"]
        legacy["format_version"] = 1
        with pytest.raises(AnalysisError):
            solve_result_from_dict(legacy)
        foreign = dict(payload)
        foreign["schema"] = "someone-else/results"
        with pytest.raises(AnalysisError):
            solve_result_from_dict(foreign)

class TestFrequencyDetuning:
    def test_config_validation(self):
        assert MSROPMConfig(frequency_detuning_std=0.01).frequency_detuning_rate_std > 0
        with pytest.raises(ConfigurationError):
            MSROPMConfig(frequency_detuning_std=-0.01)
        with pytest.raises(ConfigurationError):
            MSROPMConfig(frequency_detuning_std=0.2)

    def test_detuning_rate_scales_with_frequency(self):
        config = MSROPMConfig(frequency_detuning_std=0.01)
        assert config.frequency_detuning_rate_std == pytest.approx(0.01 * 2 * np.pi * 1.3e9)

    def test_detuning_rate_is_relative_fraction_times_angular_frequency(self):
        """Pin the unit relationship between the two detuning knobs.

        ``frequency_detuning_std`` is a dimensionless *fraction* of the
        oscillator frequency; ``frequency_detuning_rate_std`` is its exact
        rad/s conversion: ``fraction * 2*pi*f`` (= ``fraction *
        angular_frequency``), for every frequency.
        """
        for frequency, fraction in ((1.3e9, 0.01), (2.0e9, 0.003), (5.0e8, 0.05)):
            config = MSROPMConfig(
                oscillator_frequency=frequency, frequency_detuning_std=fraction
            )
            assert config.frequency_detuning_rate_std == fraction * config.angular_frequency
            assert config.frequency_detuning_rate_std == pytest.approx(
                fraction * 2.0 * np.pi * frequency, rel=1e-15
            )
        # The idealized default draws no mismatch at all.
        assert MSROPMConfig().frequency_detuning_rate_std == 0.0

    def test_machine_draws_mismatch_with_rate_std(self, fast_config):
        """The machine's static mismatch is drawn in rad/s (the converted knob)."""
        config = fast_config.with_updates(frequency_detuning_std=0.01, seed=11)
        machine = MSROPM(kings_graph(5, 5), config)
        from repro.rng import make_rng

        expected = make_rng(config.seed).normal(
            0.0, config.frequency_detuning_rate_std, size=25
        )
        assert np.array_equal(machine._frequency_detuning, expected)

    def test_small_detuning_keeps_accuracy_high(self, fast_config):
        """Injection locking tolerates sub-percent mismatch (flat accuracy)."""
        graph = kings_graph(5, 5)
        ideal = MSROPM(graph, fast_config).solve(iterations=3, seed=4)
        mismatched = MSROPM(
            graph, fast_config.with_updates(frequency_detuning_std=0.002)
        ).solve(iterations=3, seed=4)
        assert mismatched.best_accuracy >= ideal.best_accuracy - 0.1

    def test_detuning_changes_outcomes(self, fast_config):
        graph = kings_graph(5, 5)
        ideal = MSROPM(graph, fast_config).run_iteration(seed=6)
        mismatched = MSROPM(
            graph, fast_config.with_updates(frequency_detuning_std=0.02)
        ).run_iteration(seed=6)
        assert mismatched.coloring.assignment != ideal.coloring.assignment

    def test_detuning_is_static_per_machine(self, fast_config):
        """The same machine instance re-uses its mismatch across iterations (like silicon)."""
        config = fast_config.with_updates(frequency_detuning_std=0.01, seed=42)
        machine = MSROPM(kings_graph(4, 4), config)
        assert machine._frequency_detuning is not None
        first = machine._frequency_detuning.copy()
        machine.run_iteration(seed=1)
        assert np.array_equal(machine._frequency_detuning, first)
        # A second machine with the same seed draws the same mismatch.
        other = MSROPM(kings_graph(4, 4), config)
        assert np.allclose(other._frequency_detuning, first)

    def test_detuning_ablation_runs(self, fast_config):
        sweep = run_detuning_ablation(
            rows=4, detuning_stds=(0.0, 0.01), iterations=2, config=fast_config, seed=19
        )
        assert len(sweep.points) == 2
        assert sweep.parameter_names == ["frequency_detuning_std"]
