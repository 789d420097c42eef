"""Tests for the analysis layer: statistics, reporting, sweeps and the comparison table."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import AnalysisError
from repro.analysis import (
    ComparisonRow,
    ComparisonTable,
    IterationStatistics,
    LITERATURE_ROWS,
    accuracy_range_text,
    accuracy_series_text,
    annealing_time_sweep,
    coupling_strength_sweep,
    format_power_mw,
    format_search_space,
    format_table,
    shil_strength_sweep,
    sweep_configuration,
    text_histogram,
    time_to_solution,
)
from repro.core import MSROPM
from repro.graphs import kings_graph


class TestStatistics:
    def _result(self, fast_config, accuracies=None):
        machine = MSROPM(kings_graph(4, 4), fast_config)
        return machine.solve(iterations=3, seed=1)

    def test_iteration_statistics_from_result(self, fast_config):
        result = self._result(fast_config)
        stats = IterationStatistics.from_result(result)
        assert stats.num_iterations == 3
        assert stats.worst_accuracy <= stats.mean_accuracy <= stats.best_accuracy
        assert 0.0 <= stats.success_probability <= 1.0
        assert set(stats.as_dict()) >= {"best", "worst", "mean", "std", "exact"}

    def test_time_to_solution_formula(self):
        assert time_to_solution(60e-9, 1.0) == pytest.approx(60e-9)
        assert math.isinf(time_to_solution(60e-9, 0.0))
        halfway = time_to_solution(60e-9, 0.5, target_confidence=0.99)
        assert halfway == pytest.approx(60e-9 * math.log(0.01) / math.log(0.5))

    def test_time_to_solution_validation(self):
        with pytest.raises(AnalysisError):
            time_to_solution(-1.0, 0.5)
        with pytest.raises(AnalysisError):
            time_to_solution(1.0, 0.5, target_confidence=1.5)

class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(("name", "value"), [["a", 1], ["long-name", 22]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_validation(self):
        with pytest.raises(AnalysisError):
            format_table((), [])
        with pytest.raises(AnalysisError):
            format_table(("a",), [[1, 2]])

    def test_format_helpers(self):
        assert format_power_mw(0.2834) == "283.4 mW"
        assert format_search_space(2116, 4) == "4^2116"

    def test_text_histogram(self):
        art = text_histogram([0.1, 0.1, 0.5, 0.9], num_bins=4, value_range=(0, 1), label="H")
        lines = art.splitlines()
        assert lines[0] == "H"
        assert len(lines) == 5
        assert text_histogram([], num_bins=3).endswith("(no data)")

    def test_text_histogram_validation(self):
        with pytest.raises(AnalysisError):
            text_histogram([0.5], num_bins=0)

    def test_accuracy_series_text(self):
        text = accuracy_series_text([0.9] * 25, label="series", per_line=10)
        lines = text.splitlines()
        assert lines[0] == "series"
        assert len(lines) == 4


class TestSweeps:
    def test_coupling_sweep_skips_invalid_points(self, fast_config):
        graph = kings_graph(4, 4)
        sweep = coupling_strength_sweep(graph, [0.05, 0.1, 0.9], base_config=fast_config, iterations=2, seed=1)
        # 0.9 exceeds the oscillation-quenching cap and is skipped.
        assert len(sweep.points) == 2
        assert sweep.parameter_names == ["coupling_strength"]
        best = sweep.best_point()
        assert best.mean_accuracy >= min(point.mean_accuracy for point in sweep.points)
        assert len(sweep.as_rows()) == 2

    def test_shil_sweep(self, fast_config):
        graph = kings_graph(4, 4)
        sweep = shil_strength_sweep(graph, [0.1, 0.25], base_config=fast_config, iterations=2, seed=2)
        assert len(sweep.points) == 2

    def test_annealing_time_sweep(self, fast_config):
        from repro.units import ns

        graph = kings_graph(4, 4)
        sweep = annealing_time_sweep(graph, [ns(2.0), ns(6.0)], base_config=fast_config, iterations=2, seed=3)
        assert len(sweep.points) == 2

    def test_sweep_validation(self, fast_config):
        graph = kings_graph(3, 3)
        with pytest.raises(AnalysisError):
            sweep_configuration(graph, fast_config, {}, iterations=1)
        with pytest.raises(AnalysisError):
            sweep_configuration(graph, fast_config, {"coupling_strength": [0.1]}, iterations=0)
        empty = sweep_configuration(graph, fast_config, {"coupling_strength": [5.0]}, iterations=1)
        with pytest.raises(AnalysisError):
            empty.best_point()


class TestComparisonTable:
    def test_row_rendering(self):
        row = ComparisonRow(
            label="MSROPM",
            solver_type="Potts",
            solved_cop="4-coloring",
            technology="CMOS 65nm GP",
            spins=2116,
            average_power_w=0.2834,
            time_to_solution_s=60e-9,
            accuracy_range="96%-97%",
            baseline="Exact solution",
        )
        cells = row.cells()
        assert "283.4 mW" in cells
        assert "60 ns" in cells

    def test_dnr_rendering(self):
        row = LITERATURE_ROWS[1]
        cells = row.cells()
        assert cells[5] == "DNR"
        assert cells[6] == "DNR"

    def test_microsecond_rendering(self):
        assert "500 us" in LITERATURE_ROWS[0].cells()

    def test_table_with_literature(self):
        table = ComparisonTable()
        table.add_row(LITERATURE_ROWS[0])
        merged = table.with_literature()
        assert len(merged.rows) == 1 + len(LITERATURE_ROWS)
        text = merged.render()
        assert "Implementation" in text
        assert "ROIM [8]" in text

    def test_empty_table_render(self):
        with pytest.raises(AnalysisError):
            ComparisonTable().render()

    def test_accuracy_range_text(self):
        assert accuracy_range_text(0.92, 0.98) == "92%-98%"
        with pytest.raises(AnalysisError):
            accuracy_range_text(0.99, 0.9)
        with pytest.raises(AnalysisError):
            accuracy_range_text(-0.1, 0.5)
