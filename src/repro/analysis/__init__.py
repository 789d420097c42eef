"""Analysis layer: statistics, sweeps, comparisons and text reporting."""

from repro.analysis.statistics import (
    IterationStatistics,
    time_to_solution,
)
from repro.analysis.reporting import (
    FamilyAccuracySummary,
    accuracy_series_text,
    format_accuracy,
    format_power_mw,
    format_search_space,
    format_table,
    present_accuracy,
    summarize_accuracy_by_family,
    text_histogram,
)
from repro.analysis.sweep import (
    SweepPoint,
    SweepResult,
    annealing_time_sweep,
    coupling_strength_sweep,
    shil_strength_sweep,
    sweep_configuration,
)
from repro.analysis.comparison import (
    LITERATURE_ROWS,
    TABLE2_HEADERS,
    ComparisonRow,
    ComparisonTable,
    accuracy_range_text,
)
from repro.analysis.results_io import (
    solve_result_from_dict,
    solve_result_to_dict,
)

__all__ = [
    "IterationStatistics",
    "time_to_solution",
    "format_table",
    "format_power_mw",
    "format_search_space",
    "format_accuracy",
    "present_accuracy",
    "FamilyAccuracySummary",
    "summarize_accuracy_by_family",
    "text_histogram",
    "accuracy_series_text",
    "SweepPoint",
    "SweepResult",
    "sweep_configuration",
    "coupling_strength_sweep",
    "shil_strength_sweep",
    "annealing_time_sweep",
    "ComparisonRow",
    "ComparisonTable",
    "LITERATURE_ROWS",
    "TABLE2_HEADERS",
    "accuracy_range_text",
    "solve_result_to_dict",
    "solve_result_from_dict",
]
