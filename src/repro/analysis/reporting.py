"""Plain-text rendering of tables and figure data.

The benchmark harness prints the same rows and series the paper reports;
these helpers format them as aligned ASCII tables and simple text histograms
so results are readable in terminal output and CI logs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import AnalysisError


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render an aligned ASCII table.

    Every row must have the same number of cells as ``headers``; cells are
    stringified with ``str``.
    """
    if not headers:
        raise AnalysisError("a table needs at least one column")
    str_rows: List[List[str]] = []
    for row in rows:
        if len(row) != len(headers):
            raise AnalysisError(
                f"row {row!r} has {len(row)} cells, expected {len(headers)}"
            )
        str_rows.append([str(cell) for cell in row])
    widths = [len(header) for header in headers]
    for row in str_rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("-+-".join("-" * width for width in widths))
    for row in str_rows:
        lines.append(render_row(row))
    return "\n".join(lines)


def present_accuracy(value: float, label: str = "accuracy") -> float:
    """Clamp an accuracy ratio into [0, 1] for display, warning when it exceeds 1.

    Accuracy *measurements* are raw ratios (``cut / reference``) and may
    legitimately exceed 1.0 when a solver beats a heuristic reference (see
    :meth:`repro.ising.maxcut.MaxCutProblem.accuracy`).  Reports and tables
    clip here — the one place allowed to — so better-than-reference results
    stay visible in the data and audible in the logs.
    """
    if value != value:  # NaN passes through; hiding it as 0.0 would misreport
        return value
    if value > 1.0:
        warnings.warn(
            f"{label} {value:.3f} exceeds its reference (better-than-reference "
            "result); clipping to 1.0 for display",
            stacklevel=2,
        )
        return 1.0
    return max(0.0, float(value))


def format_accuracy(value: float, digits: int = 3, label: str = "accuracy") -> str:
    """Format an accuracy ratio for a table cell (presentation-layer clipping, NaN-safe)."""
    presented = present_accuracy(value, label=label)
    if presented != presented:
        return "nan"
    return f"{presented:.{digits}f}"


@dataclass(frozen=True)
class FamilyAccuracySummary:
    """Aggregate accuracy of one workload family across its instances."""

    family: str
    count: int
    mean_accuracy: float
    best_accuracy: float


def summarize_accuracy_by_family(
    pairs: Iterable[Tuple[str, Sequence[float]]]
) -> List[FamilyAccuracySummary]:
    """Aggregate ``(family, accuracies)`` pairs into per-family summaries.

    Families appear in first-seen order; ``count`` is the number of pairs
    (instances) contributed, ``mean_accuracy`` averages over every value and
    ``best_accuracy`` is the overall maximum.  Used by the scenario-matrix
    experiment and the sweep reports to compare workload families at a glance.
    """
    grouped: Dict[str, List[float]] = {}
    counts: Dict[str, int] = {}
    for family, accuracies in pairs:
        values = [float(value) for value in accuracies]
        if not values:
            raise AnalysisError(f"family {family!r} contributed an empty accuracy list")
        grouped.setdefault(family, []).extend(values)
        counts[family] = counts.get(family, 0) + 1
    return [
        FamilyAccuracySummary(
            family=family,
            count=counts[family],
            mean_accuracy=float(np.mean(values)),
            best_accuracy=float(np.max(values)),
        )
        for family, values in grouped.items()
    ]


def format_campaign_report(stages: Sequence[object], title: str = "Campaign") -> str:
    """Render a campaign's per-stage execution accounting as a table.

    ``stages`` is a sequence of stage-report objects (duck-typed to avoid a
    dependency on :mod:`repro.campaigns`) carrying ``name``, ``requires``,
    ``state``, ``num_jobs``, ``jobs_run`` and ``served``: the orchestrator's
    :class:`~repro.campaigns.orchestrator.StageReport` and the CLI's status
    rows both qualify.  "Computed" counts jobs actually executed this
    invocation; "Served" counts jobs answered by the cache/memo/dedup — the
    number that makes a resumed campaign's zero-recompute property visible.
    """
    rows = [
        [
            stage.name,
            ", ".join(stage.requires) if stage.requires else "-",
            stage.state,
            stage.num_jobs,
            stage.jobs_run,
            stage.served,
        ]
        for stage in stages
    ]
    return format_table(
        ("Stage", "Requires", "State", "Jobs", "Computed", "Served"),
        rows,
        title=title,
    )


def summarize_campaign_totals(stages: Sequence[object]) -> Dict[str, int]:
    """Aggregate a campaign's stage reports into whole-run counters."""
    return {
        "stages": len(stages),
        "stages_passed": sum(1 for stage in stages if stage.state == "passed"),
        "jobs": sum(stage.num_jobs for stage in stages),
        "computed": sum(stage.jobs_run for stage in stages),
        "served": sum(stage.served for stage in stages),
    }


def format_power_mw(watts: float) -> str:
    """Format a power value in milliwatts, the unit of Table 1."""
    return f"{watts * 1e3:.1f} mW"


def format_search_space(num_nodes: int, num_colors: int) -> str:
    """Format the search-space size the way Table 1 does (``K^n``)."""
    return f"{num_colors}^{num_nodes}"


def text_histogram(
    values: Sequence[float],
    num_bins: int = 10,
    value_range: Optional[tuple] = None,
    width: int = 40,
    label: str = "",
) -> str:
    """Render a horizontal text histogram (used for the Fig. 5(c) data)."""
    if num_bins < 1:
        raise AnalysisError("num_bins must be at least 1")
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        return f"{label}(no data)"
    counts, edges = np.histogram(values, bins=num_bins, range=value_range)
    peak = counts.max() if counts.max() > 0 else 1
    lines = [label] if label else []
    for i, count in enumerate(counts):
        bar = "#" * int(round(width * count / peak))
        lines.append(f"[{edges[i]:.2f}, {edges[i + 1]:.2f}) {str(count).rjust(5)} {bar}")
    return "\n".join(lines)


def accuracy_series_text(accuracies: Sequence[float], label: str = "", per_line: int = 10) -> str:
    """Render a per-iteration accuracy series (the Fig. 5(a)/(b) data) as text."""
    values = list(accuracies)
    lines = [label] if label else []
    for start in range(0, len(values), per_line):
        chunk = values[start:start + per_line]
        lines.append(
            " ".join(f"{value:5.3f}" for value in chunk)
        )
    return "\n".join(lines)
