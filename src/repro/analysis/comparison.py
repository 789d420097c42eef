"""Prior-work comparison (Table 2).

Table 2 of the paper compares the MSROPM against other Potts and Ising
machines along: solver type, solved COP, technology, spin count, average
power, time to solution, accuracy range, and baseline.  The rows fall into
two groups here:

* *measured rows* — architectures this repository re-implements on the same
  phase-domain substrate (the MSROPM itself, the single-stage N-SHIL ROPM, the
  ROIM max-cut machine); their numbers come from running the code.
* *literature rows* — optical/hybrid machines that cannot be re-implemented
  meaningfully in this substrate; their numbers are carried over from the
  paper's table (clearly marked as cited).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.exceptions import AnalysisError
from repro.analysis.reporting import format_table


@dataclass(frozen=True)
class ComparisonRow:
    """One row of the Table 2 comparison."""

    label: str
    solver_type: str
    solved_cop: str
    technology: str
    spins: int
    average_power_w: Optional[float]
    time_to_solution_s: Optional[float]
    accuracy_range: str
    baseline: str
    source: str = "measured"

    def cells(self) -> List[str]:
        """Render the row's cells as strings."""
        power = "DNR" if self.average_power_w is None else f"{self.average_power_w * 1e3:.1f} mW"
        if self.time_to_solution_s is None:
            time_text = "DNR"
        elif self.time_to_solution_s >= 1e-6:
            time_text = f"{self.time_to_solution_s * 1e6:.0f} us"
        else:
            time_text = f"{self.time_to_solution_s * 1e9:.0f} ns"
        return [
            self.label,
            self.solver_type,
            self.solved_cop,
            self.technology,
            str(self.spins),
            power,
            time_text,
            self.accuracy_range,
            self.baseline,
            self.source,
        ]


#: Literature rows of Table 2 that are cited, not re-measured (optical machines).
LITERATURE_ROWS = (
    ComparisonRow(
        label="CPM [13]",
        solver_type="Potts",
        solved_cop="4-coloring",
        technology="Optical & Digital",
        spins=47,
        average_power_w=None,
        time_to_solution_s=500e-6,
        accuracy_range="50% success rate",
        baseline="Exact solution",
        source="cited",
    ),
    ComparisonRow(
        label="Optical Potts [11]",
        solver_type="Potts",
        solved_cop="3-coloring",
        technology="Optical",
        spins=30,
        average_power_w=None,
        time_to_solution_s=None,
        accuracy_range="50%-100%",
        baseline="Exact solution",
        source="cited",
    ),
    ComparisonRow(
        label="RTWOIM [9]",
        solver_type="Ising",
        solved_cop="Max-Cut",
        technology="CMOS 65nm GP",
        spins=2750,
        average_power_w=17.48,
        time_to_solution_s=10e-9,
        accuracy_range="91%-94%",
        baseline="SA",
        source="cited",
    ),
    ComparisonRow(
        label="ROIM [8]",
        solver_type="Ising",
        solved_cop="Max-Cut",
        technology="CMOS 65nm LP",
        spins=1968,
        average_power_w=42e-3,
        time_to_solution_s=50e-9,
        accuracy_range="89%-100%",
        baseline="Tabu",
        source="cited",
    ),
)

TABLE2_HEADERS = (
    "Implementation",
    "Solver type",
    "Solved COP",
    "Technology",
    "Spins",
    "Average power",
    "Time to solution",
    "Accuracy",
    "Baseline",
    "Source",
)


@dataclass
class ComparisonTable:
    """A Table 2-style comparison: measured rows plus cited literature rows."""

    rows: List[ComparisonRow] = field(default_factory=list)

    def add_row(self, row: ComparisonRow) -> None:
        """Append a row."""
        self.rows.append(row)

    def with_literature(self) -> "ComparisonTable":
        """Return a copy with the cited literature rows appended."""
        return ComparisonTable(rows=list(self.rows) + list(LITERATURE_ROWS))

    def render(self, title: str = "Table 2: comparison with prior work") -> str:
        """Render the table as aligned ASCII text."""
        if not self.rows:
            raise AnalysisError("comparison table has no rows")
        return format_table(TABLE2_HEADERS, [row.cells() for row in self.rows], title=title)


def accuracy_range_text(worst: float, best: float) -> str:
    """Format an accuracy range the way Table 2 does (``worst%-best%``).

    Accuracy measurements are raw ratios and may exceed 1.0 against heuristic
    references (e.g. the ROIM row's striping cut); this presentation helper
    clips them to 100% — with a warning — via :func:`present_accuracy`.
    """
    import math

    from repro.analysis.reporting import present_accuracy

    if math.isnan(worst) or math.isnan(best):
        raise AnalysisError("accuracies must not be NaN")
    if worst < 0.0 or best < 0.0:
        raise AnalysisError("accuracies must be non-negative")
    if best < worst:
        raise AnalysisError("best accuracy must be >= worst accuracy")
    worst = present_accuracy(worst, label="worst accuracy")
    best = present_accuracy(best, label="best accuracy")
    return f"{worst * 100:.0f}%-{best * 100:.0f}%"
