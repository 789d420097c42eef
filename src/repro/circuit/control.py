"""Stage timing of the MSROPM control sequence (Fig. 3).

The machine's operation is clocked by a fixed sequence of control events:
random initialization, coupled self-annealing, SHIL-1 binarization and
read-out, partitioning, a second self-annealing interval, and the final
two-SHIL discretization and read-out.  :class:`TimingPlan` holds the interval
durations every stage runner, the waveform reconstruction and the power model
share.

The default durations are the paper's: 5 ns initialization, 20 ns per
annealing stage, 5 ns per SHIL stabilization/read-out — 60 ns end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import StageError
from repro.units import ns


@dataclass(frozen=True)
class TimingPlan:
    """The paper's stage durations, in seconds.

    Defaults follow Section 4.1: 5 ns random initialization, 20 ns coupled
    annealing per stage, 5 ns SHIL stabilization + read-out per stage.
    """

    initialization: float = ns(5.0)
    annealing: float = ns(20.0)
    shil_settling: float = ns(5.0)

    def __post_init__(self) -> None:
        for name in ("initialization", "annealing", "shil_settling"):
            if getattr(self, name) <= 0:
                raise StageError(f"{name} must be positive")

    def total_for_stages(self, num_binary_stages: int) -> float:
        """Total run time for a ``num_binary_stages``-stage solve.

        Each binary (max-cut) stage contributes an initialization interval, an
        annealing interval and a SHIL settling/read-out interval; that matches
        the paper's 60 ns for the 2-stage 4-coloring run.
        """
        if num_binary_stages < 1:
            raise StageError(f"num_binary_stages must be at least 1, got {num_binary_stages}")
        return num_binary_stages * (self.initialization + self.annealing + self.shil_settling)
