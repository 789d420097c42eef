"""SHIL selection multiplexer and per-oscillator injection gating.

Each ROSC block receives both SHIL signals through a 2:1 MUX (Fig. 4(a)):
``SHIL_SEL`` picks which of the two phase-shifted SHILs is forwarded and
``SHIL_EN`` gates the injection entirely (the PMOS injector is off during the
free-running annealing intervals).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import CircuitError
from repro.circuit.shil import ShilSource


@dataclass
class ShilMux:
    """A 2:1 SHIL multiplexer with an enable gate.

    Attributes
    ----------
    shil_a / shil_b:
        The two selectable SHIL sources (the paper's SHIL 1 and SHIL 2).
    select:
        ``0`` forwards ``shil_a``, ``1`` forwards ``shil_b`` (``SHIL_SEL``).
    enabled:
        ``SHIL_EN``; when ``False`` no injection reaches the oscillator.
    """

    shil_a: ShilSource
    shil_b: ShilSource
    select: int = 0
    enabled: bool = False

    def __post_init__(self) -> None:
        if self.select not in (0, 1):
            raise CircuitError(f"select must be 0 or 1, got {self.select}")

    # ------------------------------------------------------------------
    @property
    def active_source(self) -> Optional[ShilSource]:
        """The SHIL source currently reaching the oscillator, or ``None``."""
        if not self.enabled:
            return None
        return self.shil_a if self.select == 0 else self.shil_b

    def set_select(self, value: int) -> None:
        """Drive ``SHIL_SEL``."""
        if value not in (0, 1):
            raise CircuitError(f"select must be 0 or 1, got {value}")
        self.select = value

    def set_enabled(self, value: bool) -> None:
        """Drive ``SHIL_EN``."""
        self.enabled = bool(value)

    def injection_strength(self) -> float:
        """Effective injection strength delivered to the oscillator."""
        source = self.active_source
        return source.strength if source is not None else 0.0

    def fundamental_offset(self) -> float:
        """Fundamental lock-grid offset of the active source (0 when disabled)."""
        source = self.active_source
        return source.fundamental_offset if source is not None else 0.0
