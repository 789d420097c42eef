"""Back-to-back (B2B) inverter coupling element.

Couplings between ROSCs are realized with a pair of anti-parallel inverters.
Because the medium is inverting, the coupling is *negative*: it pushes the two
coupled oscillators towards opposite phases, which is exactly the
antiferromagnetic interaction needed for max-cut / coloring.  Each coupling is
gated by a global enable (``G_EN``), a local enable (``L_EN``, used to map the
problem) and a partition enable (``P_EN``, used to cut the graph between the
two MSROPM stages).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import CircuitError
from repro.circuit.inverter import Inverter
from repro.circuit.technology import TECH_65NM_GP, Technology, dynamic_power


@dataclass
class CouplingElement:
    """A gated B2B-inverter coupling between two ring oscillators.

    Attributes
    ----------
    strength:
        Normalized coupling strength (relative to the oscillator's intrinsic
        drive); the dynamics layer uses this directly as the Kuramoto coupling
        coefficient.  Positive values denote the physical B2B element whose
        *effect* is anti-phase (the sign convention is handled by the
        dynamics/Ising mapping, see :meth:`ising_coupling`).
    inverting:
        ``True`` for B2B inverters (anti-phase / negative Ising coupling),
        ``False`` for a non-inverting medium such as a pass-gate chain.
    inverter:
        Inverter model used for the two coupling devices (power estimation).
    enabled / partition_enabled:
        Local (``L_EN``) and partition (``P_EN``) gate states.  The coupling
        conducts only when both are asserted (and the global enable, which is
        tracked by the fabric, is on).
    """

    strength: float = 0.1
    inverting: bool = True
    inverter: Inverter = field(default_factory=Inverter)
    enabled: bool = True
    partition_enabled: bool = True

    def __post_init__(self) -> None:
        if self.strength < 0:
            raise CircuitError(f"coupling strength must be non-negative, got {self.strength}")

    # ------------------------------------------------------------------
    @property
    def is_conducting(self) -> bool:
        """``True`` when both the local and the partition enables are asserted."""
        return self.enabled and self.partition_enabled

    @property
    def effective_strength(self) -> float:
        """Coupling strength seen by the dynamics (0 when gated off)."""
        return self.strength if self.is_conducting else 0.0

    def ising_coupling(self) -> float:
        """Return the Ising ``J`` this element realizes under Eq. (1)'s convention.

        An inverting (B2B) element favours anti-phase alignment; since Eq. (1)
        carries no leading minus sign, anti-alignment preference corresponds to
        a *positive* ``J``.  (Circuit diagrams label the inverting medium
        "J < 0" — that refers to the medium being inverting, not to the sign of
        ``J`` in Eq. (1).)  A non-inverting element returns ``-strength``.
        """
        if not self.is_conducting:
            return 0.0
        return self.strength if self.inverting else -self.strength

    # ------------------------------------------------------------------
    def set_local_enable(self, value: bool) -> None:
        """Drive the ``L_EN`` gate (problem mapping)."""
        self.enabled = bool(value)

    def set_partition_enable(self, value: bool) -> None:
        """Drive the ``P_EN`` gate (stage-1 → stage-2 partitioning)."""
        self.partition_enabled = bool(value)

    # ------------------------------------------------------------------
    def switching_power(self, frequency: float, activity: float = 0.5) -> float:
        """Dynamic power of the two coupling inverters when conducting (watts)."""
        if not self.is_conducting:
            return 0.0
        load = self.inverter.load_capacitance(fanout=1)
        per_inverter = dynamic_power(load, self.inverter.technology.supply_voltage, frequency, activity)
        return 2.0 * per_inverter

    def leakage_power(self) -> float:
        """Static leakage of the two coupling inverters (watts)."""
        return 2.0 * self.inverter.leakage()


def b2b_coupling(strength: float = 0.1, technology: Technology = TECH_65NM_GP) -> CouplingElement:
    """Return the paper's gated B2B coupling element with minimum-size devices."""
    inverter = Inverter(
        nmos_width_um=technology.min_width_um * 2,
        pmos_width_um=technology.min_width_um * 4,
        technology=technology,
    )
    return CouplingElement(strength=strength, inverting=True, inverter=inverter)
