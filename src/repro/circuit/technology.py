"""65 nm CMOS technology constants used by the behavioural circuit models.

The paper implements the MSROPM in a 65 nm general-purpose (GP) process at
1 V.  Since no PDK is available here, the circuit layer uses representative
65 nm GP constants (gate capacitance per micron of width, effective drive
currents, leakage densities).  The values below are textbook-level estimates;
they are only used to produce power/delay numbers with the right order of
magnitude and the right scaling trends (Table 1's power column), not to
reproduce SPICE waveforms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import CircuitError
from repro.units import ff, ua


@dataclass(frozen=True)
class Technology:
    """A CMOS technology corner.

    Attributes
    ----------
    name:
        Human-readable label ("65nm-GP").
    supply_voltage:
        Nominal supply voltage in volts.
    gate_capacitance_per_um:
        Gate capacitance per micrometre of transistor width (farads).
    wire_capacitance_per_stage:
        Lumped local interconnect capacitance per inverter stage (farads).
    nmos_drive_current_per_um / pmos_drive_current_per_um:
        Effective saturation drive current per micrometre of width (amperes).
    leakage_current_per_um:
        Off-state leakage per micrometre of total width (amperes).
    min_width_um:
        Minimum transistor width in micrometres.
    """

    name: str = "65nm-GP"
    supply_voltage: float = 1.0
    gate_capacitance_per_um: float = ff(1.0)
    wire_capacitance_per_stage: float = ff(0.8)
    nmos_drive_current_per_um: float = ua(600.0)
    pmos_drive_current_per_um: float = ua(300.0)
    leakage_current_per_um: float = ua(0.2)
    min_width_um: float = 0.12

    def __post_init__(self) -> None:
        if self.supply_voltage <= 0:
            raise CircuitError(f"supply_voltage must be positive, got {self.supply_voltage}")
        if self.gate_capacitance_per_um <= 0:
            raise CircuitError("gate_capacitance_per_um must be positive")
        if self.nmos_drive_current_per_um <= 0 or self.pmos_drive_current_per_um <= 0:
            raise CircuitError("drive currents must be positive")
        if self.leakage_current_per_um < 0:
            raise CircuitError("leakage_current_per_um must be non-negative")
        if self.min_width_um <= 0:
            raise CircuitError("min_width_um must be positive")


#: Default technology used across the library — the paper's 65 nm GP, 1 V corner.
TECH_65NM_GP = Technology()

#: A low-power flavour (higher threshold → lower leakage, weaker drive), used in
#: the prior-work comparison to mimic the LP process of the 1,968-node ROIM.
TECH_65NM_LP = Technology(
    name="65nm-LP",
    supply_voltage=1.0,
    gate_capacitance_per_um=ff(1.1),
    wire_capacitance_per_stage=ff(0.8),
    nmos_drive_current_per_um=ua(420.0),
    pmos_drive_current_per_um=ua(210.0),
    leakage_current_per_um=ua(0.02),
    min_width_um=0.12,
)


def dynamic_power(capacitance: float, voltage: float, frequency: float, activity: float = 1.0) -> float:
    """Return the switching power ``alpha * C * V^2 * f`` in watts."""
    if capacitance < 0 or frequency < 0:
        raise CircuitError("capacitance and frequency must be non-negative")
    if not 0.0 <= activity <= 1.0:
        raise CircuitError(f"activity must be in [0, 1], got {activity}")
    return activity * capacitance * voltage * voltage * frequency


def leakage_power(total_width_um: float, technology: Technology = TECH_65NM_GP) -> float:
    """Return the static leakage power for ``total_width_um`` of transistor width."""
    if total_width_um < 0:
        raise CircuitError("total_width_um must be non-negative")
    return total_width_um * technology.leakage_current_per_um * technology.supply_voltage
