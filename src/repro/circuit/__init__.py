"""Behavioural circuit layer: 65 nm blocks of the MSROPM (Fig. 4 of the paper)."""

from repro.circuit.technology import (
    TECH_65NM_GP,
    TECH_65NM_LP,
    Technology,
    dynamic_power,
    leakage_power,
)
from repro.circuit.inverter import Inverter, ROSC_INVERTER
from repro.circuit.ring_oscillator import RingOscillator, paper_rosc
from repro.circuit.coupling import CouplingElement, b2b_coupling
from repro.circuit.shil import (
    SHIL1_FUNDAMENTAL_OFFSET,
    SHIL2_FUNDAMENTAL_OFFSET,
    ShilSource,
    shil1,
    shil2,
)
from repro.circuit.dff import DFlipFlop, ReferenceSignal, reference_bank
from repro.circuit.mux import ShilMux
from repro.circuit.readout import PhaseReadout
from repro.circuit.control import (
    TimingPlan,
)
from repro.circuit.power import PAPER_POWER_MW, PowerModel
from repro.circuit.netlist import FabricNetlist

__all__ = [
    "Technology",
    "TECH_65NM_GP",
    "TECH_65NM_LP",
    "dynamic_power",
    "leakage_power",
    "Inverter",
    "ROSC_INVERTER",
    "RingOscillator",
    "paper_rosc",
    "CouplingElement",
    "b2b_coupling",
    "ShilSource",
    "shil1",
    "shil2",
    "SHIL1_FUNDAMENTAL_OFFSET",
    "SHIL2_FUNDAMENTAL_OFFSET",
    "DFlipFlop",
    "ReferenceSignal",
    "reference_bank",
    "ShilMux",
    "PhaseReadout",
    "TimingPlan",
    "PowerModel",
    "PAPER_POWER_MW",
    "FabricNetlist",
]
