"""Power model of the MSROPM fabric.

Table 1 of the paper reports the average power of the four benchmark
implementations: 9.4 mW (49 nodes), 60.3 mW (400), 146.1 mW (1024) and
283.4 mW (2116) — i.e. roughly linear in the number of oscillators with a
per-node cost that shrinks slightly with size (fixed control overhead
amortizes, boundary oscillators have fewer couplings).

The model below builds the estimate bottom-up from the circuit blocks:

* per-ROSC switching + leakage power (11 stages at 1.3 GHz),
* per-coupling B2B switching power (active only while couplings are enabled),
* per-ROSC SHIL injector and read-out (DFF + reference buffer) power,
* a fixed controller overhead (clock generation, I/O, global enables).

The duty factors account for the control timeline: couplings are on for
roughly 5/6 of the 60 ns run and the SHIL injectors for 1/6 of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.exceptions import CircuitError
from repro.circuit.coupling import CouplingElement, b2b_coupling
from repro.circuit.ring_oscillator import RingOscillator, paper_rosc
from repro.units import as_mw, mw, uw


@dataclass
class PowerModel:
    """Bottom-up average-power estimator for an MSROPM fabric.

    Attributes
    ----------
    oscillator:
        The ROSC block model (default: the paper's 11-stage, 1.3 GHz ring).
    coupling:
        The B2B coupling element model.
    oscillator_activity:
        Effective switching-activity factor of the ROSC stages; below 1.0 it
        accounts for the reduced swing of injection-locked operation and for
        the intervals where the ring is disabled.
    coupling_duty / shil_duty:
        Fraction of the run during which couplings / SHIL injection are active
        (from the 60 ns control timeline: ~5/6 and ~1/6 respectively).
    readout_power_per_node:
        Power of the 4-DFF read-out and reference buffering per oscillator.
    controller_power:
        Fixed power of the global controller, clock generation and I/O.
    """

    oscillator: RingOscillator = field(default_factory=paper_rosc)
    coupling: CouplingElement = field(default_factory=b2b_coupling)
    oscillator_activity: float = 0.48
    coupling_duty: float = 5.0 / 6.0
    shil_duty: float = 1.0 / 6.0
    shil_injector_power: float = uw(8.0)
    readout_power_per_node: float = uw(6.0)
    controller_power: float = mw(2.0)

    def __post_init__(self) -> None:
        for name in ("oscillator_activity", "coupling_duty", "shil_duty"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise CircuitError(f"{name} must be in [0, 1], got {value}")
        for name in ("shil_injector_power", "readout_power_per_node", "controller_power"):
            if getattr(self, name) < 0:
                raise CircuitError(f"{name} must be non-negative")

    # ------------------------------------------------------------------
    def oscillator_power(self) -> float:
        """Average power of one ROSC block (watts)."""
        dynamic = self.oscillator.dynamic_power(activity=self.oscillator_activity)
        return dynamic + self.oscillator.leakage_power()

    def coupling_power(self) -> float:
        """Average power of one enabled coupling element (watts)."""
        switching = self.coupling.switching_power(self.oscillator.natural_frequency)
        return self.coupling_duty * switching + self.coupling.leakage_power()

    def per_node_overhead(self) -> float:
        """SHIL injector plus read-out power per oscillator (watts)."""
        return self.shil_duty * self.shil_injector_power + self.readout_power_per_node

    def total_power(self, num_nodes: int, num_edges: int) -> float:
        """Average power of a fabric with ``num_nodes`` ROSCs and ``num_edges`` couplings."""
        if num_nodes < 0 or num_edges < 0:
            raise CircuitError("num_nodes and num_edges must be non-negative")
        return (
            num_nodes * (self.oscillator_power() + self.per_node_overhead())
            + num_edges * self.coupling_power()
            + self.controller_power
        )

    def power_breakdown(self, num_nodes: int, num_edges: int) -> Dict[str, float]:
        """Return the per-component contributions in watts."""
        if num_nodes < 0 or num_edges < 0:
            raise CircuitError("num_nodes and num_edges must be non-negative")
        return {
            "oscillators": num_nodes * self.oscillator_power(),
            "couplings": num_edges * self.coupling_power(),
            "shil_and_readout": num_nodes * self.per_node_overhead(),
            "controller": self.controller_power,
        }

    def total_power_mw(self, num_nodes: int, num_edges: int) -> float:
        """Average power in milliwatts (the unit of Table 1)."""
        return as_mw(self.total_power(num_nodes, num_edges))


#: Power figures reported by the paper (Table 1), in milliwatts, keyed by node count.
PAPER_POWER_MW = {49: 9.4, 400: 60.3, 1024: 146.1, 2116: 283.4}
