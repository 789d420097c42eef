"""Small SI-unit helpers used throughout the circuit and timing models.

The circuit layer works internally in SI base units (seconds, hertz, watts,
volts, farads, amps).  The paper quotes values in engineering units (ns, GHz,
mW, fF); these helpers make those conversions explicit and readable at call
sites, e.g. ``ns(20)`` or ``as_mw(power)``.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Prefix multipliers
# ---------------------------------------------------------------------------
GIGA = 1e9
MILLI = 1e-3
MICRO = 1e-6
NANO = 1e-9
FEMTO = 1e-15


def ns(value: float) -> float:
    """Convert nanoseconds to seconds."""
    return value * NANO


def ghz(value: float) -> float:
    """Convert gigahertz to hertz."""
    return value * GIGA


def mw(value: float) -> float:
    """Convert milliwatts to watts."""
    return value * MILLI


def uw(value: float) -> float:
    """Convert microwatts to watts."""
    return value * MICRO


def ff(value: float) -> float:
    """Convert femtofarads to farads."""
    return value * FEMTO


def ua(value: float) -> float:
    """Convert microamperes to amperes."""
    return value * MICRO


def as_mw(watts: float) -> float:
    """Express a power in milliwatts."""
    return watts / MILLI
