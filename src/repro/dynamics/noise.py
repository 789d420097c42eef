"""Phase-noise and random-initialization models.

The paper obtains random initial conditions by turning the ROSCs on at random
instants and letting jitter decorrelate them for an empirically chosen
interval.  In the phase-domain model this corresponds to (a) drawing the
initial phases uniformly at random and (b) adding a white phase-noise term
(a Wiener process) during the free-running intervals.  The diffusion constant
is derived from the ring oscillator's cycle-to-cycle jitter.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SimulationError
from repro.rng import SeedLike, make_rng


def random_initial_phases(num_oscillators: int, seed: SeedLike = None) -> np.ndarray:
    """Uniformly random initial phases in ``[0, 2*pi)``.

    Models the random start-up instants of the ROSCs: by the time the
    couplings are enabled, the phases are decorrelated and uniformly spread.

    With a plain seed or generator the result is ``(num_oscillators,)``; with
    a :class:`repro.rng.ReplicaRNG` of R replicas it is ``(R, num_oscillators)``,
    each row drawn from that replica's own stream.
    """
    if num_oscillators < 0:
        raise SimulationError("num_oscillators must be non-negative")
    rng = make_rng(seed)
    return rng.uniform(0.0, 2.0 * np.pi, size=num_oscillators)


def perturbed_phases(phases: np.ndarray, amplitude: float, seed: SeedLike = None) -> np.ndarray:
    """Return ``phases`` plus a uniform perturbation in ``[-amplitude, amplitude]``.

    Used between the two MSROPM stages: the oscillators keep their stage-1
    phases (compute-in-memory) but accumulate a small amount of jitter during
    the re-initialization interval before the second annealing begins.

    ``phases`` may be ``(N,)`` or a batched ``(R, N)`` array; pass a
    :class:`repro.rng.ReplicaRNG` in the batched case so each replica row
    perturbs from its own stream.
    """
    if amplitude < 0:
        raise SimulationError(f"amplitude must be non-negative, got {amplitude}")
    rng = make_rng(seed)
    phases = np.asarray(phases, dtype=float)
    return phases + rng.uniform(-amplitude, amplitude, size=phases.shape)
