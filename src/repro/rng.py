"""Seed and random-number-generator management.

Every stochastic component in the library (initial oscillator phases, phase
noise, annealing baselines) draws randomness from a :class:`numpy.random.Generator`
obtained through this module, so a single integer seed makes a full experiment
reproducible while independent iterations still receive decorrelated streams.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

SeedLike = Union[
    None,
    int,
    np.random.Generator,
    np.random.SeedSequence,
    "ReplicaRNG",
    "ThroughputRNG",
]


class ReplicaRNG:
    """A bundle of per-replica generators with a batched draw interface.

    Batched (replica-parallel) runs need randomness that is *bit-identical* to
    running each replica sequentially with its own seed.  ``ReplicaRNG`` holds
    one :class:`numpy.random.Generator` per replica and serves draws of shape
    ``(R, ...)`` by stacking one ``(...)`` draw from each replica's generator,
    so every replica consumes its stream in exactly the order a sequential run
    with that replica's generator would.

    The object quacks like a generator for the draw methods the solver uses
    (``standard_normal``, ``normal``, ``uniform``), which lets the noise
    helpers and integrators stay agnostic of whether they drive one replica or
    a batch.
    """

    def __init__(self, generators: Sequence[np.random.Generator]) -> None:
        generators = list(generators)
        if not generators:
            raise ValueError("ReplicaRNG needs at least one generator")
        for generator in generators:
            if not isinstance(generator, np.random.Generator):
                raise TypeError(f"expected numpy Generators, got {type(generator)!r}")
        self.generators = generators

    @classmethod
    def from_seeds(cls, seeds: Sequence[SeedLike]) -> "ReplicaRNG":
        """Build one generator per seed (the per-iteration seeds of a solve)."""
        return cls([make_rng(seed) for seed in seeds])

    @property
    def num_replicas(self) -> int:
        """Number of independent replica streams."""
        return len(self.generators)

    def _replica_shape(self, size) -> Tuple[int, ...]:
        """Normalize a requested ``size`` into the per-replica draw shape."""
        if size is None:
            return ()
        if np.ndim(size) == 0:
            return (int(size),)
        size = tuple(int(value) for value in size)
        if not size or size[0] != self.num_replicas:
            raise ValueError(
                f"batched draws must have a leading replica axis of {self.num_replicas}, got size {size}"
            )
        return size[1:]

    def standard_normal(self, size=None) -> np.ndarray:
        """Stacked per-replica ``standard_normal`` draws of shape ``(R, ...)``."""
        shape = self._replica_shape(size)
        return np.stack([generator.standard_normal(shape) for generator in self.generators])

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None) -> np.ndarray:
        """Stacked per-replica ``normal`` draws of shape ``(R, ...)``."""
        shape = self._replica_shape(size)
        return np.stack([generator.normal(loc, scale, size=shape) for generator in self.generators])

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> np.ndarray:
        """Stacked per-replica ``uniform`` draws of shape ``(R, ...)``."""
        shape = self._replica_shape(size)
        return np.stack([generator.uniform(low, high, size=shape) for generator in self.generators])

    def noise_buffer(self, num_steps: int, shape: Tuple[int, ...]) -> np.ndarray:
        """An empty ``(num_steps, R, ...)`` buffer for :meth:`noise_block`'s ``out=``.

        The buffer is a transposed *view* of an ``(R, num_steps, ...)``
        array, so each replica's slice of any leading-steps prefix is
        contiguous — the layout ``standard_normal(out=)`` requires.
        """
        per_replica = self._replica_shape(shape)
        return np.empty((self.num_replicas, num_steps) + per_replica, dtype=float).swapaxes(0, 1)

    def noise_block(
        self, num_steps: int, shape: Tuple[int, ...], out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Standard-normal noise for ``num_steps`` integrator steps at once.

        ``shape`` is the batched state shape ``(R, N)``; the result has shape
        ``(num_steps, R, N)``.  Each replica's block is drawn in one chunked
        ``standard_normal`` call, which numpy guarantees to consume the stream
        exactly like ``num_steps`` successive ``(N,)`` draws.  ``out`` is a
        buffer from :meth:`noise_buffer` with at least ``num_steps`` steps;
        the block is drawn into its leading steps and that view is returned.
        """
        if num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {num_steps}")
        if out is None:
            out = self.noise_buffer(num_steps, shape)
        block = out[:num_steps]
        for replica, generator in enumerate(self.generators):
            generator.standard_normal(out=block[:, replica])
        return block


class ThroughputRNG:
    """A single batched noise stream for the throughput precision tier.

    Where :class:`ReplicaRNG` maintains one generator per replica (the price
    of bit-identity with sequential runs), ``ThroughputRNG`` drives *one*
    PCG64 stream for the whole replica batch and draws in float32.  Replica
    independence is statistical rather than structural: the generator is
    seeded with a :class:`numpy.random.SeedSequence` over the job's
    per-replica seeds, so the stream is deterministic per seed set — and a
    different seed set yields an uncorrelated stream — but replicas no longer
    own stream positions, so results are not invariant under replica
    re-chunking.

    Noise blocks contain *moment-matched uniform* increments
    ``(2u - 1) * sqrt(3)`` (mean 0, variance 1) instead of Gaussians: for the
    weak Euler–Maruyama convergence the solver relies on, only the first two
    moments of the per-step increment matter, and uniform float32 draws are
    several times cheaper than per-replica float64 Gaussians.

    The class quacks like :class:`ReplicaRNG` for the draw methods the solver
    uses (``standard_normal``, ``normal``, ``uniform``, ``noise_block``), with
    the same ``(R, ...)`` shape semantics, so the noise helpers and
    integrators stay tier-agnostic.
    """

    def __init__(self, seeds: Sequence[Optional[int]], num_replicas: Optional[int] = None) -> None:
        seeds = list(seeds)
        if not seeds:
            raise ValueError("ThroughputRNG needs at least one seed")
        self.seeds = seeds
        self._num_replicas = int(num_replicas) if num_replicas is not None else len(seeds)
        if self._num_replicas < 1:
            raise ValueError(f"num_replicas must be >= 1, got {self._num_replicas}")
        if any(seed is None for seed in seeds):
            # Non-deterministic fallback: no seeds means no reproducibility
            # contract to honour, so use OS entropy.
            self.generator = np.random.default_rng()
        else:
            self.generator = np.random.default_rng(
                np.random.SeedSequence([int(seed) for seed in seeds])
            )

    @property
    def num_replicas(self) -> int:
        """Replica count the batched draws span."""
        return self._num_replicas

    def _replica_shape(self, size) -> Tuple[int, ...]:
        """Normalize a requested ``size`` into the per-replica draw shape."""
        if size is None:
            return ()
        if np.ndim(size) == 0:
            return (int(size),)
        size = tuple(int(value) for value in size)
        if not size or size[0] != self.num_replicas:
            raise ValueError(
                f"batched draws must have a leading replica axis of {self.num_replicas}, got size {size}"
            )
        return size[1:]

    def standard_normal(self, size=None) -> np.ndarray:
        """One float32 ``standard_normal`` draw of shape ``(R, ...)``."""
        shape = (self.num_replicas,) + self._replica_shape(size)
        return self.generator.standard_normal(shape, dtype=np.float32)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None) -> np.ndarray:
        """One float32 ``normal`` draw of shape ``(R, ...)``."""
        draw = self.standard_normal(size)
        if scale != 1.0:
            np.multiply(draw, np.float32(scale), out=draw)
        if loc != 0.0:
            np.add(draw, np.float32(loc), out=draw)
        return draw

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> np.ndarray:
        """One float32 ``uniform`` draw of shape ``(R, ...)``.

        ``Generator.uniform`` has no dtype parameter, so the draw is a float32
        ``random`` rescaled in place.
        """
        shape = (self.num_replicas,) + self._replica_shape(size)
        draw = self.generator.random(shape, dtype=np.float32)
        if high != 1.0 or low != 0.0:
            np.multiply(draw, np.float32(high - low), out=draw)
            if low != 0.0:
                np.add(draw, np.float32(low), out=draw)
        return draw

    def noise_buffer(self, num_steps: int, shape: Tuple[int, ...]) -> np.ndarray:
        """An empty float32 ``(num_steps, R, ...)`` buffer for :meth:`noise_block`."""
        per_replica = self._replica_shape(shape)
        return np.empty((num_steps, self.num_replicas) + per_replica, dtype=np.float32)

    def noise_block(
        self, num_steps: int, shape: Tuple[int, ...], out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Unit-variance float32 noise for ``num_steps`` integrator steps.

        Shape ``(num_steps, R, N)`` like :meth:`ReplicaRNG.noise_block`, but
        filled in one batched float32 ``random`` call and transformed to
        moment-matched uniform increments ``(2u - 1) * sqrt(3)``.  ``out`` is
        a buffer from :meth:`noise_buffer`; its leading ``num_steps`` steps
        are filled and returned.
        """
        if num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {num_steps}")
        if out is None:
            out = self.noise_buffer(num_steps, shape)
        block = out[:num_steps]
        self.generator.random(out=block, dtype=np.float32)
        # (2u - 1) * sqrt(3): mean 0, variance 1 — a weak-order-equivalent
        # substitute for the standard normal per-step increment.
        np.multiply(block, np.float32(2.0 * np.sqrt(3.0)), out=block)
        np.subtract(block, np.float32(np.sqrt(3.0)), out=block)
        return block


def noise_buffer(rng: SeedLike, num_steps: int, shape: Tuple[int, ...]) -> np.ndarray:
    """An empty ``(num_steps,) + shape`` buffer for :func:`normal_noise_block`.

    Its dtype and memory layout are the ones ``rng`` draws into: float64 for
    a plain generator or :class:`ReplicaRNG` (replica-major underneath),
    float32 for a :class:`ThroughputRNG`.
    """
    if isinstance(rng, (ReplicaRNG, ThroughputRNG)):
        return rng.noise_buffer(num_steps, shape)
    return np.empty((num_steps,) + tuple(shape), dtype=float)


def normal_noise_block(
    rng: SeedLike, num_steps: int, shape: Tuple[int, ...], out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Draw ``(num_steps,) + shape`` unit-variance noise from ``rng``.

    For a plain generator this is one chunked draw (bit-identical to
    ``num_steps`` successive ``shape`` draws); for a :class:`ReplicaRNG` the
    block is assembled from the per-replica streams.  A :class:`ThroughputRNG`
    returns float32 moment-matched uniform increments instead of Gaussians.
    ``out`` is a reusable buffer from :func:`noise_buffer` with at least
    ``num_steps`` steps: the draw fills its leading steps and returns that
    view, so a loop of blocks allocates nothing.
    """
    if isinstance(rng, (ReplicaRNG, ThroughputRNG)):
        return rng.noise_block(num_steps, shape, out=out)
    if out is None:
        out = noise_buffer(rng, num_steps, shape)
    block = out[:num_steps]
    make_rng(rng).standard_normal(out=block)
    return block


def make_rng(seed: SeedLike = None) -> Union[np.random.Generator, "ReplicaRNG", "ThroughputRNG"]:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (non-deterministic), an integer, a
    :class:`numpy.random.SeedSequence`, or an existing generator (returned
    unchanged so callers can thread one generator through a pipeline).  A
    :class:`ReplicaRNG` or :class:`ThroughputRNG` is likewise returned
    unchanged so batched pipelines can thread their replica streams through
    the same code paths.
    """
    if isinstance(seed, (np.random.Generator, ReplicaRNG, ThroughputRNG)):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def iteration_seeds(seed: SeedLike, count: int) -> list:
    """Return ``count`` integer seeds derived deterministically from ``seed``.

    Useful when per-iteration seeds need to be recorded alongside results so a
    single iteration can be replayed later.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        seed = int(seed.integers(0, 2**63 - 1))
    sequence = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [int(child.generate_state(1, dtype=np.uint64)[0] % (2**31 - 1)) for child in sequence.spawn(count)]
