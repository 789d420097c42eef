"""The metrics spine: a lightweight, thread-safe in-process registry.

:class:`MetricsRegistry` holds three instrument families, all addressed by
dotted string names (``"cache.hits"``, ``"scheduler.batch_seconds"``):

* **counters** — monotonically increasing event counts,
* **gauges** — last-written point-in-time values (queue depths, liveness),
* **timings** — duration histograms (count / total / min / max plus fixed
  log-spaced latency buckets), fed by :meth:`MetricsRegistry.observe` or the
  :meth:`MetricsRegistry.timer` context manager.

The clock is injectable (default :data:`repro.obs.clock.monotonic_time` —
never wall-clock, consistent with :mod:`repro.service.ratelimit`) so tests
drive timers deterministically.  Every method takes one short lock; the
instrumented hot seams (scheduler dispatch, cache lookups, spool claims,
ticket lifecycle, service requests) are all I/O- or batch-grained, so the
registry never sits inside a numeric inner loop.

Process-global use: the runtime increments the shared registry returned by
:func:`get_metrics`, which is what ``msropm campaign report --metrics-out``
snapshots and the service's ``GET /metrics`` serves.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.obs.clock import Clock, monotonic_time

#: Version of the snapshot payload layout (carried in every snapshot).
METRICS_SNAPSHOT_VERSION = 1

#: Upper bounds (seconds) of the timing histogram buckets; observations
#: beyond the last bound land in the implicit ``+inf`` bucket.  Log-spaced
#: from 1 ms to 10 s — wide enough for both cache reads and whole batches.
TIMING_BUCKET_BOUNDS: Tuple[float, ...] = (0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0)


class _Timing:
    """One duration histogram (seconds)."""

    __slots__ = ("count", "total", "minimum", "maximum", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = 0.0
        self.buckets = [0] * (len(TIMING_BUCKET_BOUNDS) + 1)

    def observe(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        self.count += 1
        self.total += seconds
        self.minimum = min(self.minimum, seconds)
        self.maximum = max(self.maximum, seconds)
        for index, bound in enumerate(TIMING_BUCKET_BOUNDS):
            if seconds <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    def as_dict(self) -> Dict[str, Any]:
        buckets = {
            f"le_{bound:g}": self.buckets[index]
            for index, bound in enumerate(TIMING_BUCKET_BOUNDS)
        }
        buckets["le_inf"] = self.buckets[-1]
        return {
            "count": self.count,
            "total_s": self.total,
            "min_s": self.minimum if self.count else 0.0,
            "max_s": self.maximum,
            "mean_s": (self.total / self.count) if self.count else 0.0,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Thread-safe counters, gauges and timing histograms.

    Parameters
    ----------
    clock:
        Monotonic time source for :meth:`timer` (injectable for tests).
    """

    def __init__(self, clock: Clock = monotonic_time) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._timings: Dict[str, _Timing] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, value: int = 1) -> int:
        """Add ``value`` to counter ``name`` (created at 0); returns the total."""
        with self._lock:
            total = self._counters.get(name, 0) + int(value)
            self._counters[name] = total
        return total

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def set_gauge(self, name: str, value: float) -> None:
        """Record the current value of gauge ``name``."""
        with self._lock:
            self._gauges[name] = float(value)

    def gauge(self, name: str) -> Optional[float]:
        """Last written value of gauge ``name`` (``None`` if never set)."""
        with self._lock:
            return self._gauges.get(name)

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration (seconds) into timing histogram ``name``."""
        with self._lock:
            timing = self._timings.get(name)
            if timing is None:
                timing = self._timings[name] = _Timing()
            timing.observe(seconds)

    @contextlib.contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Context manager timing its body into histogram ``name``.

        The body always runs to completion accounting: a raising body still
        records its elapsed time (slow failures are exactly the ones worth
        seeing).
        """
        started = self.clock()
        try:
            yield
        finally:
            self.observe(name, self.clock() - started)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of every instrument, deterministically keyed.

        Keys are sorted so two snapshots of identical registry states are
        byte-identical when serialized with ``sort_keys`` — the property the
        CI metrics artifact and the tests lean on.
        """
        with self._lock:
            return {
                "metrics_version": METRICS_SNAPSHOT_VERSION,
                "counters": {name: self._counters[name] for name in sorted(self._counters)},
                "gauges": {name: self._gauges[name] for name in sorted(self._gauges)},
                "timings": {
                    name: self._timings[name].as_dict() for name in sorted(self._timings)
                },
            }

    def reset(self) -> None:
        """Drop every instrument (test isolation helper)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timings.clear()


# ----------------------------------------------------------------------
# The process-global registry the instrumented seams write to.
# ----------------------------------------------------------------------
_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_metrics() -> MetricsRegistry:
    """The process-global registry the runtime's hot seams increment."""
    with _default_lock:
        return _default_registry
