"""Span tracer of the benchmark's traced runs.

A span is one call into a layer's public function, timed by a wrapper the
benchmark installs from its own files (nothing under ``src/`` is edited).
Each thread of each process is a *lane*: a stack of open spans.  Closing a
span adds its duration to the enclosing span's child time, so a span's *self
time* is its duration minus the time its children cover.

Per lane the tracer keeps, in memory:

* aggregates per span name: calls, outermost calls, busy time (outermost
  spans only, so a name nested in itself is not counted twice) and self time;
* counters (work done, cache hits, bytes);
* records of the spans the analysis needs on a timeline: every lane root
  (with the per-layer self-time breakdown of its whole subtree), and spans
  marked ``wait`` (the caller blocks on another lane) or ``record``.

Processes write one JSON file each into the trace directory.  A process
forked from a traced process (a pool worker) starts with an empty tracer and
rewrites its file whenever a lane root closes, so its spans are on disk
before the job's result reaches the parent.  All timestamps come from
``time.monotonic`` (``CLOCK_MONOTONIC``), which every process on the host
shares, so spans of different processes can be laid on one timeline.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

clock = time.monotonic


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "wait", "record", "breakdown")

    def __init__(self, name: str, layer: str, wait: bool, record: bool) -> None:
        self.name = name
        self.layer = layer
        self.wait = wait
        self.record = record
        self.child = 0.0
        self.breakdown: Optional[Dict[str, float]] = None
        self.start = clock()


class _Lane:
    """The spans, aggregates and records of one thread."""

    def __init__(self, tid: int, main: bool) -> None:
        self.tid = tid
        self.main = main
        self.stack: List[_Frame] = []
        self.open: Dict[str, int] = defaultdict(int)
        # name -> [calls, outermost calls, busy seconds, self seconds]
        self.aggregates: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = defaultdict(float)
        self.records: List[Dict[str, Any]] = []
        self.mismatched_exits = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "tid": self.tid,
            "main": self.main,
            "aggregates": {
                name: {"calls": v[0], "outer_calls": v[1], "busy_s": v[2], "self_s": v[3]}
                for name, v in self.aggregates.items()
            },
            "counters": dict(self.counters),
            "records": list(self.records),
            "mismatched_exits": self.mismatched_exits,
        }


class Tracer:
    """Process-wide span collector (one instance per traced process).

    ``main_thread`` marks the calling thread as the *main lane*: the thread
    whose timeline the workload's wall time is measured on.
    """

    def __init__(self, trace_dir: Path, main_thread: bool = False) -> None:
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.forked = False
        self.extra: Dict[str, Any] = {}
        self._main_tid = threading.get_ident() if main_thread else None
        self._lock = threading.Lock()
        self._lanes: List[_Lane] = []
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The child inherits a copy of the parent's open spans and totals;
        # drop them so every span is reported by exactly one process.
        self.pid = os.getpid()
        self.forked = True
        self._main_tid = None
        self._lock = threading.Lock()
        self._lanes = []
        self._local = threading.local()

    def _lane(self) -> _Lane:
        lane = getattr(self._local, "lane", None)
        if lane is None:
            tid = threading.get_ident()
            lane = _Lane(tid, main=tid == self._main_tid)
            with self._lock:
                self._lanes.append(lane)
            self._local.lane = lane
        return lane

    # ------------------------------------------------------------------
    def enter(self, name: str, layer: str, wait: bool = False, record: bool = False) -> _Frame:
        lane = self._lane()
        frame = _Frame(name, layer, wait, record)
        if not lane.stack:
            frame.breakdown = defaultdict(float)
        lane.stack.append(frame)
        lane.open[name] += 1
        return frame

    def exit(self, frame: _Frame) -> None:
        end = clock()
        lane = self._lane()
        stack = lane.stack
        if not stack or stack[-1] is not frame:
            lane.mismatched_exits += 1
            if frame not in stack:
                return
            while stack[-1] is not frame:
                stack.pop()
        stack.pop()
        duration = end - frame.start
        own = duration - frame.child
        lane.open[frame.name] -= 1
        entry = lane.aggregates.get(frame.name)
        if entry is None:
            entry = lane.aggregates[frame.name] = [0, 0, 0.0, 0.0]
        entry[0] += 1
        entry[3] += own
        if lane.open[frame.name] == 0:
            entry[1] += 1
            entry[2] += duration
        if stack:
            stack[-1].child += duration
            stack[0].breakdown[frame.layer] += own
            if frame.wait or frame.record:
                lane.records.append(
                    {
                        "kind": "span",
                        "name": frame.name,
                        "layer": frame.layer,
                        "start": frame.start,
                        "end": end,
                        "self_s": own,
                        "wait": frame.wait,
                    }
                )
            return
        frame.breakdown[frame.layer] += own
        lane.records.append(
            {
                "kind": "root",
                "name": frame.name,
                "layer": frame.layer,
                "start": frame.start,
                "end": end,
                "self_s": own,
                "wait": frame.wait,
                "breakdown": dict(frame.breakdown),
            }
        )
        if self.forked:
            self.flush()

    def depth(self, name: str) -> int:
        """How many spans named ``name`` are open on the calling thread."""
        return self._lane().open[name]

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to a counter of the calling thread's lane."""
        self._lane().counters[name] += amount

    def span(self, name: str, layer: str, wait: bool = False):
        """Context manager form of :meth:`enter`/:meth:`exit`."""
        return _SpanContext(self, name, layer, wait)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            lanes = list(self._lanes)
        return {
            "pid": self.pid,
            "forked": self.forked,
            "lanes": [lane.as_dict() for lane in lanes],
            "extra": dict(self.extra),
        }

    def flush(self) -> Path:
        """Write this process's spans to ``spans-<pid>.json`` (atomically)."""
        path = self.trace_dir / f"spans-{self.pid}.json"
        temporary = path.with_suffix(".tmp")
        temporary.write_text(json.dumps(self.snapshot()), encoding="utf-8")
        os.replace(temporary, path)
        return path


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, layer: str, wait: bool) -> None:
        self._tracer = tracer
        self._args = (name, layer, wait)
        self._frame: Optional[_Frame] = None

    def __enter__(self) -> "_SpanContext":
        self._frame = self._tracer.enter(*self._args)
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer.exit(self._frame)


Hook = Callable[..., Any]


def traced(
    tracer: Tracer,
    function: Callable,
    name: str,
    layer: str,
    wait: bool = False,
    record: bool = False,
    name_of: Optional[Callable[[tuple, dict], str]] = None,
    before: Optional[Hook] = None,
    after: Optional[Hook] = None,
) -> Callable:
    """Wrap ``function`` so every call is one span.

    ``name_of(args, kwargs)`` picks a per-call span name (e.g. per baseline
    kind); ``before(tracer, args, kwargs)`` runs inside the span before the
    call and its return value is handed to ``after(tracer, args, kwargs,
    result, state)``, which runs inside the span after a successful call.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span_name = name_of(args, kwargs) if name_of is not None else name
        frame = tracer.enter(span_name, layer, wait, record)
        try:
            state = before(tracer, args, kwargs) if before is not None else None
            result = function(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result, state)
            return result
        finally:
            tracer.exit(frame)

    return wrapper
