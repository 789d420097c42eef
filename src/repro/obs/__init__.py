"""Observability layer: metrics spine, event sinks, and ledger projections.

This package is the repo's cross-cutting "what is the system doing right
now" layer, wired through the runtime (scheduler, cache, spool, runner),
the campaign orchestrator, and the service front door:

:mod:`repro.obs.metrics`
    A lightweight, thread-safe :class:`~repro.obs.metrics.MetricsRegistry`
    (counters, gauges, timing histograms) with an injectable monotonic
    clock.  The hot seams increment a process-global registry; ``msropm
    campaign report --metrics-out``, the service's ``GET /metrics`` and
    :func:`~repro.obs.metrics.get_metrics` expose JSON snapshots.
:mod:`repro.obs.sinks`
    The pluggable event-sink layer: a :class:`~repro.obs.sinks.Sink`
    protocol with JSONL-file, webhook-POST and in-process-callback
    implementations behind a kind-routing :class:`~repro.obs.sinks.SinkRouter`
    the orchestrator publishes ledger events through.
:mod:`repro.obs.projection`
    Pure folds of ledger event streams into live views: the torn-tail
    tolerant :class:`~repro.obs.projection.LedgerFollower`, the
    :class:`~repro.obs.projection.CampaignProjection` (per-stage state, job
    throughput, completion, ETA) and the renderers behind ``msropm campaign
    watch`` and ``msropm campaign report``.
:mod:`repro.obs.clock`
    The one sanctioned wall-clock read; everything else in this package
    measures *elapsed* time on injectable monotonic clocks so tests are
    deterministic.

Design rule: observability must never change results or kill a run — sink
failures are counted, not raised, and every projection is a pure function
of ledger bytes (plus the content-addressed cache for reports).
"""

from repro.obs.clock import wall_time
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.projection import (
    CampaignProjection,
    LedgerFollower,
    StageProgress,
    project_state,
    render_report,
    render_watch,
)
from repro.obs.sinks import (
    JsonlFileSink,
    Sink,
    SinkEmitError,
    SinkRouter,
    WebhookSink,
)

__all__ = [
    "CampaignProjection",
    "JsonlFileSink",
    "LedgerFollower",
    "MetricsRegistry",
    "Sink",
    "SinkEmitError",
    "SinkRouter",
    "StageProgress",
    "WebhookSink",
    "get_metrics",
    "project_state",
    "render_report",
    "render_watch",
    "wall_time",
]
