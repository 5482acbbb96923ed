"""Unified observability: trace export, span profiling, trace diffing.

One pipeline for everything the reproduction can *observe* about a run
without perturbing it:

* :mod:`.spans` — lightweight wall-clock span profiling, wired into the
  simulator's dispatch loop, the exec layer, and the AFF/radio hot
  paths; per-layer breakdowns feed :class:`repro.exec.telemetry
  .RunTelemetry`.
* :mod:`.metrics` — deterministic counters / gauges / fixed-bucket
  histograms, installed into the same slot as spans
  (:mod:`repro.instruments`); snapshots are canonical JSONL and merge
  bit-identically across worker and shard boundaries
  (``repro metrics {show,export,diff}``).
* :mod:`.forensics` — per-transaction lifecycle reconstruction from
  exported traces (``repro obs why``).
* :mod:`.envelope` — a versioned, streaming JSONL envelope for
  :class:`repro.sim.trace.TraceRecord` streams.
* :mod:`.merge` — heap-merge of per-worker/per-range trace shards
  into one deterministically ordered stream.
* :mod:`.diff` — field-by-field comparison of two traces; the
  mechanical check that ``shards=N``/``--workers N`` runs are bit-identical
  to serial.
* :mod:`.record` / :mod:`.cli` — ``python -m repro obs
  {record,summary,top,diff}``.

Everything here is observational only: no simulation or result path
reads a profiler or a recorder, so enabling observability cannot change
a simulated bit (the golden-regression suite runs with it on).

This ``__init__`` deliberately re-exports only :mod:`.spans` and
:mod:`.metrics`, which import nothing from the rest of the package at
module scope but the slot — the simulation kernel and the exec layer import these
names, and pulling in the envelope here would close an import cycle
through :mod:`repro.exec.runner`.  Import :mod:`repro.obs.envelope`
and friends explicitly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import export_lazily

if TYPE_CHECKING:
    from .metrics import (
        MetricsRegistry,
        active_metrics,
        collecting,
        gauge_max,
        inc,
        observe,
    )
    from .spans import (
        LAYER_BUCKETS,
        SpanProfiler,
        SpanStats,
        active_profiler,
        layer_breakdown,
        layer_of_module,
        profiling,
        span,
    )

__all__ = [
    "LAYER_BUCKETS",
    "MetricsRegistry",
    "SpanProfiler",
    "SpanStats",
    "active_metrics",
    "active_profiler",
    "collecting",
    "gauge_max",
    "inc",
    "layer_breakdown",
    "layer_of_module",
    "observe",
    "profiling",
    "span",
]

export_lazily(
    __name__,
    {
        ".metrics": (
            "MetricsRegistry", "active_metrics", "collecting", "gauge_max",
            "inc", "observe",
        ),
        ".spans": (
            "LAYER_BUCKETS", "SpanProfiler", "SpanStats", "active_profiler",
            "layer_breakdown", "layer_of_module", "profiling", "span",
        ),
    },
)
