"""Run telemetry: where the wall-clock time of a reproduction goes.

Simulated results must be bit-identical run to run; how *long* they
took to compute is the one thing that legitimately varies.  The
execution layer records it here — per-trial timings, cache traffic,
worker utilization — and emits it as a versioned JSON envelope so the
repo accumulates a machine-readable performance trajectory
(``BENCH_*.json``) alongside the bit-exact results.

Telemetry is observational only: nothing in the result path reads it,
so recording it cannot perturb determinism.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from ..obs.metrics import MetricsRegistry
from ..obs.spans import SpanProfiler, layer_breakdown

__all__ = ["RunTelemetry", "TrialRecord"]


@dataclass
class TrialRecord:
    """One trial's execution footprint (not its result)."""

    index: int
    label: str
    cached: bool
    ok: bool
    attempts: int
    duration: float
    worker: Optional[int]
    error: Optional[str] = None

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "index": self.index,
            "label": self.label,
            "cached": self.cached,
            "ok": self.ok,
            "attempts": self.attempts,
            "duration": round(self.duration, 6),
            "worker": self.worker,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class RunTelemetry:
    """Aggregated execution telemetry for one (or several) runner calls."""

    wall_time: float = 0.0
    trials: int = 0
    computed: int = 0
    failures: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_writes: int = 0
    cache_corrupted: int = 0
    workers: int = 1
    #: non-fatal degradations (e.g. unenforceable deadlines), deduplicated
    warnings: List[str] = field(default_factory=list)
    #: seconds each worker spent inside trial functions, keyed by id
    worker_busy: Dict[int, float] = field(default_factory=dict)
    #: trials served by each worker, keyed by id
    worker_tasks: Dict[int, int] = field(default_factory=dict)
    #: span wall-time table ({name: {count,total,min,max}}) folded in
    #: from profiled trials (see :mod:`repro.obs.spans`)
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: deterministic metric table ({name: {kind, value|edges+buckets}})
    #: folded in from metric-carrying trials (see :mod:`repro.obs.metrics`)
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    records: List[TrialRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    def record(self, record: TrialRecord) -> None:
        self.trials += 1
        self.records.append(record)
        if record.cached:
            self.cache_hits += 1
            return
        self.computed += 1
        if not record.ok:
            self.failures += 1
        if record.worker is not None:
            busy = self.worker_busy.get(record.worker, 0.0)
            self.worker_busy[record.worker] = busy + record.duration
            self.worker_tasks[record.worker] = (
                self.worker_tasks.get(record.worker, 0) + 1
            )

    def add_spans(self, spans: Dict[str, Dict[str, float]]) -> None:
        """Fold a trial's span table (from a profiled message) in.

        Routed through :class:`~repro.obs.spans.SpanProfiler` so counts
        stay integers and min/max follow the profiler's merge rules.
        """
        profiler = SpanProfiler()
        profiler.merge(self.spans)
        profiler.merge(spans)
        self.spans = profiler.to_json()

    def add_metrics(self, table: Dict[str, Dict[str, Any]]) -> None:
        """Fold a trial's metric table (from a worker message) in.

        Routed through :class:`~repro.obs.metrics.MetricsRegistry` so
        counter sums, gauge high-watermarks, and histogram-edge checks
        follow exactly one set of merge rules everywhere.
        """
        registry = MetricsRegistry()
        if self.metrics:
            registry.merge_json(self.metrics)
        registry.merge_json(table)
        self.metrics = registry.to_json()

    def worker_utilization(self) -> Dict[int, float]:
        """Fraction of the run's wall time each worker spent computing."""
        if self.wall_time <= 0.0:
            return {worker: 0.0 for worker in self.worker_busy}
        return {
            worker: busy / self.wall_time
            for worker, busy in sorted(self.worker_busy.items())
        }

    def merge(self, other: "RunTelemetry") -> None:
        """Fold another run's telemetry into this cumulative record."""
        self.wall_time += other.wall_time
        self.trials += other.trials
        self.computed += other.computed
        self.failures += other.failures
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_writes += other.cache_writes
        self.cache_corrupted += other.cache_corrupted
        self.workers = max(self.workers, other.workers)
        for warning in other.warnings:
            if warning not in self.warnings:
                self.warnings.append(warning)
        for worker, busy in other.worker_busy.items():
            self.worker_busy[worker] = self.worker_busy.get(worker, 0.0) + busy
        for worker, tasks in other.worker_tasks.items():
            self.worker_tasks[worker] = self.worker_tasks.get(worker, 0) + tasks
        if other.spans:
            self.add_spans(other.spans)
        if other.metrics:
            self.add_metrics(other.metrics)
        self.records.extend(other.records)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """The headline numbers, without the per-trial detail."""
        out: Dict[str, Any] = {
            "wall_time": round(self.wall_time, 6),
            "trials": self.trials,
            "computed": self.computed,
            "failures": self.failures,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_writes": self.cache_writes,
            "cache_corrupted": self.cache_corrupted,
            "workers": self.workers,
            "warnings": list(self.warnings),
            "worker_utilization": {
                str(worker): round(value, 4)
                for worker, value in self.worker_utilization().items()
            },
            "worker_tasks": {
                str(worker): tasks
                for worker, tasks in sorted(self.worker_tasks.items())
            },
        }
        if self.spans:
            out["spans"] = {
                name: {key: round(value, 6) for key, value in stats.items()}
                for name, stats in sorted(self.spans.items())
            }
            out["layer_times"] = {
                layer: round(total, 6)
                for layer, total in layer_breakdown(self.spans).items()
            }
        if self.metrics:
            out["metrics"] = {
                name: dict(entry) for name, entry in sorted(self.metrics.items())
            }
        return out

    def to_json(self) -> Dict[str, Any]:
        out = self.summary()
        out["records"] = [record.to_json() for record in self.records]
        return out

    def save(self, path: Union[str, pathlib.Path]) -> None:
        """Write this telemetry as a versioned ``run-telemetry`` envelope."""
        # Deferred import: repro.exec sits *below* repro.experiments in
        # the layering; importing persistence at module scope would
        # close an import cycle through experiments.figures.
        from ..experiments.persistence import save_envelope

        save_envelope(path, "run-telemetry", self.to_json())

    def render(self) -> str:
        """One human line for CLI output."""
        parts = [
            f"{self.trials} trials",
            f"{self.computed} computed",
            f"{self.cache_hits} cached",
        ]
        if self.failures:
            parts.append(f"{self.failures} failed")
        parts.append(f"{self.workers} worker(s)")
        parts.append(f"{self.wall_time:.2f}s wall")
        line = "exec: " + ", ".join(parts)
        for warning in self.warnings:
            line += f"\nwarning: {warning}"
        return line
