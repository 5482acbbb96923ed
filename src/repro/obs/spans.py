"""Lightweight wall-clock span profiling.

A :class:`SpanProfiler` accumulates named wall-time spans
(``count/total/min/max`` per name) with no per-span allocation beyond a
dict slot, cheap enough to leave wired into the simulator's dispatch
loop.  Profiling is **observational only**: nothing in any result path
reads a profiler, so enabling it cannot perturb a simulated bit (the
golden-regression suite runs with it on to prove that).

Span names are dotted, and the first component is the *layer bucket*:
``"aff.reassemble"`` books under ``aff``, ``"radio.dispatch"`` under
``radio``.  :func:`layer_breakdown` folds a span table into the
per-layer wall-time dict that :class:`repro.exec.telemetry.RunTelemetry`
and the ``BENCH_*.json`` records carry.  Names must be string literals
at the call site (lint rule OBS001) so summaries from different runs
stay field-comparable.

Activation is the profiler part of the one instrumentation slot
(:mod:`repro.instruments`): :func:`profiling` installs a profiler for a
``with`` block (``repro ... --profile`` installs one around the whole
command), instrumented code asks :func:`active_profiler` (usually once,
at construction) and skips all timing when it returns None.  When a
profiler is installed, every trial of a :class:`repro.exec.TrialRunner`
runs under a fresh one inside :func:`repro.exec.runner.execute_call`;
the span tables travel back in the result message and merge into the
installed profiler — wall time is the one thing allowed to differ
between runs, so span *aggregates* (unlike traces) need no
deterministic ordering, only deterministic naming.

This module imports nothing from the rest of the package but the slot
(stdlib only otherwise): the simulation kernel imports it, so it must
sit at the very bottom of the layering.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .. import instruments as _slot

__all__ = [
    "LAYER_BUCKETS",
    "SpanProfiler",
    "SpanStats",
    "active_profiler",
    "layer_breakdown",
    "layer_of_module",
    "profiling",
    "span",
]

#: The layer buckets every breakdown reports, even when zero.
LAYER_BUCKETS: Tuple[str, ...] = ("radio", "mac", "aff", "apps", "engine", "flow")

#: module prefix -> layer bucket, most specific first.
_MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.radio.mac", "mac"),
    ("repro.radio", "radio"),
    ("repro.aff", "aff"),
    ("repro.apps", "apps"),
    ("repro.sim", "engine"),
    ("repro.core", "core"),
    ("repro.exec", "exec"),
    ("repro.flow", "flow"),
    ("repro.topology", "topology"),
)


def layer_of_module(module: str) -> str:
    """The layer bucket a module's code books its wall time under."""
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class SpanStats:
    """Aggregate of one named span: count, total, min, max (seconds)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def to_json(self) -> Dict[str, Any]:
        # Clock differences are finite; ``min`` is inf only while empty.
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max,
        }


class SpanProfiler:
    """Accumulates named wall-clock spans; merge-able across processes."""

    #: the clock spans are measured on; instrumented code calls
    #: ``prof.clock()`` so the wall-clock read stays in this module
    #: (simulation code never touches the ``time`` module directly —
    #: lint rule DET004).
    clock = staticmethod(time.perf_counter)

    def __init__(self) -> None:
        self._spans: Dict[str, SpanStats] = {}

    def __bool__(self) -> bool:
        return bool(self._spans)

    def add(self, name: str, seconds: float) -> None:
        """Book ``seconds`` of wall time under span ``name``."""
        stats = self._spans.get(name)
        if stats is None:
            stats = self._spans[name] = SpanStats()
        stats.add(seconds)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a ``with`` block under ``name``."""
        t0 = self.clock()
        try:
            yield
        finally:
            self.add(name, self.clock() - t0)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def merge(self, spans: Dict[str, Dict[str, float]]) -> None:
        """Fold a :meth:`to_json` table (e.g. from a worker) into this one."""
        for name, stats in spans.items():
            into = self._spans.get(name)
            if into is None:
                into = self._spans[name] = SpanStats()
            count = int(stats.get("count", 0))
            if count <= 0:
                continue
            into.count += count
            into.total += float(stats.get("total", 0.0))
            low = float(stats.get("min", 0.0))
            if low < into.min:
                into.min = low
            high = float(stats.get("max", 0.0))
            if high > into.max:
                into.max = high

    def to_json(self) -> Dict[str, Dict[str, float]]:
        """Span table as plain JSON, sorted by name for stable output."""
        return {name: self._spans[name].to_json() for name in sorted(self._spans)}

    def top(self, n: int = 10) -> List[Tuple[str, SpanStats]]:
        """The ``n`` spans with the most total wall time, descending."""
        ranked = sorted(
            self._spans.items(), key=lambda item: (-item[1].total, item[0])
        )
        return ranked[:n]

    def layer_breakdown(self) -> Dict[str, float]:
        return layer_breakdown(self.to_json())


def layer_breakdown(spans: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Fold a span table into per-layer wall-time totals.

    The first dotted component of each span name is its layer.  Every
    bucket in :data:`LAYER_BUCKETS` is always present (zero-filled) so
    downstream consumers can rely on the keys; other layers (``core``,
    ``exec``, ...) appear only when they booked time.
    """
    out: Dict[str, float] = {bucket: 0.0 for bucket in LAYER_BUCKETS}
    for name, stats in spans.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + float(stats.get("total", 0.0))
    return out


# ----------------------------------------------------------------------
# The active profiler
# ----------------------------------------------------------------------
def active_profiler() -> Optional[SpanProfiler]:
    """The currently installed profiler, or None when profiling is off."""
    profiler: Optional[SpanProfiler] = _slot.active().profiler
    return profiler


@contextmanager
def profiling(profiler: Optional[SpanProfiler] = None) -> Iterator[SpanProfiler]:
    """Install ``profiler`` (a fresh one by default) for the block."""
    prof = profiler if profiler is not None else SpanProfiler()
    with _slot.installed(_slot.active()._replace(profiler=prof)):
        yield prof


@contextmanager
def span(name: str) -> Iterator[None]:
    """Time a ``with`` block on the active profiler; no-op when off."""
    prof = _slot.active().profiler
    if prof is None:
        yield
        return
    t0 = prof.clock()
    try:
        yield
    finally:
        prof.add(name, prof.clock() - t0)
