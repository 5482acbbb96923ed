"""Discrete-event simulation substrate.

Public surface:

* :class:`~repro.sim.engine.Simulator` — the event-queue kernel.
* :class:`~repro.sim.rng.RngRegistry` — named deterministic RNG streams.
* :class:`~repro.sim.trace.TraceRecorder` — structured event traces.
* Online statistics in :mod:`repro.sim.monitor`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import export_lazily

if TYPE_CHECKING:
    from .engine import EventHandle, SimulationError, Simulator
    from .monitor import Counter, Histogram, RunningStats, TimeWeightedValue
    from .rng import RngRegistry, derive_seed
    from .trace import NullRecorder, TraceRecord, TraceRecorder

__all__ = [
    "Counter",
    "EventHandle",
    "Histogram",
    "NullRecorder",
    "RngRegistry",
    "RunningStats",
    "SimulationError",
    "Simulator",
    "TimeWeightedValue",
    "TraceRecord",
    "TraceRecorder",
    "derive_seed",
]

export_lazily(
    __name__,
    {
        ".engine": ("EventHandle", "SimulationError", "Simulator"),
        ".monitor": (
            "Counter", "Histogram", "RunningStats", "TimeWeightedValue",
        ),
        ".rng": ("RngRegistry", "derive_seed"),
        ".trace": ("NullRecorder", "TraceRecord", "TraceRecorder"),
    },
)
