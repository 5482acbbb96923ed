"""Discrete-event simulation substrate.

Public surface:

* :class:`~repro.sim.engine.Simulator` — the event-queue kernel.
* :class:`~repro.sim.rng.RngRegistry` — named deterministic RNG streams.
* :class:`~repro.sim.trace.TraceRecorder` — structured event traces.
* Online statistics in :mod:`repro.sim.monitor`.
"""

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
