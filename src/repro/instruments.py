"""The one instrumentation slot.

Span profiling (:mod:`repro.obs.spans`), deterministic metrics
(:mod:`repro.obs.metrics`) and DetSan
(:mod:`repro.analysis.sanitizer.runtime`) are installed into one
module-level :class:`Instruments` triple.  Each installer
(``profiling()``, ``collecting()``, ``sanitizing()``) replaces its own
part for a ``with`` block; components read :func:`active` once, at
construction.  :class:`repro.exec.TrialRunner` derives each trial's
instruments from the installed ones (see
:func:`repro.exec.runner.execute_call`).

This module imports nothing from the rest of the package, since the
simulation kernel imports it; so the parts are typed ``Any`` here, and
each owning module's accessor returns its own type.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, NamedTuple

__all__ = ["Instruments", "active", "installed"]


class Instruments(NamedTuple):
    """What is installed: each part is None when its instrument is off."""

    #: a :class:`repro.obs.spans.SpanProfiler`
    profiler: Any = None
    #: a :class:`repro.obs.metrics.MetricsRegistry`
    metrics: Any = None
    #: a :class:`repro.analysis.sanitizer.runtime.DetSanContext`
    sanitizer: Any = None


_ACTIVE = Instruments()


def active() -> Instruments:
    """The installed instruments (all None when nothing is on)."""
    return _ACTIVE


@contextmanager
def installed(instruments: Instruments) -> Iterator[Instruments]:
    """Install ``instruments`` for the block, restoring the previous set."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = instruments
    try:
        yield instruments
    finally:
        _ACTIVE = previous
