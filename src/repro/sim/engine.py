"""Discrete-event simulation kernel.

The kernel is a classic event-queue simulator: a priority queue of
timestamped events, a virtual clock, and a run loop.  Everything in the
reproduction that "happens over time" — frame transmissions, listening
windows, reassembly timeouts, node churn — is driven by one
:class:`Simulator` instance.

The design intentionally mirrors the structure of well-known kernels
(simpy, ns-2's scheduler) but is self-contained:

* :class:`Simulator` owns the clock and the event queue.
* :meth:`Simulator.schedule` posts a callback at ``now + delay`` and
  returns an :class:`EventHandle` that can be cancelled.
* :meth:`Simulator.run` is the one dispatch loop: it pops and fires
  events inline.  :meth:`Simulator.step` is ``run(max_events=1)``.
* Timed actors (traffic senders, churn, mobility) are plain callback
  chains: each event schedules the actor's next step.

Determinism guarantees
----------------------
The event heap holds plain ``(time, tie, seq, handle)`` tuples, so
events fire in ``(time, tie, seq)`` order.  ``seq`` is a monotonically
increasing sequence number, unique per event, so the handle is never
compared and same-time events fire in the order they were scheduled
(FIFO).  ``tie`` is always 0 in normal operation; under DetSan's tie
perturber (SAN002) it carries a deterministic pseudo-random rank that
shuffles same-timestamp events, exposing any code that silently depends
on FIFO tie-breaking.  Given identical seeds (:mod:`repro.sim.rng`), a
simulation is exactly reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import instruments
from ..obs.spans import layer_of_module

__all__ = [
    "EventHandle",
    "SimulationError",
    "Simulator",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (negative delays, running a closed sim)."""


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is *lazy*: the heap entry stays queued but is skipped by
    the run loop.  This keeps :meth:`Simulator.cancel` O(1).
    """

    __slots__ = ("callback", "args", "cancelled", "time")

    def __init__(self, time: float, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True
        # Drop references promptly so cancelled timers do not pin objects.
        self.callback = _noop
        self.args = ()

    @property
    def active(self) -> bool:
        """True while the event is still pending (not cancelled, not fired)."""
        return not self.cancelled


def _noop(*_args: Any) -> None:
    return None


class Simulator:
    """The discrete-event scheduler.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, print, "one second in")
        sim.run(until=10.0)

    Parameters
    ----------
    start_time:
        Initial clock value (seconds).  Defaults to 0.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, int, EventHandle]] = []
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0
        # Instruments are bound once, at construction.  Span profiling
        # is observational only (nothing in the dispatch path reads the
        # measurements); when no profiler is active the run loop pays
        # one None-check per event.
        installed = instruments.active()
        self._profiler = installed.profiler
        self._span_names: Dict[str, str] = {}
        # The determinism sanitizer: when inactive, scheduling pays one
        # None-check per event.
        self._sanitizer = installed.sanitizer
        # Deterministic metrics: counts are simulated facts (events
        # fired, queue high-watermark), so they are bit-identical run
        # to run — unlike the profiler's times.
        self._metrics = installed.metrics

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events that have fired so far."""
        return self._events_processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Post ``callback(*args)`` to fire at ``now + delay``.

        Parameters
        ----------
        delay:
            Non-negative offset from the current clock.  A delay of zero
            fires after all events already queued for the current time.
        callback:
            Any callable.  Exceptions propagate out of :meth:`run`.

        Returns
        -------
        EventHandle
            Cancel it with :meth:`EventHandle.cancel`.
        """
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._push(self._now + delay, callback, args)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Post ``callback(*args)`` at the absolute timestamp ``time >= now``.

        The event fires at ``time`` exactly; ``now + (time - now)`` could
        round to a neighbouring float.
        """
        if not time >= self._now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        return self._push(time, callback, args)

    def _push(
        self, time: float, callback: Callable[..., Any], args: tuple
    ) -> EventHandle:
        """Queue ``callback(*args)`` at ``time``, already checked >= now."""
        handle = EventHandle(time, callback, args)
        seq = next(self._seq)
        san = self._sanitizer
        tie = 0
        if san is not None and san.perturb_ties:
            tie = san.tie_rank(time, seq)
        heapq.heappush(self._queue, (time, tie, seq, handle))
        if self._metrics is not None:
            self._metrics.gauge_max("engine.queue_depth", len(self._queue))
        return handle

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously scheduled event (alias for ``handle.cancel()``)."""
        handle.cancel()

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next pending event: ``run(max_events=1)``.

        Returns
        -------
        bool
            False if the queue held no live event (nothing fired), else True.
        """
        before = self._events_processed
        self.run(max_events=1)
        return self._events_processed != before

    def _dispatch_span(self, callback: Callable[..., Any]) -> str:
        """Span name for a dispatched callback, by its defining layer."""
        module = getattr(callback, "__module__", "") or ""
        name = self._span_names.get(module)
        if name is None:
            name = self._span_names[module] = (
                layer_of_module(module) + ".dispatch"
            )
        return name

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the queue drains, the clock passes ``until``, or
        ``max_events`` events have fired — whichever comes first.

        Parameters
        ----------
        until:
            Absolute stop time.  Events scheduled exactly at ``until`` DO
            fire; events strictly after it stay queued and the clock is
            left at ``until``.
        max_events:
            Safety valve for runaway simulations.

        Returns
        -------
        float
            The clock value when the run stopped.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and until != until:
            # ``time > nan`` is always False, so the run would never stop.
            raise SimulationError("run() until must not be NaN")
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        metrics = self._metrics
        prof = self._profiler
        fired = 0
        try:
            while queue:
                time, _tie, _seq, handle = queue[0]
                if handle.cancelled:
                    heappop(queue)
                    if not queue:
                        # A queue that ends in cancelled entries stops
                        # the run without moving the clock to ``until``.
                        break
                    continue
                if until is not None and time > until:
                    self._now = max(self._now, until)
                    break
                heappop(queue)
                if time < self._now:  # pragma: no cover - defensive
                    raise SimulationError("event queue time went backwards")
                self._now = time
                handle.cancelled = True  # mark as fired; no longer cancellable
                self._events_processed += 1
                if metrics is not None:
                    metrics.inc("engine.events")
                if prof is None:
                    handle.callback(*handle.args)
                else:
                    t0 = prof.clock()
                    handle.callback(*handle.args)
                    prof.add(self._dispatch_span(handle.callback), prof.clock() - t0)
                fired += 1
                if max_events is not None and fired >= max_events:
                    break
            else:
                if until is not None:
                    self._now = max(self._now, until)
        finally:
            self._running = False
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for entry in self._queue if not entry[3].cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={self._now:.6f} pending={self.pending} "
            f"processed={self._events_processed}>"
        )
