"""Generator-based processes on top of the event kernel.

A *process* is a Python generator that yields :class:`Timeout`,
:class:`WaitSignal`, or another :class:`Process` (to join it).  The
scheduler resumes the generator when the awaited condition is met,
sending back the condition's value (the fired signal's payload, or the
joined process's return value).

Example
-------
::

    def sender(sim, radio):
        for _ in range(10):
            radio.transmit(frame)
            yield Timeout(0.5)          # inter-packet gap

    proc = spawn(sim, sender(sim, radio))
    sim.run()
    assert proc.finished

This mirrors the process model of simpy while remaining ~200 lines and
fully deterministic with the kernel's FIFO tie-breaking.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional

from .engine import SimulationError, Simulator

__all__ = [
    "Interrupt",
    "Process",
    "ProcessError",
    "Signal",
    "Timeout",
    "WaitSignal",
    "spawn",
]


class ProcessError(SimulationError):
    """Raised on process-API misuse (bad yield values, joining self)."""


class Interrupt(Exception):
    """Thrown *into* a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries whatever the interrupter passed.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Timeout:
    """Yield target: resume the process after ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if not delay >= 0:  # also rejects NaN
            raise ProcessError(f"Timeout delay must be >= 0, got {delay}")
        self.delay = delay

    def __repr__(self) -> str:
        return f"Timeout({self.delay!r})"


class Signal:
    """A broadcast condition processes can wait on.

    ``fire(value)`` wakes every currently waiting process, delivering
    ``value`` as the result of their ``yield``.  Signals are reusable:
    processes that wait after a fire block until the *next* fire.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self._sim = sim
        self.name = name
        self._waiters: list[Process] = []
        self.fire_count = 0

    def fire(self, value: Any = None) -> int:
        """Wake all waiters with ``value``.  Returns the number woken."""
        waiters, self._waiters = self._waiters, []
        self.fire_count += 1
        for proc in waiters:
            # Resume via the scheduler (same timestamp, FIFO order) so a
            # fire() inside an event callback cannot reenter arbitrarily.
            self._sim.schedule(0.0, proc._resume, value)
        return len(waiters)

    def _add_waiter(self, proc: "Process") -> None:
        self._waiters.append(proc)

    def _remove_waiter(self, proc: "Process") -> None:
        if proc in self._waiters:
            self._waiters.remove(proc)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:
        return f"<Signal {self.name!r} waiters={len(self._waiters)}>"


class WaitSignal:
    """Yield target: block until ``signal`` fires.

    An optional ``timeout`` bounds the wait; on expiry the process is
    resumed with :data:`WAIT_TIMED_OUT` instead of the signal payload.
    """

    __slots__ = ("signal", "timeout")

    def __init__(self, signal: Signal, timeout: Optional[float] = None):
        self.signal = signal
        self.timeout = timeout


#: Sentinel returned from ``yield WaitSignal(sig, timeout=...)`` on expiry.
WAIT_TIMED_OUT = object()


class Process:
    """A running generator coroutine inside the simulation.

    Do not instantiate directly — use :func:`spawn`.
    """

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
        self._sim = sim
        self._gen = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.finished = False
        self.value: Any = None           # generator's return value
        self.error: Optional[BaseException] = None
        self._joiners: list[Process] = []
        self._pending_timeout = None      # EventHandle for Timeout / wait timeout
        self._waiting_signal: Optional[Signal] = None

    # ------------------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self.finished:
            return
        self._detach()
        self._sim.schedule(0.0, self._throw, Interrupt(cause))

    def join(self) -> "WaitSignal":
        """(internal) processes yield the Process object itself to join."""
        raise ProcessError("yield the Process object itself to join it")

    # ------------------------------------------------------------------
    # Scheduler plumbing
    # ------------------------------------------------------------------
    def _start(self) -> None:
        self._sim.schedule(0.0, self._resume, None)

    def _detach(self) -> None:
        """Withdraw from whatever this process is currently waiting on."""
        if self._pending_timeout is not None:
            self._pending_timeout.cancel()
            self._pending_timeout = None
        if self._waiting_signal is not None:
            self._waiting_signal._remove_waiter(self)
            self._waiting_signal = None

    def _resume(self, value: Any) -> None:
        if self.finished:
            return
        self._detach()
        try:
            target = self._gen.send(value)
        except StopIteration as stop:
            self._finish(value=stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate after record
            self._finish(error=exc)
            raise
        self._wait_on(target)

    def _throw(self, exc: BaseException) -> None:
        if self.finished:
            return
        try:
            target = self._gen.throw(exc)
        except StopIteration as stop:
            self._finish(value=stop.value)
            return
        except Interrupt:
            # Process chose not to handle the interrupt: treat as clean exit.
            self._finish(value=None)
            return
        except BaseException as err:  # noqa: BLE001
            self._finish(error=err)
            raise
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        """Arrange to resume when ``target`` completes."""
        if isinstance(target, Timeout):
            self._pending_timeout = self._sim.schedule(
                target.delay, self._resume, None
            )
        elif isinstance(target, Signal):
            self._waiting_signal = target
            target._add_waiter(self)
        elif isinstance(target, WaitSignal):
            self._waiting_signal = target.signal
            target.signal._add_waiter(self)
            if target.timeout is not None:
                self._pending_timeout = self._sim.schedule(
                    target.timeout, self._resume, WAIT_TIMED_OUT
                )
        elif isinstance(target, Process):
            if target is self:
                raise ProcessError("a process cannot join itself")
            if target.finished:
                self._sim.schedule(0.0, self._resume, target.value)
            else:
                target._joiners.append(self)
        else:
            raise ProcessError(
                f"process {self.name!r} yielded unsupported value {target!r}; "
                "yield Timeout, Signal, WaitSignal, or a Process"
            )

    def _finish(self, value: Any = None, error: Optional[BaseException] = None) -> None:
        self.finished = True
        self.value = value
        self.error = error
        self._detach()
        joiners, self._joiners = self._joiners, []
        for j in joiners:
            self._sim.schedule(0.0, j._resume, value)

    def __repr__(self) -> str:
        state = "done" if self.finished else "running"
        return f"<Process {self.name!r} {state}>"


def spawn(sim: Simulator, generator: Generator, name: str = "") -> Process:
    """Start ``generator`` as a process; it first runs at the current time.

    Returns the :class:`Process`, which other processes may yield to join.
    """
    if not hasattr(generator, "send"):
        raise ProcessError(
            "spawn() needs a generator (did you forget to call the function?)"
        )
    proc = Process(sim, generator, name=name)
    proc._start()
    return proc


def all_finished(processes: Iterable[Process]) -> bool:
    """True when every process in the iterable has finished."""
    return all(p.finished for p in processes)
