"""Unit tests for generator-based processes."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.process import (
    WAIT_TIMED_OUT,
    Interrupt,
    ProcessError,
    Signal,
    Timeout,
    WaitSignal,
    all_finished,
    spawn,
)


class TestTimeout:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        times = []

        def proc():
            times.append(sim.now)
            yield Timeout(2.0)
            times.append(sim.now)

        spawn(sim, proc())
        sim.run()
        assert times == [0.0, 2.0]

    def test_sequential_timeouts_accumulate(self):
        sim = Simulator()
        times = []

        def proc():
            for _ in range(3):
                yield Timeout(1.5)
                times.append(sim.now)

        spawn(sim, proc())
        sim.run()
        assert times == [1.5, 3.0, 4.5]

    def test_zero_timeout_allowed(self):
        sim = Simulator()
        done = []

        def proc():
            yield Timeout(0.0)
            done.append(True)

        spawn(sim, proc())
        sim.run()
        assert done == [True]

    def test_negative_timeout_rejected(self):
        with pytest.raises(ProcessError):
            Timeout(-1.0)

    def test_nan_timeout_rejected(self):
        with pytest.raises(ProcessError):
            Timeout(float("nan"))


class TestSignal:
    def test_fire_wakes_waiter_with_value(self):
        sim = Simulator()
        sig = Signal(sim, "data")
        got = []

        def waiter():
            value = yield sig
            got.append(value)

        def firer():
            yield Timeout(1.0)
            sig.fire("payload")

        spawn(sim, waiter())
        spawn(sim, firer())
        sim.run()
        assert got == ["payload"]

    def test_fire_wakes_all_waiters(self):
        sim = Simulator()
        sig = Signal(sim)
        got = []

        def waiter(tag):
            value = yield sig
            got.append((tag, value))

        for i in range(3):
            spawn(sim, waiter(i))
        sim.schedule(1.0, sig.fire, 42)
        sim.run()
        assert sorted(got) == [(0, 42), (1, 42), (2, 42)]

    def test_signal_is_reusable(self):
        sim = Simulator()
        sig = Signal(sim)
        got = []

        def waiter():
            got.append((yield sig))
            got.append((yield sig))

        spawn(sim, waiter())
        sim.schedule(1.0, sig.fire, "a")
        sim.schedule(2.0, sig.fire, "b")
        sim.run()
        assert got == ["a", "b"]

    def test_fire_with_no_waiters_returns_zero(self):
        sim = Simulator()
        sig = Signal(sim)
        assert sig.fire() == 0
        assert sig.fire_count == 1

    def test_waiter_count(self):
        sim = Simulator()
        sig = Signal(sim)

        def waiter():
            yield sig

        spawn(sim, waiter())
        sim.run(max_events=1)  # let the process reach its yield
        assert sig.waiter_count == 1


class TestWaitSignalTimeout:
    def test_wait_times_out_with_sentinel(self):
        sim = Simulator()
        sig = Signal(sim)
        got = []

        def waiter():
            value = yield WaitSignal(sig, timeout=2.0)
            got.append((value, sim.now))

        spawn(sim, waiter())
        sim.run()
        assert got == [(WAIT_TIMED_OUT, 2.0)]

    def test_fire_before_timeout_delivers_value(self):
        sim = Simulator()
        sig = Signal(sim)
        got = []

        def waiter():
            value = yield WaitSignal(sig, timeout=5.0)
            got.append(value)

        spawn(sim, waiter())
        sim.schedule(1.0, sig.fire, "early")
        sim.run()
        assert got == ["early"]
        # The pending timeout must not wake the process a second time.
        assert sim.now < 5.0 or got == ["early"]

    def test_timeout_removes_process_from_signal_waiters(self):
        sim = Simulator()
        sig = Signal(sim)

        def waiter():
            yield WaitSignal(sig, timeout=1.0)

        spawn(sim, waiter())
        sim.run()
        assert sig.waiter_count == 0


class TestJoin:
    def test_join_receives_return_value(self):
        sim = Simulator()
        got = []

        def worker():
            yield Timeout(3.0)
            return "result"

        def parent():
            child = spawn(sim, worker())
            value = yield child
            got.append((value, sim.now))

        spawn(sim, parent())
        sim.run()
        assert got == [("result", 3.0)]

    def test_join_already_finished_process(self):
        sim = Simulator()
        got = []

        def worker():
            return "done"
            yield  # pragma: no cover

        def parent():
            child = spawn(sim, worker())
            yield Timeout(5.0)
            value = yield child
            got.append(value)

        spawn(sim, parent())
        sim.run()
        assert got == ["done"]

    def test_self_join_rejected(self):
        sim = Simulator()
        holder = {}

        def selfish():
            yield holder["proc"]

        holder["proc"] = spawn(sim, selfish())
        with pytest.raises(ProcessError):
            sim.run()

    def test_all_finished(self):
        sim = Simulator()

        def quick():
            yield Timeout(1.0)

        procs = [spawn(sim, quick()) for _ in range(3)]
        assert not all_finished(procs)
        sim.run()
        assert all_finished(procs)


class TestInterrupt:
    def test_interrupt_raises_inside_process(self):
        sim = Simulator()
        caught = []

        def proc():
            try:
                yield Timeout(100.0)
            except Interrupt as exc:
                caught.append((exc.cause, sim.now))

        p = spawn(sim, proc())
        sim.schedule(2.0, p.interrupt, "reason")
        sim.run()
        assert caught == [("reason", 2.0)]
        assert p.finished

    def test_unhandled_interrupt_finishes_process_cleanly(self):
        sim = Simulator()

        def proc():
            yield Timeout(100.0)

        p = spawn(sim, proc())
        sim.schedule(1.0, p.interrupt)
        sim.run()
        assert p.finished
        assert p.error is None

    def test_interrupt_finished_process_is_noop(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)

        p = spawn(sim, proc())
        sim.run()
        p.interrupt()
        sim.run()
        assert p.finished

    def test_interrupt_cancels_pending_timeout(self):
        sim = Simulator()

        def proc():
            try:
                yield Timeout(100.0)
            except Interrupt:
                pass

        p = spawn(sim, proc())
        sim.schedule(1.0, p.interrupt)
        sim.run()
        # the 100 s timeout must not still be live
        assert sim.now < 100.0


class TestErrors:
    def test_bad_yield_value_raises(self):
        sim = Simulator()

        def proc():
            yield 42

        spawn(sim, proc())
        with pytest.raises(ProcessError):
            sim.run()

    def test_spawn_requires_generator(self):
        sim = Simulator()
        with pytest.raises(ProcessError):
            spawn(sim, lambda: None)  # type: ignore[arg-type]

    def test_exception_recorded_and_propagated(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)
            raise ValueError("inner")

        p = spawn(sim, proc())
        with pytest.raises(ValueError):
            sim.run()
        assert p.finished
        assert isinstance(p.error, ValueError)

    def test_process_return_value_recorded(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)
            return 99

        p = spawn(sim, proc())
        sim.run()
        assert p.value == 99
