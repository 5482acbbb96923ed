"""Unit tests for the discrete-event kernel."""

import pytest

from repro.analysis.sanitizer.runtime import DetSanContext, sanitizing
from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_event_fires_at_scheduled_time(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self):
        sim = Simulator()
        order = []
        for tag in range(10):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == list(range(10))

    def test_zero_delay_runs_after_current_queue_at_same_time(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "first")
        sim.schedule(1.0, lambda: sim.schedule(0.0, order.append, "nested"))
        sim.schedule(1.0, order.append, "second")
        sim.run()
        assert order == ["first", "second", "nested"]

    def test_callback_args_are_passed(self):
        sim = Simulator()
        got = []
        sim.schedule(1.0, lambda a, b: got.append((a, b)), 1, "x")
        sim.run()
        assert got == [(1, "x")]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        fired = []
        sim.schedule(1.0, fired.append, "one")
        sim.schedule(0.5, fired.append, "half")
        sim.run()
        assert fired == ["half", "one"]
        assert sim.now == 1.0

    def test_run_until_nan_rejected(self):
        # ``time > nan`` is never true, so such a run would never stop.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "one")
        with pytest.raises(SimulationError):
            sim.run(until=float("nan"))
        assert fired == []
        assert sim.now == 0.0
        assert sim.run(until=2.0) == 2.0
        assert fired == ["one"]

    def test_schedule_at_nan_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending == 0

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        hits = []
        sim.schedule_at(4.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [4.0]

    def test_schedule_at_fires_at_time_exactly(self):
        # now + (time - now) rounds to 1.0 here: time - now is a
        # half-ulp tie that rounds to even, and so is the sum.
        now, time = 2.0 ** -53, 1.0 + 2.0 ** -52
        assert now + (time - now) != time
        sim = Simulator()
        hits = []
        sim.schedule(now, lambda: sim.schedule_at(time, lambda: hits.append(sim.now)))
        sim.run()
        assert hits == [time]

    def test_schedule_at_past_time_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        hits = []
        handle = sim.schedule(1.0, hits.append, "x")
        handle.cancel()
        sim.run()
        assert hits == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_cancel_via_simulator_method(self):
        sim = Simulator()
        hits = []
        handle = sim.schedule(1.0, hits.append, 1)
        sim.cancel(handle)
        sim.run()
        assert hits == []

    def test_active_flag_tracks_lifecycle(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert handle.active
        handle.cancel()
        assert not handle.active

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        h1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h1.cancel()
        assert sim.pending == 1


class TestRunLoop:
    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, hits.append, "in")
        sim.schedule(10.0, hits.append, "out")
        end = sim.run(until=5.0)
        assert end == 5.0
        assert hits == ["in"]
        assert sim.pending == 1

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        hits = []
        sim.schedule(5.0, hits.append, "edge")
        sim.run(until=5.0)
        assert hits == ["edge"]

    def test_run_with_empty_queue_advances_to_until(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_bounds_execution(self):
        sim = Simulator()
        count = []
        for _ in range(100):
            sim.schedule(1.0, count.append, 1)
        sim.run(max_events=10)
        assert len(count) == 10

    def test_step_returns_false_on_empty_queue(self):
        assert Simulator().step() is False

    def test_step_fires_exactly_one_event(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, hits.append, 1)
        sim.schedule(2.0, hits.append, 2)
        assert sim.step() is True
        assert hits == [1]

    def test_step_skips_cancelled_heads(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, hits.append, 1).cancel()
        sim.schedule(2.0, hits.append, 2)
        assert sim.step() is True
        assert hits == [2]
        assert sim.now == 2.0
        assert sim.events_processed == 1

    def test_step_on_cancelled_only_queue_fires_nothing(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        assert sim.step() is False
        assert sim.now == 0.0
        assert sim.events_processed == 0

    def test_run_until_over_cancelled_tail_keeps_clock(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(3.0, lambda: None).cancel()
        assert sim.run(until=5.0) == 1.0
        assert sim.run(until=5.0) == 5.0

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        hits = []

        def chain(n):
            hits.append(n)
            if n < 5:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 1)
        sim.run()
        assert hits == [1, 2, 3, 4, 5]
        assert sim.now == 5.0

    def test_run_not_reentrant(self):
        sim = Simulator()
        errors = []

        def recurse():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, recurse)
        sim.run()
        assert len(errors) == 1

    def test_exception_in_callback_propagates(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

    def test_clock_never_goes_backwards(self):
        sim = Simulator()
        observed = []
        for delay in (5.0, 1.0, 3.0, 1.0, 4.0):
            sim.schedule(delay, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)


class TestSameTimestampQueue:
    """The heap's ``(time, tie, seq)`` order over many equal timestamps."""

    N = 1200

    def _schedule_batch(self, sim, fired, time=1.0):
        handles = [sim.schedule(time, fired.append, tag) for tag in range(self.N)]
        cancelled = set(range(0, self.N, 7))
        for tag in cancelled:
            handles[tag].cancel()
        return [tag for tag in range(self.N) if tag not in cancelled]

    def test_fifo_order_with_cancellations(self):
        sim = Simulator()
        fired = []
        live = self._schedule_batch(sim, fired)
        assert sim.pending == len(live)
        sim.run()
        assert fired == live
        assert sim.pending == 0
        assert sim.events_processed == len(live)

    def test_run_until_skips_cancelled_heads(self):
        sim = Simulator()
        early, fired = [], []
        for tag in range(self.N):
            sim.schedule(0.5, early.append, tag).cancel()
        live = self._schedule_batch(sim, fired)
        for tag in range(self.N):
            sim.schedule(1.5, fired.append, tag).cancel()
        late = sim.schedule(5.0, fired.append, "late")
        assert sim.pending == len(live) + 1
        assert sim.run(until=2.0) == 2.0
        assert early == []
        assert fired == live
        assert sim.pending == 1
        late.cancel()
        assert sim.pending == 0

    def test_max_events_stops_inside_a_tie_run(self):
        sim = Simulator()
        fired = []
        live = self._schedule_batch(sim, fired)
        sim.run(max_events=500)
        assert fired == live[:500]
        assert sim.pending == len(live) - 500
        sim.run()
        assert fired == live

    def test_perturbed_ties_give_one_reproducible_permutation(self):
        def run_once():
            fired = []
            with sanitizing(DetSanContext(seed=11, perturb_ties=True)):
                sim = Simulator()
                live = self._schedule_batch(sim, fired)
                sim.run()
            return live, fired

        live, first = run_once()
        assert sorted(first) == live
        assert first != live
        assert run_once()[1] == first

    def test_perturbed_ties_never_reorder_distinct_times(self):
        fired = []
        with sanitizing(DetSanContext(seed=11, perturb_ties=True)):
            sim = Simulator()
            for tag in range(200):
                sim.schedule(float(tag % 10), fired.append, (tag % 10, tag))
            sim.run()
        assert [time for time, _tag in fired] == sorted(t for t, _ in fired)
