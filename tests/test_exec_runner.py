"""Tests for the parallel trial runner (repro.exec.runner).

The load-bearing property is the determinism contract: a sweep's
results are byte-identical at any worker count, with failures returned
as structured data rather than exceptions.
"""

import json
import os
import random
import time

import pytest

from repro.core.montecarlo import ExponentialDuration, FixedDuration
from repro.exec import TrialRunner, TrialSpec, TrialTimeout
from repro.experiments.persistence import figure_to_json, sweep_to_json
from repro.experiments.sweep import grid_sweep


def observable(a, b, seed):
    """Pure, fork-safe fake observable (depends on all inputs)."""
    return a * 10.0 + b + (seed % 13) * 0.25


def draw_durations(sampler, seed):
    rng = random.Random(seed)
    return [sampler(rng) for _ in range(3)]


class TestSerialParallelEquality:
    def test_grid_sweep_bytes_identical_across_worker_counts(self):
        grid = {"a": [1, 2, 3], "b": [0, 5]}
        serial = grid_sweep(
            observable, grid=grid, trials=2, runner=TrialRunner(workers=1)
        )
        parallel = grid_sweep(
            observable, grid=grid, trials=2, runner=TrialRunner(workers=4)
        )
        assert json.dumps(sweep_to_json(serial), sort_keys=True) == json.dumps(
            sweep_to_json(parallel), sort_keys=True
        )

    def test_figure_4_bytes_identical_across_worker_counts(self):
        from repro.experiments.figures import figure_4

        kwargs = dict(id_bits_list=(3, 4), trials=2, duration=2.0, seed=0)
        serial = figure_4(runner=TrialRunner(workers=1), **kwargs)
        parallel = figure_4(runner=TrialRunner(workers=4), **kwargs)
        assert json.dumps(figure_to_json(serial), sort_keys=True) == json.dumps(
            figure_to_json(parallel), sort_keys=True
        )

    def test_nan_and_inf_round_trip_the_transport(self):
        specs = [
            TrialSpec(fn=lambda: float("nan"), kwargs={}),
            TrialSpec(fn=lambda: {"x": [float("inf"), 1.5]}, kwargs={}),
        ]
        for workers in (1, 2):
            outcomes = TrialRunner(workers=workers).run(specs)
            assert outcomes[0].ok and outcomes[0].value != outcomes[0].value
            assert outcomes[1].value == {"x": [float("inf"), 1.5]}

    def test_dataclass_and_callable_kwargs_reach_forked_workers(self):
        # Forked workers inherit kwargs by memory: dataclass samplers and
        # plain callables need no encoding to cross into a worker.
        specs = [
            TrialSpec(
                fn=draw_durations,
                kwargs={"sampler": FixedDuration(2.5), "seed": 1},
            ),
            TrialSpec(
                fn=draw_durations,
                kwargs={"sampler": ExponentialDuration(mean=4.0), "seed": 2},
            ),
            TrialSpec(
                fn=draw_durations,
                kwargs={"sampler": lambda rng: rng.random(), "seed": 3},
            ),
        ]
        serial = TrialRunner(workers=1).run(specs)
        runner = TrialRunner(workers=2)
        forked = runner.run(specs)
        assert runner.last_telemetry.workers == 2
        assert all(o.ok for o in forked)
        assert forked[0].value == [2.5, 2.5, 2.5]
        assert [o.value for o in forked] == [o.value for o in serial]
        assert [o.worker for o in forked] == [0, 1, 0]


class TestPipeTransport:
    """Length-prefixed JSON frames from forked workers, however they arrive."""

    def test_multi_megabyte_value_survives_a_forked_worker(self):
        blob = "".join(chr(ord("a") + i % 26) for i in range(5_000_000))
        specs = [
            TrialSpec(fn=lambda: {"blob": blob}, kwargs={}),
            TrialSpec(fn=lambda: 2.5, kwargs={}),
        ]
        outcomes = TrialRunner(workers=2).run(specs)
        assert outcomes[0].ok and outcomes[0].value == {"blob": blob}
        assert outcomes[1].value == 2.5

    def test_length_header_split_across_reads(self, monkeypatch):
        import repro.exec.runner as runner_module

        messages = [{"index": 4, "value": "x" * 10}, {"index": 1, "value": [1, 2]}]
        read_fd, write_fd = os.pipe()
        for message in messages:
            data = json.dumps(message).encode("utf-8")
            os.write(write_fd, len(data).to_bytes(4, "big") + data)
        os.close(write_fd)
        # Three bytes per read: the first frame's header arrives as 3 + 1
        # bytes, and later headers straddle reads at other offsets.
        real_read = os.read
        monkeypatch.setattr(
            runner_module.os,
            "read",
            lambda fd, n: real_read(fd, 3 if fd == read_fd else n),
        )
        drained = TrialRunner._drain_pipes([read_fd])
        assert drained == {4: {"value": "x" * 10}, 1: {"value": [1, 2]}}


class TestShardingAndOrdering:
    def test_outcomes_align_with_specs_and_round_robin_workers(self):
        specs = [
            TrialSpec(fn=lambda i=i: float(i), kwargs={}, label=f"t{i}")
            for i in range(6)
        ]
        outcomes = TrialRunner(workers=3).run(specs)
        assert [o.value for o in outcomes] == [float(i) for i in range(6)]
        assert [o.worker for o in outcomes] == [0, 1, 2, 0, 1, 2]

    def test_worker_cap_never_exceeds_pending(self):
        runner = TrialRunner(workers=8)
        outcomes = runner.run([TrialSpec(fn=lambda: 1.0, kwargs={})])
        assert outcomes[0].ok
        assert runner.last_telemetry.workers == 1

    def test_telemetry_counts(self):
        runner = TrialRunner(workers=2)
        runner.run(
            [TrialSpec(fn=lambda i=i: float(i), kwargs={}) for i in range(4)]
        )
        summary = runner.last_telemetry.summary()
        assert summary["trials"] == 4
        assert summary["computed"] == 4
        assert summary["failures"] == 0
        assert summary["workers"] == 2

    def test_per_worker_utilization_and_tasks(self):
        runner = TrialRunner(workers=2)
        runner.run(
            [TrialSpec(fn=lambda i=i: float(i), kwargs={}) for i in range(4)]
        )
        telemetry = runner.last_telemetry
        # Round-robin over 2 workers: each serves exactly 2 trials.
        assert telemetry.worker_tasks == {0: 2, 1: 2}
        assert set(telemetry.worker_busy) == {0, 1}
        summary = telemetry.summary()
        assert summary["worker_tasks"] == {"0": 2, "1": 2}
        assert set(summary["worker_utilization"]) == {"0", "1"}

    def test_telemetry_merge_accumulates_worker_tasks(self):
        runner = TrialRunner(workers=2)
        specs = [TrialSpec(fn=lambda i=i: float(i), kwargs={}) for i in range(4)]
        runner.run(specs)
        runner.run(specs)
        assert runner.telemetry.worker_tasks == {0: 4, 1: 4}
        assert sum(runner.telemetry.worker_busy.values()) >= 0.0

    def test_telemetry_span_counts_stay_integers(self):
        from repro.exec import RunTelemetry

        table = {"core.sample": {"count": 4, "total": 0.5, "min": 0.1, "max": 0.2}}
        telemetry = RunTelemetry()
        telemetry.add_spans(table)
        telemetry.add_spans(
            {"core.sample": {"count": 4, "total": 0.25, "min": 0.05, "max": 0.1}}
        )
        merged = telemetry.summary()["spans"]["core.sample"]
        assert merged["count"] == 8 and type(merged["count"]) is int
        assert merged == {"count": 8, "total": 0.75, "min": 0.05, "max": 0.2}


class TestFailurePaths:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_trial_exception_is_a_structured_failure(self, workers):
        def boom(seed):
            raise ValueError(f"bad seed {seed}")

        specs = [
            TrialSpec(fn=lambda: 1.0, kwargs={}, label="good"),
            TrialSpec(fn=boom, kwargs={"seed": 3}, label="bad"),
        ]
        outcomes = TrialRunner(workers=workers).run(specs)
        assert outcomes[0].ok
        assert not outcomes[1].ok
        failure = outcomes[1].failure
        assert failure.error_type == "ValueError"
        assert "bad seed 3" in failure.message
        assert "ValueError" in failure.traceback

    @pytest.mark.parametrize("workers", [1, 2])
    def test_timeout_with_bounded_retry(self, workers):
        specs = [TrialSpec(fn=lambda: time.sleep(30.0), kwargs={})]
        t0 = time.perf_counter()
        outcomes = TrialRunner(
            workers=workers, timeout=0.2, retries=1
        ).run(specs)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0  # both attempts bounded by the deadline
        assert not outcomes[0].ok
        assert outcomes[0].failure.error_type == "TrialTimeout"
        assert outcomes[0].attempts == 2

    def test_retry_recovers_a_flaky_trial(self, tmp_path):
        marker = tmp_path / "attempts"

        def flaky():
            count = int(marker.read_text()) if marker.exists() else 0
            marker.write_text(str(count + 1))
            if count == 0:
                raise TrialTimeout("synthetic first-attempt failure")
            return 42.0

        outcomes = TrialRunner(retries=1).run(
            [TrialSpec(fn=flaky, kwargs={})]
        )
        assert outcomes[0].ok
        assert outcomes[0].value == 42.0
        assert outcomes[0].attempts == 2

    def test_unserializable_result_is_a_failure_not_a_crash(self):
        outcomes = TrialRunner().run(
            [TrialSpec(fn=lambda: object(), kwargs={}, label="opaque")]
        )
        assert not outcomes[0].ok
        assert outcomes[0].failure.error_type == "TypeError"

    def test_worker_crash_yields_structured_failures(self):
        # A trial that kills its worker outright (only meaningful in
        # forked mode; serially os._exit would take pytest down with it).
        specs = [
            TrialSpec(fn=lambda: 1.0, kwargs={}, label="ok-0"),
            TrialSpec(fn=lambda: os._exit(3), kwargs={}, label="crash"),
            TrialSpec(fn=lambda: 2.0, kwargs={}, label="ok-2"),
            TrialSpec(fn=lambda: 3.0, kwargs={}, label="shard-mate"),
        ]
        runner = TrialRunner(workers=2)
        outcomes = runner.run(specs)
        # Worker 0 computes specs 0 and 2; worker 1 dies on spec 1 and
        # never reaches its shard-mate spec 3.
        assert outcomes[0].ok and outcomes[0].value == 1.0
        assert outcomes[2].ok and outcomes[2].value == 2.0
        for index in (1, 3):
            assert not outcomes[index].ok
            assert outcomes[index].failure.error_type == "WorkerCrashed"
        assert runner.last_telemetry.failures == 2

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            TrialRunner(workers=0)
        with pytest.raises(ValueError):
            TrialRunner(retries=-1)


class TestDeadlineDegradation:
    def test_off_main_thread_runs_unbounded_with_warning(self):
        """SIGALRM deadlines cannot be armed off the main thread; the
        runner must degrade to an unbounded (but completed) trial and
        say so in telemetry, not crash."""
        import threading

        box = {}

        def drive():
            runner = TrialRunner(workers=1, timeout=5.0)
            box["outcomes"] = runner.run(
                [TrialSpec(fn=lambda: 7.0, kwargs={})]
            )
            box["telemetry"] = runner.last_telemetry

        thread = threading.Thread(target=drive)
        thread.start()
        thread.join()
        assert box["outcomes"][0].ok
        assert box["outcomes"][0].value == 7.0
        warnings = box["telemetry"].warnings
        assert any("off the main thread" in w for w in warnings)
        assert any("off the main thread" in w
                   for w in box["telemetry"].summary()["warnings"])
        assert "warning:" in box["telemetry"].render()

    def test_main_thread_deadlines_stay_armed_and_silent(self):
        runner = TrialRunner(workers=1, timeout=5.0)
        outcomes = runner.run([TrialSpec(fn=lambda: 1.0, kwargs={})])
        assert outcomes[0].ok
        assert runner.last_telemetry.warnings == []


def counted_trial(seed):
    """Books one span and one counter into whatever is installed."""
    from repro.obs.metrics import inc
    from repro.obs.spans import span

    with span("core.sample"):
        inc("core.draws", seed)
    return float(seed)


class TestInstruments:
    """Trials run under what the parent installed, and merge back into it."""

    SPECS = [TrialSpec(fn=counted_trial, kwargs={"seed": s}) for s in (1, 2, 3)]

    def test_nothing_installed_ships_nothing(self):
        from repro.exec.runner import execute_call

        message = execute_call(counted_trial, {"seed": 1}, None, 0)
        assert message["ok"]
        assert "instruments" not in message

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parts_merge_into_installed_and_telemetry(self, workers):
        from repro.obs.metrics import collecting
        from repro.obs.spans import profiling

        runner = TrialRunner(workers=workers)
        with profiling() as profiler, collecting() as registry:
            outcomes = runner.run(self.SPECS)
        assert [o.value for o in outcomes] == [1.0, 2.0, 3.0]
        spans = profiler.to_json()
        assert spans["core.sample"]["count"] == 3
        assert spans["exec.trial"]["count"] == 3
        assert runner.telemetry.spans["exec.trial"]["count"] == 3
        assert registry.counter("core.draws") == 6
        assert registry.counter("exec.trials") == 3
        assert runner.telemetry.metrics["core.draws"]["value"] == 6

    def test_failed_attempt_counts_never_leak(self, tmp_path):
        from repro.obs.metrics import collecting

        marker = tmp_path / "failed-once"

        def flaky():
            counted_trial(5)
            if not marker.exists():
                marker.write_text("x")
                raise RuntimeError("first attempt")
            return 1.0

        with collecting() as registry:
            (outcome,) = TrialRunner(retries=1).run([TrialSpec(fn=flaky, kwargs={})])
        assert outcome.ok and outcome.attempts == 2
        assert registry.counter("core.draws") == 5
        assert registry.counter("exec.retries") == 1
