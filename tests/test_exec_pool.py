"""Tests for the forked worker processes behind ``TrialRunner(workers>1)``.

Every parallel run forks a fresh set of workers, so the load-bearing
properties are the ones a worker pool has to keep: results are
byte-identical to the serial path, non-finite floats survive the pipe,
deadlines are armed inside each worker, and a crashed worker degrades
to structured per-trial failures without poisoning the next run.
"""

import json
import math
import os
import time

from repro.exec import TrialRunner, TrialSpec


def scaled(x, factor=2.0):
    return x * factor


def crash_hard():
    os._exit(9)


def sleepy(seconds):
    time.sleep(seconds)
    return seconds


def weird_floats():
    return {"nan": float("nan"), "inf": float("inf")}


class TestPoolExecution:
    def test_pooled_results_match_serial_bytes(self):
        specs = lambda: [  # noqa: E731 - fresh specs per runner
            TrialSpec(fn=scaled, kwargs={"x": float(i), "factor": 1.5})
            for i in range(5)
        ]
        serial = TrialRunner(workers=1).run(specs())
        forked = TrialRunner(workers=2).run(specs())
        assert json.dumps([o.value for o in forked]) == json.dumps(
            [o.value for o in serial]
        )
        assert [o.worker for o in forked] == [0, 1, 0, 1, 0]

    def test_nonfinite_results_survive_the_pool(self):
        # Two pending specs, so both really cross a worker pipe.
        outcomes = TrialRunner(workers=2).run(
            [TrialSpec(fn=weird_floats, kwargs={}) for _ in range(2)]
        )
        for outcome in outcomes:
            assert outcome.worker is not None
            assert math.isnan(outcome.value["nan"])
            assert outcome.value["inf"] == float("inf")

    def test_crash_degrades_to_failures_then_respawns(self):
        runner = TrialRunner(workers=2)
        outcomes = runner.run(
            [
                TrialSpec(fn=scaled, kwargs={"x": 1.0}, label="ok"),
                TrialSpec(fn=crash_hard, kwargs={}, label="crash"),
                TrialSpec(fn=scaled, kwargs={"x": 2.0}, label="ok-2"),
                TrialSpec(fn=scaled, kwargs={"x": 3.0}, label="mate"),
            ]
        )
        # Worker 0 computes 0 and 2; worker 1 dies on 1, never reaches 3.
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok and not outcomes[3].ok
        for index in (1, 3):
            assert outcomes[index].failure.error_type == "WorkerCrashed"

        # The next run forks a full set of workers again and runs clean.
        again = runner.run(
            [TrialSpec(fn=scaled, kwargs={"x": float(i)}) for i in range(4)]
        )
        assert [o.value for o in again] == [0.0, 2.0, 4.0, 6.0]
        assert [o.worker for o in again] == [0, 1, 0, 1]
        assert runner.last_telemetry.workers == 2
        assert runner.last_telemetry.failures == 0

    def test_timeouts_apply_inside_pool_workers(self):
        runner = TrialRunner(workers=2, timeout=0.2)
        t0 = time.perf_counter()
        outcomes = runner.run(
            [TrialSpec(fn=sleepy, kwargs={"seconds": 30.0}) for _ in range(2)]
        )
        assert time.perf_counter() - t0 < 10.0
        for outcome in outcomes:
            assert outcome.worker is not None
            assert not outcome.ok
            assert outcome.failure.error_type == "TrialTimeout"
