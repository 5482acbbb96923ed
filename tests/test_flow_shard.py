"""Sharded flow execution: partition properties, bit-identity, caching.

The contract under test (``repro.flow.shard``): the decomposition of a
run — worker count and shard count — is an execution detail.  Results and exported traces are bit-identical to the serial
path at every combination, and different decompositions never alias in
the result cache.
"""

import json
import pathlib

import pytest

from repro.exec import TrialRunner
from repro.exec.cache import ResultCache
from repro.flow.hybrid import simulate
from repro.flow.sampler import window_plan
from repro.flow.shard import (
    merge_range_values,
    partition_plan,
    range_trial_key,
    simulate_sharded,
    simulate_traced,
    window_range_trial,
)
from repro.flow.streams import figure4_scenario, massive_scenario

#: Small massive-family scenario with an escalating burst: its baseline
#: windows sit at density ~12, the burst at ~21, so hybrid runs at
#: threshold 15 escalate exactly the burst windows to frame fidelity.
SCENARIO = massive_scenario(n_nodes=2_000, horizon=120.0)
THRESHOLD = 15.0
SEED = 11


class TestPartitionPlan:
    @pytest.mark.parametrize(
        "shards", [1, 2, 4, 7, 100], ids=lambda shards: f"{shards}-cost"
    )
    def test_cover_contiguous_nonempty(self, shards):
        plan = window_plan(SCENARIO)
        ranges = partition_plan(plan, shards)
        assert len(ranges) == min(shards, len(plan))
        assert ranges[0].lo == 0
        assert ranges[-1].hi == len(plan)
        for left, right in zip(ranges[:-1], ranges[1:]):
            assert left.hi == right.lo
        assert all(r.windows > 0 for r in ranges)

    def test_cost_strategy_balances_burst(self):
        # The burst windows dominate the cost; the cost balance must
        # not leave one shard with the burst plus half the plan.
        plan = window_plan(SCENARIO)
        ranges = partition_plan(plan, 4)
        costs = [r.cost for r in ranges]
        assert max(costs) / (sum(costs) / len(costs)) < 2.0

    def test_frame_escalation_raises_cost(self):
        plan = window_plan(SCENARIO)
        flow = partition_plan(plan, 3, fidelity="flow")
        hybrid = partition_plan(
            plan, 3, fidelity="hybrid", switch_threshold=THRESHOLD
        )
        assert sum(r.cost for r in hybrid) > sum(r.cost for r in flow)

    def test_rejects_bad_arguments(self):
        plan = window_plan(SCENARIO)
        with pytest.raises(ValueError):
            partition_plan(plan, 0)

    def test_empty_plan(self):
        assert partition_plan([], 4) == []


class TestBitIdentity:
    @pytest.mark.parametrize(
        "workers", [1, 2, 4], ids=lambda workers: f"{workers}-cost"
    )
    @pytest.mark.parametrize("fidelity", ["flow", "hybrid"])
    def test_sharded_equals_serial(self, workers, fidelity):
        serial = simulate(
            SCENARIO, SEED, fidelity=fidelity, switch_threshold=THRESHOLD
        )
        if fidelity == "hybrid":
            assert serial.frame_windows > 0  # the burst must escalate
        sharded = simulate_sharded(
            SCENARIO,
            SEED,
            fidelity=fidelity,
            switch_threshold=THRESHOLD,
            shards=workers * 2,
            runner=TrialRunner(workers=workers),
        )
        assert sharded == serial

    def test_shard_count_does_not_enter_seeds(self):
        # Different shard counts replay the same window streams: each
        # decomposition must reproduce the exact serial outcome, which
        # is only possible if seeds derive from the run, not the shards.
        results = {
            shards: simulate_sharded(SCENARIO, SEED, shards=shards)
            for shards in (1, 3, 5)
        }
        assert len({tuple(r.windows) for r in results.values()}) == 1

    def test_range_trial_validates_bounds(self):
        with pytest.raises(ValueError):
            window_range_trial(SCENARIO, SEED, 5, 2)
        with pytest.raises(ValueError):
            window_range_trial(SCENARIO, SEED, 0, 10_000)

    def test_merge_detects_missing_windows(self):
        value = window_range_trial(SCENARIO, SEED, 0, 2)
        from repro.exec import ExecError

        with pytest.raises(ExecError):
            merge_range_values([value], expected_windows=len(window_plan(SCENARIO)))


class TestTraceIdentity:
    def test_merged_trace_bytes_independent_of_decomposition(self, tmp_path):
        paths = []
        for name, shards, workers in (("a", 1, 1), ("b", 3, 2), ("c", 5, 4)):
            path = tmp_path / f"{name}.jsonl"
            simulate_traced(
                SCENARIO,
                SEED,
                path,
                fidelity="hybrid",
                switch_threshold=THRESHOLD,
                shards=shards,
                runner=TrialRunner(workers=workers),
            )
            paths.append(path)
            assert not (tmp_path / f"{name}.jsonl.spool").exists()
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_trace_carries_all_three_categories(self, tmp_path):
        from repro.obs.envelope import read_trace

        path = tmp_path / "t.jsonl"
        result = simulate_traced(
            SCENARIO, SEED, path, fidelity="hybrid",
            switch_threshold=THRESHOLD, shards=2,
        )
        records = list(read_trace(path))
        by_cat = {}
        for record in records:
            by_cat.setdefault(record.category, []).append(record)
        assert len(by_cat["flow.window"]) == len(result.windows)
        assert len(by_cat["flow.outcome"]) == len(result.windows)
        # Per-transaction records only for the escalated windows.
        frame_txns = sum(
            w.transactions for w in result.windows if w.fidelity == "frame"
        )
        assert len(by_cat["flow.txn"]) == frame_txns
        times = [record.time for record in records]
        assert times == sorted(times)

    def test_stale_spool_shard_never_reaches_the_trace(self, tmp_path):
        from repro.obs.envelope import write_trace
        from repro.sim.trace import TraceRecord

        clean = tmp_path / "clean.jsonl"
        simulate_traced(SCENARIO, SEED, clean, shards=2)
        # What a killed run leaves behind: a finished shard in the spool.
        target = tmp_path / "rerun.jsonl"
        spool = tmp_path / "rerun.jsonl.spool"
        spool.mkdir()
        write_trace(
            spool / "windows-99999999.jsonl",
            iter([TraceRecord(1.0, "flow.window", {"window": 99999999})]),
        )
        simulate_traced(SCENARIO, SEED, target, shards=2)
        assert target.read_bytes() == clean.read_bytes()
        assert not spool.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_truncated_shard_fails_the_run_and_leaves_nothing(
        self, tmp_path, monkeypatch, workers
    ):
        from repro.flow import shard
        from repro.obs.envelope import TraceReadError

        real = shard.window_range_trial

        def drop_first_footer(*args, **kwargs):
            value = real(*args, **kwargs)
            path = pathlib.Path(kwargs["trace_path"])
            if kwargs["lo"] == 0:  # one shard loses its footer
                lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
                assert json.loads(lines[-1])["end"] is True
                path.write_text("".join(lines[:-1]), encoding="utf-8")
            return value

        monkeypatch.setattr(shard, "window_range_trial", drop_first_footer)
        target = tmp_path / "t.jsonl"
        with pytest.raises(TraceReadError, match="no footer"):
            simulate_traced(
                SCENARIO, SEED, target, shards=3, runner=TrialRunner(workers=workers)
            )
        assert sorted(p.name for p in tmp_path.iterdir()) == []


class TestCacheDiscipline:
    def test_no_aliasing_between_decompositions(self):
        scenario = figure4_scenario(10, 5.0, horizon=100.0)
        plan = window_plan(scenario)
        # The plan has 4 windows, so 4 and 5 shards cut identically;
        # the key material still must not collide because the shard
        # count is part of it.
        assert partition_plan(plan, 4) == partition_plan(plan, 5)
        keys = set()
        for shards in (2, 4, 5):
            for window_range in partition_plan(plan, shards):
                keys.add(
                    range_trial_key(
                        scenario,
                        SEED,
                        window_range.lo,
                        window_range.hi,
                        shards=shards,
                        fidelity="flow",
                        switch_threshold=THRESHOLD,
                        model="mixed",
                    )
                )
        assert len(keys) == 2 + 4 + 4

    def test_cached_rerun_hits_and_agrees(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = TrialRunner(workers=2, cache=cache)
        first = simulate_sharded(SCENARIO, SEED, shards=3, runner=runner)
        runner2 = TrialRunner(workers=2, cache=ResultCache(tmp_path / "cache"))
        second = simulate_sharded(SCENARIO, SEED, shards=3, runner=runner2)
        assert first == second
        assert runner2.last_telemetry is not None
        assert runner2.last_telemetry.cache_hits == 3
        # A different decomposition of the same run recomputes (no
        # aliasing) but still agrees bit-for-bit.
        runner3 = TrialRunner(workers=2, cache=ResultCache(tmp_path / "cache"))
        third = simulate_sharded(SCENARIO, SEED, shards=2, runner=runner3)
        assert third == first
        assert runner3.last_telemetry is not None
        assert runner3.last_telemetry.cache_hits == 0

    def test_traced_ranges_bypass_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = TrialRunner(cache=cache)
        out = tmp_path / "t.jsonl"
        simulate_traced(SCENARIO, SEED, out, shards=2, runner=runner)
        first = out.read_bytes()
        out.unlink()
        simulate_traced(SCENARIO, SEED, out, shards=2, runner=runner)
        # The second run re-executed (a cache hit would skip the trace
        # side effect and leave no shard files to merge).
        assert out.read_bytes() == first


class TestCalibrateSharding:
    def test_replicate_flow_sharded_equals_serial(self):
        from repro.flow.calibrate import replicate_flow

        serial = replicate_flow(10, 5.0, trials=2, horizon=100.0)
        for shards, workers in ((3, 2), (2, 1)):
            sharded = replicate_flow(
                10,
                5.0,
                trials=2,
                horizon=100.0,
                runner=TrialRunner(workers=workers),
                flow_shards=shards,
            )
            assert sharded == serial

    def test_replicate_flow_sharded_hybrid(self):
        from repro.flow.calibrate import replicate_flow

        serial = replicate_flow(
            10, 16.0, trials=2, horizon=100.0, fidelity="hybrid",
            switch_threshold=8.0,
        )
        assert serial[2][0]["frame_windows"] > 0
        sharded = replicate_flow(
            10, 16.0, trials=2, horizon=100.0, fidelity="hybrid",
            switch_threshold=8.0, runner=TrialRunner(workers=2),
            flow_shards=2,
        )
        assert sharded == serial


class TestConfigRejected:
    """Bad flow configuration fails before any window runs."""

    def test_nan_threshold(self):
        # NaN fails every comparison, so only `not threshold > 0`
        # refuses it; let through, it would disable every escalation.
        with pytest.raises(ValueError, match="switch_threshold"):
            simulate_sharded(
                SCENARIO, SEED, fidelity="hybrid", switch_threshold=float("nan")
            )

    @pytest.mark.parametrize(
        "flag, value",
        [("--flow-workers", "0"), ("--flow-workers", "-3"), ("--flow-shards", "0")],
    )
    def test_cli_counts_below_one_exit_two(self, flag, value, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["flow", "run", "--nodes", "200", "--horizon", "20", flag, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "must be at least 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["0", "-1", "21"])
    def test_cli_bad_window_exits_two(self, value, capsys):
        from repro.cli import main

        code = main(
            ["flow", "run", "--nodes", "200", "--horizon", "20", "--window", value]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "flow run: window must be in (0, horizon]\n"
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["0", "-2", "nan"])
    def test_cli_bad_threshold_exits_two(self, value, capsys):
        from repro.cli import main

        code = main(
            ["flow", "run", "--nodes", "200", "--horizon", "20", "--threshold", value]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "--threshold must be > 0" in captured.err
        assert captured.out == ""
