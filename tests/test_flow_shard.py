"""Sharded flow execution: partition properties, bit-identity, caching.

The contract under test (``repro.flow.shard``): the decomposition of a
run — worker count, shard count, partition strategy — is an execution
detail.  Results and exported traces are bit-identical to the serial
path at every combination, and different decompositions never alias in
the result cache.
"""

import pathlib

import pytest

from repro.exec import TrialRunner
from repro.exec.cache import ResultCache
from repro.flow.hybrid import simulate
from repro.flow.sampler import window_plan
from repro.flow.shard import (
    PARTITION_STRATEGIES,
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
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    @pytest.mark.parametrize("shards", [1, 2, 4, 7, 100])
    def test_cover_contiguous_nonempty(self, strategy, shards):
        plan = window_plan(SCENARIO)
        ranges = partition_plan(plan, shards, strategy=strategy)
        assert len(ranges) == min(shards, len(plan))
        assert ranges[0].lo == 0
        assert ranges[-1].hi == len(plan)
        for left, right in zip(ranges[:-1], ranges[1:]):
            assert left.hi == right.lo
        assert all(r.windows > 0 for r in ranges)

    def test_cost_strategy_balances_burst(self):
        # The burst windows dominate the cost; the cost strategy must
        # not leave one shard with the burst plus half the plan.
        plan = window_plan(SCENARIO)
        ranges = partition_plan(plan, 4, strategy="cost")
        costs = [r.cost for r in ranges]
        assert max(costs) / (sum(costs) / len(costs)) < 2.0

    def test_frame_escalation_raises_cost(self):
        plan = window_plan(SCENARIO)
        flow = partition_plan(plan, 3, strategy="cost", fidelity="flow")
        hybrid = partition_plan(
            plan, 3, strategy="cost", fidelity="hybrid",
            switch_threshold=THRESHOLD,
        )
        assert sum(r.cost for r in hybrid) > sum(r.cost for r in flow)

    def test_rejects_bad_arguments(self):
        plan = window_plan(SCENARIO)
        with pytest.raises(ValueError):
            partition_plan(plan, 0)
        with pytest.raises(ValueError):
            partition_plan(plan, 2, strategy="random")

    def test_empty_plan(self):
        assert partition_plan([], 4) == []


class TestBitIdentity:
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("fidelity", ["flow", "hybrid"])
    def test_sharded_equals_serial(self, strategy, workers, fidelity):
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
            strategy=strategy,
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


class TestCacheDiscipline:
    def test_no_aliasing_between_decompositions(self):
        scenario = figure4_scenario(10, 5.0, horizon=100.0)
        keys = set()
        for shards, strategy in ((2, "cost"), (2, "even"), (4, "cost")):
            for window_range in partition_plan(
                window_plan(scenario), shards, strategy=strategy
            ):
                keys.add(
                    range_trial_key(
                        scenario,
                        SEED,
                        window_range.lo,
                        window_range.hi,
                        shards=shards,
                        strategy=strategy,
                        fidelity="flow",
                        switch_threshold=THRESHOLD,
                        model="mixed",
                    )
                )
        # cost/even at 2 shards may cut identically; the key material
        # still must not collide because the strategy is part of it.
        assert len(keys) == 2 + 2 + 4

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
        for shards, strategy, workers in ((3, "cost", 2), (2, "even", 1)):
            sharded = replicate_flow(
                10,
                5.0,
                trials=2,
                horizon=100.0,
                runner=TrialRunner(workers=workers),
                flow_shards=shards,
                partition=strategy,
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
