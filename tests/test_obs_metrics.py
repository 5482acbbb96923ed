"""Tests for repro.obs.metrics: the deterministic metrics registry.

The load-bearing property is bit-identity: a run's metrics snapshot is
a pure function of the scenario and seed, never of the execution layout
(serial vs sharded, worker count, shard count).
"""

import json

import pytest

from repro.exec import TrialRunner
from repro.flow.hybrid import simulate
from repro.flow.shard import simulate_sharded
from repro.flow.streams import massive_scenario
from repro.obs.metrics import (
    MetricsReadError,
    MetricsRegistry,
    active_metrics,
    collecting,
    diff_registries,
    inc,
    read_snapshot,
    render_prometheus,
    write_snapshot,
)


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counters_sum(self):
        registry = MetricsRegistry()
        registry.inc("a.events")
        registry.inc("a.events", 4)
        assert registry.counter("a.events") == 5

    def test_counter_rejects_negative_and_non_int(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.inc("a.events", -1)
        with pytest.raises(ValueError):
            registry.inc("a.events", 1.5)
        with pytest.raises(ValueError):
            registry.inc("a.events", True)

    def test_gauge_is_high_watermark(self):
        registry = MetricsRegistry()
        registry.gauge_max("a.depth", 3)
        registry.gauge_max("a.depth", 9)
        registry.gauge_max("a.depth", 5)
        assert registry.gauge("a.depth") == 9

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        for value in (2, 4, 5, 100):
            registry.observe("a.bits", value, (4, 8, 12, 16))
        edges, buckets = registry.histogram("a.bits")
        assert edges == (4, 8, 12, 16)
        assert buckets == [2, 1, 0, 0, 1]  # <=4 twice, <=8 once, +Inf once

    def test_histogram_edge_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.observe("a.bits", 1, (4, 8))
        with pytest.raises(ValueError):
            registry.observe("a.bits", 1, (4, 16))

    def test_one_name_one_kind(self):
        registry = MetricsRegistry()
        registry.inc("a.x")
        with pytest.raises(ValueError):
            registry.gauge_max("a.x", 1)
        with pytest.raises(ValueError):
            registry.observe("a.x", 1, (1, 2))

    def test_merge_sums_maxes_and_buckets(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        for registry in (left, right):
            registry.inc("a.events", 2)
            registry.gauge_max("a.depth", 4)
            registry.observe("a.bits", 5, (4, 8))
        right.gauge_max("a.depth", 7)
        left.merge(right)
        assert left.counter("a.events") == 4
        assert left.gauge("a.depth") == 7
        assert left.histogram("a.bits")[1] == [0, 2, 0]

    def test_merge_is_order_independent(self):
        parts = []
        for k in range(3):
            registry = MetricsRegistry()
            registry.inc("a.events", k + 1)
            registry.gauge_max("a.depth", 10 - k)
            registry.observe("a.bits", 4 * k, (4, 8))
            parts.append(registry.to_json())
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for table in parts:
            forward.merge_json(table)
        for table in reversed(parts):
            backward.merge_json(table)
        assert forward.to_json() == backward.to_json()


# ----------------------------------------------------------------------
# Activation slot
# ----------------------------------------------------------------------
class TestActivation:
    def test_inactive_by_default(self):
        assert active_metrics() is None
        inc("a.ignored")  # no-op, must not raise

    def test_collecting_activates_and_restores(self):
        registry = MetricsRegistry()
        with collecting(registry):
            assert active_metrics() is registry
            inc("a.events")
        assert active_metrics() is None
        assert registry.counter("a.events") == 1


# ----------------------------------------------------------------------
# Snapshots and exports
# ----------------------------------------------------------------------
class TestSnapshot:
    def _registry(self):
        registry = MetricsRegistry()
        registry.inc("radio.frames_tx", 7)
        registry.gauge_max("engine.queue_depth", 12)
        registry.observe("aff.id_collision_bits", 6, (4, 8, 12, 16))
        return registry

    def test_round_trip(self, tmp_path):
        registry = self._registry()
        path = tmp_path / "metrics.jsonl"
        count = write_snapshot(path, registry, meta={"seed": 3})
        assert count == 3
        loaded, meta = read_snapshot(path)
        assert meta == {"seed": 3}
        assert loaded.to_json() == registry.to_json()

    def test_snapshot_bytes_are_canonical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_snapshot(a, self._registry())
        write_snapshot(b, self._registry())
        assert a.read_bytes() == b.read_bytes()
        header = json.loads(a.read_text().splitlines()[0])
        assert header["kind"] == "repro.obs/metrics"

    def test_truncated_snapshot_rejected(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        write_snapshot(path, self._registry())
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(MetricsReadError):
            read_snapshot(path)

    def test_prometheus_rendering(self):
        text = render_prometheus(self._registry())
        assert "# TYPE repro_radio_frames_tx_total counter" in text
        assert "repro_radio_frames_tx_total 7" in text
        assert "# TYPE repro_engine_queue_depth gauge" in text
        assert 'repro_aff_id_collision_bits_bucket{le="+Inf"} 1' in text
        assert "repro_aff_id_collision_bits_count 1" in text

    def test_diff_excludes_exec_by_default(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.inc("exec.trials", 1)
        right.inc("exec.trials", 8)
        assert diff_registries(left, right) == []
        assert diff_registries(left, right, include_exec=True) != []

    def test_diff_reports_divergence(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.inc("flow.windows", 3)
        right.inc("flow.windows", 4)
        lines = diff_registries(left, right)
        assert len(lines) == 1
        assert "flow.windows" in lines[0]


# ----------------------------------------------------------------------
# Serial vs sharded bit-identity (the acceptance gate)
# ----------------------------------------------------------------------
def _scenario():
    return massive_scenario(
        n_nodes=300, id_bits=6, horizon=60.0, window=10.0,
        packets_per_node=0.4,
    )


def _serial_snapshot(tmp_path, scenario):
    registry = MetricsRegistry()
    with collecting(registry):
        result = simulate(scenario, seed=7, fidelity="hybrid",
                          switch_threshold=4.0)
    path = tmp_path / "serial.jsonl"
    write_snapshot(path, registry)
    return result, path


class TestShardedParity:
    @pytest.mark.parametrize(
        "workers", [1, 2, 4], ids=lambda workers: f"cost-{workers}"
    )
    def test_sharded_snapshot_matches_serial(self, tmp_path, workers):
        scenario = _scenario()
        serial_result, serial_path = _serial_snapshot(tmp_path, scenario)

        registry = MetricsRegistry()
        with collecting(registry):
            sharded_result = simulate_sharded(
                scenario, seed=7, fidelity="hybrid", switch_threshold=4.0,
                shards=3, runner=TrialRunner(workers=workers),
            )
        sharded_path = tmp_path / f"sharded-{workers}.jsonl"
        write_snapshot(sharded_path, registry)

        assert sharded_result == serial_result
        left, _ = read_snapshot(serial_path)
        right, _ = read_snapshot(sharded_path)
        # Simulated counters agree exactly; exec.* is decomposition-
        # dependent (the serial run fans out zero trials) and excluded.
        assert diff_registries(left, right) == []
        assert right.counter("flow.windows") == 6
        assert right.counter("flow.transactions") == sharded_result.transactions
        assert right.counter("flow.collisions") == sharded_result.collisions
        assert right.counter("exec.trials") == 3

    def test_sharded_snapshots_byte_identical_across_workers(self, tmp_path):
        # At a fixed decomposition the whole snapshot — exec counters
        # included — is byte-identical at any worker count.
        scenario = _scenario()
        paths = []
        for workers in (1, 2, 4):
            registry = MetricsRegistry()
            with collecting(registry):
                simulate_sharded(
                    scenario, seed=7, fidelity="hybrid",
                    switch_threshold=4.0, shards=3,
                    runner=TrialRunner(workers=workers),
                )
            path = tmp_path / f"w{workers}.jsonl"
            write_snapshot(path, registry)
            paths.append(path)
        blobs = {path.read_bytes() for path in paths}
        assert len(blobs) == 1


# ----------------------------------------------------------------------
# Telemetry integration
# ----------------------------------------------------------------------
def test_metrics_fold_into_run_telemetry():
    scenario = _scenario()
    runner = TrialRunner(workers=2)
    registry = MetricsRegistry()
    with collecting(registry):
        simulate_sharded(
            scenario, seed=7, fidelity="hybrid", switch_threshold=4.0,
            shards=3, runner=runner,
        )
    summary = runner.telemetry.summary()
    assert "metrics" in summary
    table = summary["metrics"]
    assert table["flow.windows"]["value"] == 6
    # Telemetry's view is the trial-side table; the parent registry saw
    # the same simulated counts plus the parent-side exec bookkeeping.
    assert table["flow.transactions"] == {
        "kind": "counter",
        "value": registry.counter("flow.transactions"),
    }
