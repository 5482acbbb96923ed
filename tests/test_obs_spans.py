"""Tests for span profiling (repro.obs.spans).

Covers the aggregation arithmetic (SpanStats, cross-process merge), the
layer-bucket folding that feeds telemetry, and the
module-level activation slot (``profiling`` / ``span`` no-op when off).
"""

import pytest

from repro.obs.spans import (
    LAYER_BUCKETS,
    SpanProfiler,
    SpanStats,
    active_profiler,
    layer_breakdown,
    layer_of_module,
    profiling,
    span,
)


class TestSpanStats:
    def test_accumulates_count_total_min_max(self):
        stats = SpanStats()
        for seconds in (0.2, 0.1, 0.4):
            stats.add(seconds)
        assert stats.count == 3
        assert stats.total == pytest.approx(0.7)
        assert stats.min == 0.1
        assert stats.max == 0.4

    def test_to_json_empty_has_zero_min(self):
        assert SpanStats().to_json() == {
            "count": 0.0, "total": 0.0, "min": 0.0, "max": 0.0,
        }


class TestSpanProfiler:
    def test_span_context_books_time(self):
        prof = SpanProfiler()
        with prof.span("core.sample"):
            pass
        ((name, stats),) = prof.top(5)
        assert name == "core.sample"
        assert stats.count == 1
        assert stats.total >= 0.0

    def test_top_ranks_by_total_then_name(self):
        prof = SpanProfiler()
        prof.add("b.slow", 2.0)
        prof.add("a.fast", 0.5)
        prof.add("a.also", 2.0)
        assert [name for name, _ in prof.top(2)] == ["a.also", "b.slow"]

    def test_merge_folds_worker_tables(self):
        worker = SpanProfiler()
        worker.add("exec.trial", 1.0)
        worker.add("exec.trial", 3.0)
        parent = SpanProfiler()
        parent.add("exec.trial", 2.0)
        parent.merge(worker.to_json())
        ((_, stats),) = parent.top(1)
        assert stats.count == 3
        assert stats.total == pytest.approx(6.0)
        assert stats.min == 1.0 and stats.max == 3.0

    def test_merge_skips_empty_entries(self):
        prof = SpanProfiler()
        prof.merge({"idle": {"count": 0.0, "total": 0.0, "min": 0.0, "max": 0.0}})
        assert prof.to_json() == {"idle": {
            "count": 0.0, "total": 0.0, "min": 0.0, "max": 0.0,
        }}

    def test_to_json_is_name_sorted(self):
        prof = SpanProfiler()
        prof.add("z.last", 1.0)
        prof.add("a.first", 1.0)
        assert list(prof.to_json()) == ["a.first", "z.last"]


class TestLayerBreakdown:
    def test_buckets_always_present_and_folded(self):
        prof = SpanProfiler()
        prof.add("radio.transmit", 0.25)
        prof.add("radio.dispatch", 0.25)
        prof.add("core.sample", 1.0)
        breakdown = prof.layer_breakdown()
        for bucket in LAYER_BUCKETS:
            assert bucket in breakdown
        assert breakdown["radio"] == pytest.approx(0.5)
        assert breakdown["core"] == pytest.approx(1.0)
        assert breakdown["aff"] == 0.0

    def test_module_prefixes_map_most_specific_first(self):
        assert layer_of_module("repro.radio.mac") == "mac"
        assert layer_of_module("repro.radio.medium") == "radio"
        assert layer_of_module("repro.aff.reassembler") == "aff"
        assert layer_of_module("repro.sim.engine") == "engine"
        assert layer_of_module("somewhere.else") == "other"

    def test_breakdown_from_plain_table(self):
        table = {"mac.dispatch": {"count": 2.0, "total": 0.75}}
        assert layer_breakdown(table)["mac"] == 0.75


class TestActivationSlot:
    def test_off_by_default_and_span_is_noop(self):
        assert active_profiler() is None
        with span("core.sample"):  # must not raise, must not record
            pass
        assert active_profiler() is None

    def test_profiling_installs_and_restores(self):
        prof = SpanProfiler()
        with profiling(prof) as active:
            assert active is prof
            assert active_profiler() is prof
            with span("core.sample"):
                pass
        assert active_profiler() is None
        assert "core.sample" in prof.to_json()

    def test_profiling_nests(self):
        outer, inner = SpanProfiler(), SpanProfiler()
        with profiling(outer):
            with profiling(inner):
                assert active_profiler() is inner
            assert active_profiler() is outer


class TestDispatchAttribution:
    def test_sender_wakes_book_to_apps(self):
        """Every event is booked to the layer of the module that handles
        it. Traffic senders are callback chains defined in ``repro.apps``,
        so their wakes are ``apps.dispatch`` (two per packet: the poll
        that finds the MAC queue drained, then the send); no Figure-4
        event is handled by kernel code, so nothing books
        ``engine.dispatch``."""
        from repro.experiments.harness import CollisionTrialConfig, run_collision_trial

        profiler = SpanProfiler()
        with profiling(profiler):
            run_collision_trial(CollisionTrialConfig(duration=5.0, seed=3))
        dispatches = {
            name: stats["count"]
            for name, stats in profiler.to_json().items()
            if name.endswith(".dispatch")
        }
        assert "engine.dispatch" not in dispatches
        assert dispatches["apps.dispatch"] == 360
        assert sum(dispatches.values()) == 3240
