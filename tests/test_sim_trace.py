"""Unit tests for structured tracing."""

import pytest

from repro.sim.trace import NullRecorder, TraceRecorder


class TestTraceRecorder:
    def test_emit_and_iterate(self):
        rec = TraceRecorder()
        rec.emit(1.0, "frame.tx", origin=3)
        rec.emit(2.0, "frame.rx", origin=3, receiver=4)
        assert len(rec) == 2
        records = list(rec)
        assert records[0].category == "frame.tx"
        assert records[1]["receiver"] == 4

    def test_record_get_with_default(self):
        rec = TraceRecorder()
        rec.emit(0.0, "x", a=1)
        assert rec.records[0].get("missing", "d") == "d"

    def test_category_filtering_at_emit(self):
        rec = TraceRecorder(categories={"keep"})
        rec.emit(0.0, "keep")
        rec.emit(0.0, "drop")
        assert len(rec) == 1
        # Counters still see everything.
        assert rec.count("drop") == 1

    def test_select_by_category(self):
        rec = TraceRecorder()
        rec.emit(0.0, "a")
        rec.emit(1.0, "b")
        rec.emit(2.0, "a")
        assert len(rec.select(category="a")) == 2

    def test_select_by_time_window(self):
        rec = TraceRecorder()
        for t in range(5):
            rec.emit(float(t), "e")
        hits = rec.select(since=1.0, until=3.0)
        assert [r.time for r in hits] == [1.0, 2.0, 3.0]

    def test_select_by_predicate(self):
        rec = TraceRecorder()
        rec.emit(0.0, "e", n=1)
        rec.emit(0.0, "e", n=2)
        assert len(rec.select(predicate=lambda r: r["n"] > 1)) == 1

    def test_emitted_counts(self):
        rec = TraceRecorder()
        rec.emit(0.0, "a")
        rec.emit(0.0, "a")
        rec.emit(0.0, "b")
        assert rec.emitted_counts() == {"a": 2, "b": 1}

    def test_emitted_vs_recorded_counts_under_filtering(self):
        rec = TraceRecorder(categories={"keep"})
        rec.emit(0.0, "keep")
        rec.emit(0.0, "drop")
        rec.emit(0.0, "drop")
        assert rec.emitted_counts() == {"keep": 1, "drop": 2}
        assert rec.recorded_counts() == {"keep": 1}

    def test_category_counts_alias_removed(self):
        # The deprecated category_counts() alias is gone; the two
        # explicitly-named queries are the only count surface.
        assert not hasattr(TraceRecorder(), "category_counts")

    def test_clear(self):
        rec = TraceRecorder()
        rec.emit(0.0, "a")
        rec.clear()
        assert len(rec) == 0
        assert rec.count("a") == 0
        assert rec.emitted_counts() == {}
        assert rec.recorded_counts() == {}


class TestNullRecorder:
    def test_stores_nothing_but_counts(self):
        rec = NullRecorder()
        for _ in range(100):
            rec.emit(0.0, "frame.tx", bits=216)
        assert len(rec) == 0
        assert rec.count("frame.tx") == 100

    def test_tally_is_n_emits_in_one(self):
        by_emit, by_tally = NullRecorder(), NullRecorder()
        for _ in range(5):
            by_emit.emit(0.0, "frame.rx", bits=216)
        by_emit.emit(0.0, "frame.drop")
        by_tally.tally("frame.rx", 5)
        by_tally.tally("frame.drop", 1)
        assert list(by_tally.emitted_counts().items()) == list(
            by_emit.emitted_counts().items()
        )
        assert len(by_tally) == 0
        assert by_tally.recorded_counts() == {}

    def test_tally_of_zero_adds_no_category(self):
        rec = NullRecorder()
        rec.tally("frame.rx", 0)
        assert rec.emitted_counts() == {}


class TestTally:
    def test_counts_without_storing(self):
        rec = TraceRecorder()
        rec.tally("frame.rx", 3)
        assert rec.count("frame.rx") == 3
        assert len(rec) == 0
        assert rec.recorded_counts() == {}
