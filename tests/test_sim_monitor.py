"""Unit tests for online statistics."""

import json
import math

import pytest

from repro.sim.monitor import Counter, Histogram, RunningStats, TimeWeightedValue


class TestCounter:
    def test_incr_and_get(self):
        c = Counter()
        c.incr("frames")
        c.incr("frames", 4)
        assert c.get("frames") == 5
        assert c["frames"] == 5

    def test_missing_counter_is_zero(self):
        assert Counter().get("nothing") == 0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter().incr("x", -1)

    def test_as_dict_is_a_copy(self):
        c = Counter()
        c.incr("a")
        d = c.as_dict()
        d["a"] = 99
        assert c.get("a") == 1


class TestRunningStats:
    def test_matches_reference_mean_and_stdev(self):
        import statistics

        data = [1.5, 2.5, 3.0, 4.0, 10.0, -2.0]
        rs = RunningStats()
        rs.extend(data)
        assert rs.mean == pytest.approx(statistics.mean(data))
        assert rs.stdev == pytest.approx(statistics.stdev(data))
        assert rs.minimum == min(data)
        assert rs.maximum == max(data)

    def test_empty_stats_are_nan(self):
        rs = RunningStats()
        assert math.isnan(rs.mean)
        assert math.isnan(rs.stdev)
        assert math.isnan(rs.minimum)

    def test_single_observation(self):
        rs = RunningStats()
        rs.add(5.0)
        assert rs.mean == 5.0
        assert math.isnan(rs.variance)

    def test_numerical_stability_large_offset(self):
        rs = RunningStats()
        rs.extend([1e9 + i for i in range(100)])
        assert rs.mean == pytest.approx(1e9 + 49.5)
        assert rs.stdev == pytest.approx(29.0115, rel=1e-3)


class TestTimeWeightedValue:
    def test_constant_signal(self):
        twv = TimeWeightedValue(time=0.0, value=3.0)
        assert twv.average(10.0) == pytest.approx(3.0)

    def test_step_signal(self):
        twv = TimeWeightedValue()
        twv.set(0.0, 1.0)
        twv.set(5.0, 3.0)  # 1.0 for [0,5), 3.0 for [5,10)
        assert twv.average(10.0) == pytest.approx(2.0)

    def test_adjust_counts_concurrency(self):
        twv = TimeWeightedValue()
        twv.adjust(0.0, +1)   # 1 txn during [0, 2)
        twv.adjust(2.0, +1)   # 2 txns during [2, 4)
        twv.adjust(4.0, -1)   # 1 txn during [4, 6)
        assert twv.average(6.0) == pytest.approx((2 + 4 + 2) / 6)

    def test_out_of_order_update_rejected(self):
        twv = TimeWeightedValue()
        twv.set(5.0, 1.0)
        with pytest.raises(ValueError):
            twv.set(4.0, 2.0)

    def test_average_before_last_update_rejected(self):
        twv = TimeWeightedValue()
        twv.set(5.0, 1.0)
        with pytest.raises(ValueError):
            twv.average(4.0)

    def test_zero_span_returns_current(self):
        twv = TimeWeightedValue(time=0.0, value=7.0)
        assert twv.average(0.0) == 7.0


class TestHistogram:
    def test_binning(self):
        h = Histogram(0.0, 10.0, bins=10)
        for x in (0.5, 1.5, 1.6, 9.9):
            h.add(x)
        assert h.counts[0] == 1
        assert h.counts[1] == 2
        assert h.counts[9] == 1

    def test_underflow_overflow(self):
        h = Histogram(0.0, 1.0, bins=2)
        h.add(-0.5)
        h.add(1.0)  # hi edge is exclusive -> overflow
        h.add(2.0)
        assert h.underflow == 1
        assert h.overflow == 2

    def test_normalized_sums_to_one(self):
        h = Histogram(0.0, 1.0, bins=4)
        for x in (0.1, 0.3, 0.6, 0.9):
            h.add(x)
        assert sum(h.normalized()) == pytest.approx(1.0)

    def test_normalized_empty_is_zeros(self):
        h = Histogram(0.0, 1.0, bins=3)
        assert h.normalized() == [0.0, 0.0, 0.0]

    def test_bin_edges(self):
        h = Histogram(0.0, 1.0, bins=2)
        assert h.bin_edges() == [0.0, 0.5, 1.0]

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Histogram(1.0, 0.0, bins=2)
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0, bins=0)


class TestJsonRoundTrip:
    """Every monitor restores its exact internal state through JSON."""

    def test_counter(self):
        c = Counter()
        c.incr("frames", 5)
        c.incr("drops")
        restored = Counter.from_json(json.loads(json.dumps(c.to_json())))
        assert restored.as_dict() == c.as_dict()
        restored.incr("frames")  # restored monitor keeps accumulating
        assert restored["frames"] == 6

    def test_running_stats_continue_bit_identically(self):
        data = [1.5, 2.5, 3.0, 4.0, 10.0, -2.0]
        rs = RunningStats()
        rs.extend(data[:3])
        restored = RunningStats.from_json(json.loads(json.dumps(rs.to_json())))
        rs.extend(data[3:])
        restored.extend(data[3:])
        assert restored.n == rs.n
        assert restored.mean == rs.mean  # exact, not approx
        assert restored.variance == rs.variance
        assert restored.minimum == rs.minimum
        assert restored.maximum == rs.maximum

    def test_running_stats_empty_nonfinite_state(self):
        payload = json.loads(json.dumps(RunningStats().to_json()))
        assert payload["min"] == {"__float__": "inf"}
        assert payload["max"] == {"__float__": "-inf"}
        restored = RunningStats.from_json(payload)
        assert restored.n == 0
        assert math.isnan(restored.mean)
        restored.add(2.0)
        assert restored.minimum == restored.maximum == 2.0

    def test_time_weighted_value(self):
        tw = TimeWeightedValue(time=0.0, value=1.0)
        tw.set(2.0, 3.0)
        restored = TimeWeightedValue.from_json(
            json.loads(json.dumps(tw.to_json()))
        )
        tw.adjust(4.0, -1.0)
        restored.adjust(4.0, -1.0)
        assert restored.current == tw.current
        assert restored.average(5.0) == tw.average(5.0)

    def test_histogram(self):
        h = Histogram(0.0, 1.0, bins=4)
        for x in (-0.5, 0.1, 0.3, 0.6, 2.0):
            h.add(x)
        restored = Histogram.from_json(json.loads(json.dumps(h.to_json())))
        assert restored.counts == h.counts
        assert (restored.underflow, restored.overflow, restored.n) == (1, 1, 5)
        assert restored.bin_edges() == h.bin_edges()

    def test_histogram_payload_shape_validated(self):
        payload = Histogram(0.0, 1.0, bins=4).to_json()
        payload["counts"] = [0, 0]  # wrong bin count
        with pytest.raises(ValueError):
            Histogram.from_json(payload)
