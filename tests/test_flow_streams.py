"""Flow-level stream descriptors and scenario builders."""

import math

import pytest

from repro.core.model import effective_density
from repro.flow.streams import (
    FlowScenario,
    TransactionStream,
    aggregate_node_workload,
    figure4_scenario,
    massive_scenario,
    scenario_peak_density,
    transaction_duration,
)


class TestTransactionStream:
    def test_density_is_littles_law(self):
        stream = TransactionStream("s", arrival_rate=4.0, duration=0.5)
        assert stream.density == pytest.approx(
            effective_density(4.0, [0.5])
        )
        assert stream.density == pytest.approx(2.0)

    def test_overlap_clips_to_activity_span(self):
        stream = TransactionStream("s", 1.0, 1.0, start=10.0, stop=20.0)
        assert stream.overlap(0.0, 10.0) == 0.0
        assert stream.overlap(5.0, 15.0) == 5.0
        assert stream.overlap(12.0, 18.0) == 6.0
        assert stream.overlap(19.0, 30.0) == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(label="", arrival_rate=1.0, duration=1.0),
            dict(label="s", arrival_rate=-1.0, duration=1.0),
            dict(label="s", arrival_rate=1.0, duration=0.0),
            dict(label="s", arrival_rate=1.0, duration=1.0, start=5.0, stop=5.0),
        ],
    )
    def test_rejects_invalid_descriptors(self, kwargs):
        with pytest.raises(ValueError):
            TransactionStream(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(arrival_rate=math.nan),
            dict(arrival_rate=math.inf),
            dict(duration=math.nan),
            dict(start=math.nan),
            dict(stop=math.nan),
        ],
    )
    def test_rejects_non_finite_descriptors(self, kwargs):
        fields = {"label": "s", "arrival_rate": 1.0, "duration": 1.0, **kwargs}
        with pytest.raises(ValueError):
            TransactionStream(**fields)

    def test_open_ended_stream_is_allowed(self):
        assert TransactionStream("s", 1.0, 1.0).stop == math.inf


class TestFlowScenario:
    def test_rejects_duplicate_labels(self):
        stream = TransactionStream("dup", 1.0, 1.0)
        with pytest.raises(ValueError):
            FlowScenario(8, 100.0, 10.0, (stream, stream))

    def test_window_count_covers_horizon(self):
        stream = TransactionStream("s", 1.0, 1.0)
        scenario = FlowScenario(8, 95.0, 10.0, (stream,))
        assert scenario.n_windows == 10

    def test_rejects_window_past_horizon(self):
        stream = TransactionStream("s", 1.0, 1.0)
        with pytest.raises(ValueError):
            FlowScenario(8, 10.0, 20.0, (stream,))

    @pytest.mark.parametrize(
        "horizon, window",
        [(math.nan, 10.0), (math.inf, 10.0), (100.0, math.nan)],
    )
    def test_rejects_non_finite_horizon_and_window(self, horizon, window):
        stream = TransactionStream("s", 1.0, 1.0)
        with pytest.raises(ValueError):
            FlowScenario(8, horizon, window, (stream,))


class TestBuilders:
    def test_transaction_duration_counts_intro_plus_fragments(self):
        # 16 bytes -> intro + 2 payload frames at 8 bytes/frame.
        assert transaction_duration(16) == pytest.approx(3 * 0.01)
        assert transaction_duration(0) == pytest.approx(0.01)

    def test_aggregate_node_workload_sums_rates(self):
        stream = aggregate_node_workload("agg", 100, 0.5, payload_bytes=16)
        assert stream.arrival_rate == pytest.approx(50.0)
        assert stream.duration == pytest.approx(transaction_duration(16))

    def test_figure4_scenario_matches_density(self):
        scenario = figure4_scenario(5, 5.0)
        (stream,) = scenario.streams
        # Unit durations: arrival rate is the density T.
        assert stream.density == pytest.approx(5.0)
        assert scenario.id_bits == 5

    def test_massive_scenario_shape(self):
        scenario = massive_scenario(n_nodes=10_000)
        labels = {stream.label for stream in scenario.streams}
        assert labels == {"telemetry", "event-burst"}
        burst = next(s for s in scenario.streams if s.label == "event-burst")
        assert burst.start > 0.0 and math.isfinite(burst.stop)
        # The burst pushes peak density well past the baseline.
        baseline = next(s for s in scenario.streams if s.label == "telemetry")
        peak = scenario_peak_density(scenario)
        assert peak > baseline.density
