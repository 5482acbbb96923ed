"""The hybrid fidelity switch.

The stitching contract under test (ISSUE 7 satellite): a hybrid run's
frame-level windows are bit-identical to the same windows of a pure
frame-level run of the same ``(scenario, seed)`` — escalation is
per-window and seed-isolated, so fidelity routing never perturbs a
window's draws.  The frame windows themselves are also checked against
a direct discrete-core replay of the same arrivals.
"""

import hashlib

import pytest

from repro.core.model import collision_probability_mixed
from repro.flow.hybrid import FIDELITY_MODES, frame_window, simulate
from repro.flow.sampler import FlowResult, WindowOutcome, sample_flow, window_plan
from repro.flow.shard import simulate_traced
from repro.flow.streams import FlowScenario, TransactionStream, figure4_scenario
from repro.sim.rng import RngRegistry


def _burst_scenario() -> FlowScenario:
    """Low baseline + one contended phase that crosses the threshold."""
    streams = (
        TransactionStream("base", 2.0, 1.0),
        TransactionStream("burst", 18.0, 1.0, start=40.0, stop=60.0),
    )
    return FlowScenario(id_bits=4, horizon=100.0, window=10.0, streams=streams)


class TestFidelityRouting:
    def test_flow_mode_equals_pure_sampler(self):
        scenario = figure4_scenario(4, 5.0, horizon=100.0, window=10.0)
        assert simulate(scenario, 11, fidelity="flow") == sample_flow(
            scenario, 11
        )

    def test_hybrid_escalates_only_contended_windows(self):
        scenario = _burst_scenario()
        result = simulate(scenario, 3, fidelity="hybrid", switch_threshold=8.0)
        by_fidelity = {w.index: w.fidelity for w in result.windows}
        # Burst spans [40, 60): windows 4 and 5 carry density 20, the
        # rest stay at the baseline's density 2.
        assert by_fidelity[4] == "frame" and by_fidelity[5] == "frame"
        assert result.frame_windows == 2
        assert all(
            fidelity == "flow"
            for index, fidelity in by_fidelity.items()
            if index not in (4, 5)
        )

    def test_frame_mode_escalates_everything(self):
        scenario = _burst_scenario()
        result = simulate(scenario, 3, fidelity="frame")
        assert result.frame_windows == len(result.windows)

    def test_rejects_unknown_fidelity(self):
        scenario = _burst_scenario()
        with pytest.raises(ValueError):
            simulate(scenario, 0, fidelity="fluid")
        with pytest.raises(ValueError):
            simulate(scenario, 0, fidelity="hybrid", switch_threshold=0.0)

    def test_rejects_nan_threshold(self):
        # NaN fails every comparison, so only `not threshold > 0`
        # refuses it; let through, it would disable every escalation.
        with pytest.raises(ValueError, match="switch_threshold"):
            simulate(
                _burst_scenario(), 0, fidelity="hybrid",
                switch_threshold=float("nan"),
            )

    def test_fidelity_modes_constant(self):
        assert set(FIDELITY_MODES) == {"flow", "frame", "hybrid"}


class TestFrameWindowBitIdentity:
    """Satellite: hybrid frame windows == pure frame run, bit for bit."""

    def test_hybrid_frame_windows_match_pure_frame_run(self):
        scenario = _burst_scenario()
        hybrid = simulate(scenario, 7, fidelity="hybrid", switch_threshold=8.0)
        frame = simulate(scenario, 7, fidelity="frame")
        frame_by_index = {w.index: w for w in frame.windows}
        escalated = [w for w in hybrid.windows if w.fidelity == "frame"]
        assert escalated, "burst must escalate at least one window"
        for window in escalated:
            assert window == frame_by_index[window.index]

    def test_hybrid_flow_windows_match_pure_flow_run(self):
        scenario = _burst_scenario()
        hybrid = simulate(scenario, 7, fidelity="hybrid", switch_threshold=8.0)
        flow = simulate(scenario, 7, fidelity="flow")
        flow_by_index = {w.index: w for w in flow.windows}
        for window in hybrid.windows:
            if window.fidelity == "flow":
                assert window == flow_by_index[window.index]

    def test_frame_window_is_pure_function_of_seed(self):
        scenario = _burst_scenario()
        spec = window_plan(scenario)[4]
        first = frame_window(scenario, spec, RngRegistry(9))
        again = frame_window(scenario, spec, RngRegistry(9))
        assert first == again
        other = frame_window(scenario, spec, RngRegistry(10))
        assert first != other

    def test_frame_window_independent_of_consumption_order(self):
        # Drawing another window first must not shift this window's
        # streams: registry streams are keyed by name, not call order.
        scenario = _burst_scenario()
        plan = window_plan(scenario)
        registry = RngRegistry(21)
        frame_window(scenario, plan[5], registry)  # consume a neighbour
        perturbed = frame_window(scenario, plan[4], registry)
        fresh = frame_window(scenario, plan[4], RngRegistry(21))
        assert perturbed == fresh


class TestFrameWindowUnderSanitizer:
    """The bulk draws stay visible to DetSan's draw ledger."""

    def test_frame_streams_are_booked_and_results_unchanged(self):
        from repro.analysis.sanitizer import DetSanContext, sanitizing

        scenario = _burst_scenario()
        plain = simulate(scenario, 5, fidelity="frame")
        with sanitizing(DetSanContext(seed=0)) as san:
            watched = simulate(scenario, 5, fidelity="frame")
            payloads = san.observations()
        assert watched == plain
        draws = {}
        for payload in payloads:
            draws.update(payload.get("draws", {}))
        for spec in window_plan(scenario):
            names = [f"flow.frame.{spec.index}.identifiers"] + [
                f"flow.frame.{spec.index}.arrivals.{stream.label}"
                for stream in scenario.streams
                if stream.overlap(spec.t0, spec.t1) > 0
            ]
            for name in names:
                assert name in draws
                assert all("montecarlo" in site for site in draws[name])


class TestFrameAccuracy:
    def test_frame_rate_tracks_model_in_stationary_window(self):
        scenario = figure4_scenario(4, 5.0, horizon=300.0, window=50.0)
        result = simulate(scenario, 13, fidelity="frame")
        expected = collision_probability_mixed(4, 5.0, [1.0])
        assert result.collision_rate == pytest.approx(expected, abs=0.06)


class TestFramePins:
    """Frame-fidelity results and sharded trace bytes, pinned.

    The serial-vs-sharded tests compare two runs of today's code, so a
    change that broke both the same way would pass them.  These values
    were captured from the heap-plus-``TransactionLog`` replay that the
    batch collision kernel replaced.
    """

    #: seed -> (transactions, collisions, per-window (txns, collisions),
    #: SHA-256 of the shards=2 merged trace incl. its flow.txn records)
    PINS = {
        1: (510, 329,
            [(23, 2), (23, 4), (24, 8), (18, 4), (197, 171), (166, 138),
             (17, 2), (12, 0), (16, 0), (14, 0)],
            "d5117594955542aa49a4211bb33e9955b5d2b8ce28913535483a8c9c18f5ccc6"),
        2: (562, 398,
            [(18, 3), (18, 0), (16, 4), (23, 6), (212, 196), (190, 166),
             (35, 13), (16, 2), (17, 2), (17, 6)],
            "d8711cd527b85e1785f616d9a2a4c636a8e30a566008e6d118154cc88afeadec"),
        3: (596, 430,
            [(22, 4), (24, 7), (23, 10), (19, 3), (229, 215), (199, 177),
             (20, 4), (21, 4), (18, 4), (21, 2)],
            "f61f8febf1fdcb8bc6e95ae4497d7e9c55fd339286742f22ed44168d676f9cb8"),
    }

    @pytest.mark.parametrize("seed", sorted(PINS))
    def test_frame_run_and_trace_match_pins(self, seed, tmp_path):
        transactions, collisions, windows, digest = self.PINS[seed]
        expected = FlowResult(
            transactions=transactions,
            collisions=collisions,
            windows=tuple(
                WindowOutcome(
                    index=index,
                    fidelity="frame",
                    transactions=txns,
                    collisions=hits,
                    density=20.0 if index in (4, 5) else 2.0,
                )
                for index, (txns, hits) in enumerate(windows)
            ),
        )
        scenario = _burst_scenario()
        assert simulate(scenario, seed, fidelity="frame") == expected
        path = tmp_path / "frame.jsonl"
        traced = simulate_traced(scenario, seed, path, fidelity="frame", shards=2)
        assert traced == expected
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
