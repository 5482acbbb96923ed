"""Flow calibration: trial identity, caching, and the CLI gate.

The satellite under test: a flow trial's cache-key material includes
the fidelity mode, switch threshold, and collision model, so flow /
hybrid / frame runs of the same ``(H, T)`` grid point can never alias
in the result cache (the same guarantee SEED002 pins statically for
seed derivation).
"""

import json
import math

import pytest

from repro import __version__
from repro.cli import main
from repro.exec import (
    ResultCache,
    TrialRunner,
    canonical_point,
    derive_trial_seed,
    trial_key,
)
from repro.experiments.persistence import load_envelope, load_json
from repro.flow.calibrate import (
    DEFAULT_TOLERANCE,
    CalibrationPoint,
    calibrate,
    replicate_flow,
)

_FN = "repro.flow.calibrate.flow_collision_trial"


def _point_params(**overrides):
    params = {
        "id_bits": 5,
        "density": 5.0,
        "horizon": 300.0,
        "window": 25.0,
        "fidelity": "flow",
        "switch_threshold": 8.0,
        "model": "mixed",
    }
    params.update(overrides)
    return params


class TestCacheKeyMaterial:
    """Satellite: fidelity/threshold/model are part of trial identity."""

    def test_keys_distinct_across_fidelity_threshold_model(self):
        variants = [
            _point_params(),
            _point_params(fidelity="hybrid"),
            _point_params(fidelity="frame"),
            _point_params(fidelity="hybrid", switch_threshold=16.0),
            _point_params(model="eq4"),
        ]
        keys = []
        for params in variants:
            seed = derive_trial_seed(0, canonical_point(params), 0)
            keys.append(trial_key(_FN, params, seed, __version__))
        assert len(set(keys)) == len(keys)

    def test_seeds_distinct_across_fidelity(self):
        seeds = {
            derive_trial_seed(
                0, canonical_point(_point_params(fidelity=mode)), 0
            )
            for mode in ("flow", "hybrid", "frame")
        }
        assert len(seeds) == 3

    def test_threshold_alone_changes_key_even_with_same_seed(self):
        # Even if seed derivation collided, the cache key must not.
        a = _point_params(fidelity="hybrid", switch_threshold=8.0)
        b = _point_params(fidelity="hybrid", switch_threshold=12.0)
        seed = 1234
        assert trial_key(_FN, a, seed, __version__) != trial_key(
            _FN, b, seed, __version__
        )


class TestReplicateFlowCaching:
    def test_second_run_is_fully_cached(self, tmp_path):
        runner = TrialRunner(cache=ResultCache(tmp_path))
        first = replicate_flow(5, 5.0, trials=2, horizon=60.0, runner=runner)
        assert runner.last_telemetry.cache_misses == 2
        again = replicate_flow(5, 5.0, trials=2, horizon=60.0, runner=runner)
        assert runner.last_telemetry.cache_misses == 0
        assert again == first

    def test_other_fidelity_recomputes(self, tmp_path):
        runner = TrialRunner(cache=ResultCache(tmp_path))
        replicate_flow(5, 5.0, trials=2, horizon=60.0, runner=runner)
        replicate_flow(
            5,
            5.0,
            trials=2,
            horizon=60.0,
            fidelity="hybrid",
            switch_threshold=2.0,
            runner=runner,
        )
        # Hybrid at threshold 2 escalates every window — a different
        # experiment, so it must miss the flow run's cache entries.
        assert runner.last_telemetry.cache_misses == 2

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            replicate_flow(5, 5.0, trials=0)


class TestCalibrate:
    def test_small_grid_within_tolerance(self):
        report = calibrate(
            id_bits_grid=[5],
            densities=[2.0],
            trials=2,
            horizon=120.0,
            window=20.0,
        )
        assert report.ok
        assert report.max_divergence <= DEFAULT_TOLERANCE
        (point,) = report.points
        assert point.id_bits == 5 and point.density == 2.0
        assert point.divergence == pytest.approx(
            abs(point.flow_rate - point.discrete_rate)
        )

    def test_report_json_and_render(self):
        report = calibrate(
            id_bits_grid=[3], densities=[2.0], trials=1, horizon=60.0,
            window=20.0,
        )
        data = report.to_json()
        assert data["ok"] == report.ok
        assert data["fidelity"] == "flow"
        assert len(data["points"]) == 1
        text = report.render()
        assert "max divergence" in text
        assert ("within" in text) == report.ok

    def test_nan_rate_diverges_infinitely(self):
        point = CalibrationPoint(
            id_bits=5,
            density=2.0,
            flow_rate=float("nan"),
            flow_stdev=0.0,
            discrete_rate=0.1,
            discrete_stdev=0.0,
            model_rate=0.1,
        )
        assert point.divergence == float("inf")


class TestFlowCalibrateCli:
    _ARGS = [
        "flow", "calibrate", "--id-bits", "5", "--density", "2",
        "--trials", "2", "--horizon", "60", "--window", "20",
    ]

    def test_exit_zero_and_artifacts(self, tmp_path, capsys):
        out = tmp_path / "calibration.json"
        summary = tmp_path / "summary.json"
        code = main(
            self._ARGS + ["--out", str(out), "--summary", str(summary)]
        )
        assert code == 0
        assert "within tolerance" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["ok"] is True
        payload = load_envelope(summary, "flow-calibration")
        assert payload["points"][0]["id_bits"] == 5.0

    def test_exit_one_past_budget(self, tmp_path):
        assert main(self._ARGS + ["--tolerance", "0"]) == 1

    def test_exit_two_on_invalid_config(self):
        # A trial count of zero is a usage error, before any trial runs.
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "flow", "calibrate", "--id-bits", "5", "--density", "2",
                    "--trials", "0", "--horizon", "60", "--window", "20",
                ]
            )
        assert exit_info.value.code == 2

    def test_non_finite_rates_are_written_and_read_back(self, tmp_path):
        # At a density this low neither core sees a transaction: both
        # rates are NaN and the divergence is inf.  Both files are
        # valid JSON and load back as floats.
        out = tmp_path / "calibration.json"
        summary = tmp_path / "summary.json"
        argv = [
            "flow", "calibrate", "--id-bits", "3", "--density", "1e-6",
            "--trials", "1", "--horizon", "25", "--threshold", "inf",
            "--out", str(out), "--summary", str(summary),
        ]
        assert main(argv) == 1
        for path in (out, summary):
            json.loads(path.read_text(), parse_constant=pytest.fail)
        for report in (load_json(out), load_envelope(summary, "flow-calibration")):
            point = report["points"][0]
            assert math.isnan(point["flow_rate"])
            assert math.isnan(point["discrete_rate"])
            assert point["divergence"] == math.inf
            assert report["max_divergence"] == math.inf
            assert report["switch_threshold"] == math.inf
