"""Tests for JSON persistence of experiment results."""

import math
import pathlib

import pytest

from repro.experiments.figures import figure_1
from repro.experiments.persistence import (
    figure_from_json,
    figure_to_json,
    load_envelope,
    load_json,
    save_envelope,
    save_json,
    series_from_json,
    series_to_json,
    sweep_from_json,
    sweep_to_json,
)
from repro.experiments.results import Series
from repro.experiments.sweep import grid_sweep


class TestSeriesRoundTrip:
    def test_basic(self):
        s = Series(label="curve", x=[1.0, 2.0], y=[0.5, 0.7], yerr=[0.1, 0.2])
        restored = series_from_json(series_to_json(s))
        assert restored.label == s.label
        assert restored.x == s.x
        assert restored.y == s.y
        assert restored.yerr == s.yerr

    def test_without_error_bars(self):
        s = Series(label="c", x=[1.0], y=[0.5])
        restored = series_from_json(series_to_json(s))
        assert restored.yerr is None

    def test_nan_survives(self):
        s = Series(label="gap", x=[1.0, 2.0], y=[0.5, math.nan])
        restored = series_from_json(series_to_json(s))
        assert restored.y[0] == 0.5
        assert math.isnan(restored.y[1])


class TestFigureRoundTrip:
    def test_figure_1_round_trips(self):
        fig = figure_1()
        restored = figure_from_json(figure_to_json(fig))
        assert restored.name == fig.name
        assert [s.label for s in restored.series] == [s.label for s in fig.series]
        assert restored.series_by_label("AFF T=16").peak()[0] == 9
        assert restored.table.render() == fig.table.render()


class TestSweepRoundTrip:
    def test_round_trip_preserves_queries(self):
        sweep = grid_sweep(
            lambda a, seed: float(a + seed // 1000),
            grid={"a": [1, 2]},
            trials=2,
        )
        restored = sweep_from_json(sweep_to_json(sweep))
        assert restored.axes == sweep.axes
        assert restored.mean(a=2) == sweep.mean(a=2)
        assert restored.stdev(a=1) == sweep.stdev(a=1)


class TestFileIO:
    def test_save_and_load(self, tmp_path):
        fig = figure_1()
        path = tmp_path / "fig1.json"
        save_json(path, figure_to_json(fig))
        restored = figure_from_json(load_json(path))
        assert restored.series_by_label("AFF T=16").peak()[0] == 9

    def test_output_is_valid_strict_json(self, tmp_path):
        """NaN must be encoded portably, not as bare `NaN`."""
        import json

        s = Series(label="gap", x=[1.0], y=[math.nan])
        path = tmp_path / "s.json"
        save_json(path, series_to_json(s))
        text = path.read_text()
        json.loads(text)  # strict parse succeeds
        assert "NaN" not in text

    def test_output_is_stable_for_diffing(self, tmp_path):
        fig = figure_1()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_json(a, figure_to_json(fig))
        save_json(b, figure_to_json(figure_1()))
        assert a.read_text() == b.read_text()


def _fail_part_way(monkeypatch):
    """Make every ``Path.write_text`` write half its text, then fail."""

    def write_half(self, data, *args, **kwargs):
        with open(self, "w") as handle:
            handle.write(data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(pathlib.Path, "write_text", write_half)


class TestAtomicWrites:
    def test_failed_save_json_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "result.json"
        save_json(path, {"value": 1})
        before = path.read_bytes()
        _fail_part_way(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            save_json(path, {"value": 2, "more": list(range(100))})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_json(path) == {"value": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["result.json"]

    def test_failed_first_save_json_leaves_nothing(self, tmp_path, monkeypatch):
        _fail_part_way(monkeypatch)
        with pytest.raises(OSError):
            save_json(tmp_path / "result.json", {"value": 2})
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_envelope_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "entry.json"
        save_envelope(path, "thing", {"value": 1})
        _fail_part_way(monkeypatch)
        with pytest.raises(OSError):
            save_envelope(path, "thing", {"value": 2})
        monkeypatch.undo()
        assert load_envelope(path, "thing") == {"value": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["entry.json"]
