"""Tests for the one-shot report generator."""

import json

import pytest

from repro.experiments.report import SCENARIOS, ReportConfig, generate_report


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    config = ReportConfig(trials=1, duration=4.0, seed=0,
                          scenarios=["hidden-terminal", "flooding"])
    written = generate_report(out, config)
    return out, written


class TestGenerateReport:
    def test_all_figures_written_as_text_and_json(self, quick_report):
        out, written = quick_report
        names = {p.name for p in written}
        for n in (1, 2, 3, 4):
            assert f"figure_{n}.txt" in names
            assert f"figure_{n}.json" in names

    def test_figure_text_includes_chart(self, quick_report):
        out, _ = quick_report
        text = (out / "figure_1.txt").read_text()
        assert "legend:" in text  # the ASCII chart
        assert "AFF T=16" in text

    def test_selected_scenarios_only(self, quick_report):
        out, written = quick_report
        names = {p.name for p in written}
        assert "scenario_hidden_terminal.txt" in names
        assert "scenario_flooding.json" in names
        assert "scenario_codebook.txt" not in names

    def test_scenario_json_is_strict(self, quick_report):
        out, _ = quick_report
        data = json.loads((out / "scenario_flooding.json").read_text())
        assert data["mean_coverage"] > 0

    def test_index_links_everything_written(self, quick_report):
        out, written = quick_report
        index = (out / "INDEX.md").read_text()
        assert "figure_4.txt" in index
        assert "hidden-terminal" in index
        assert "base seed: 0" in index

    def test_figure_json_round_trips(self, quick_report):
        from repro.experiments.persistence import figure_from_json, load_json

        out, _ = quick_report
        fig = figure_from_json(load_json(out / "figure_2.json"))
        assert fig.name == "Figure 2"

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            generate_report(
                tmp_path, ReportConfig(scenarios=["not-a-scenario"])
            )
        # Rejected before any figure was rendered or written.
        assert list(tmp_path.iterdir()) == []

    def test_scenario_registry_covers_all_extensions(self):
        assert {
            "hidden-terminal", "efficiency", "dynamic-alloc", "interest",
            "codebook", "density-estimation", "flooding", "density-tracking",
        } <= set(SCENARIOS)
