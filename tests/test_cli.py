"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_defaults(self):
        args = build_parser().parse_args(["figure", "1"])
        assert args.number == 1
        assert args.trials == 3

    def test_scenario_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "nonsense"])


class TestAnalyticCommands:
    def test_figure_1_prints_table_and_chart(self, capsys):
        assert main(["figure", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "AFF T=16" in out
        assert "legend:" in out  # the ASCII chart

    def test_figure_2(self, capsys):
        assert main(["figure", "2"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_figure_3_log_axis(self, capsys):
        assert main(["figure", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "transaction density" in out

    def test_unknown_figure_fails(self, capsys):
        assert main(["figure", "9"]) == 2
        assert "figures 1-4" in capsys.readouterr().err

    def test_model_query(self, capsys):
        assert main(["model", "--data-bits", "16", "--density", "16"]) == 0
        out = capsys.readouterr().out
        assert "optimal identifier bits" in out
        assert "9" in out


class TestSimulatedCommands:
    def test_figure_4_quick(self, capsys):
        assert main([
            "figure", "4", "--trials", "1", "--duration", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "measured random" in out

    def test_validate_quick(self, capsys):
        assert main(["validate", "--trials", "1", "--duration", "4"]) == 0
        out = capsys.readouterr().out
        assert "collision rates" in out

    def test_scenario_dynamic_alloc(self, capsys):
        assert main(["scenario", "dynamic-alloc"]) == 0
        out = capsys.readouterr().out
        assert "dynamic_efficiency" in out

    def test_scenario_hidden_terminal_quick(self, capsys):
        assert main(["scenario", "hidden-terminal", "--duration", "5"]) == 0
        out = capsys.readouterr().out
        assert "mesh.listening" in out

    # Both scenarios run send-only AffDrivers, which skip reassembly;
    # their tables must not move with that.
    @pytest.mark.parametrize(
        "name, expected",
        [
            (
                "efficiency",
                "scenario: efficiency — measured end-to-end efficiency, "
                "AFF vs static\n\n"
                "metric        value \n"
                "------------  ------\n"
                "aff_9bit      0.1538\n"
                "static_32bit  0.0870\n",
            ),
            (
                "density-estimation",
                "scenario: density-estimation — estimating T from overheard "
                "introductions\n\n"
                "metric               value \n"
                "-------------------  ------\n"
                "ground_truth         4.7296\n"
                "instantaneous        3.0000\n"
                "instantaneous_error  0.3657\n"
                "ewma                 4.2594\n"
                "ewma_error           0.0994\n"
                "windowed             3.8570\n"
                "windowed_error       0.1845\n"
                "littles_law          3.8638\n"
                "littles_law_error    0.1831\n",
            ),
        ],
    )
    def test_send_only_scenario_stdout_pinned(self, capsys, name, expected):
        assert main(["scenario", name, "--duration", "10", "--seed", "0"]) == 0
        assert capsys.readouterr().out == expected

    def test_report_writes_files(self, tmp_path, capsys):
        out_dir = tmp_path / "report"
        assert main([
            "report", "--output", str(out_dir),
            "--trials", "1", "--duration", "3",
        ]) == 0
        files = {p.name for p in out_dir.iterdir()}
        assert "figure_1.txt" in files
        assert "figure_4.txt" in files
        assert "figure_1.json" in files  # machine-readable twin
        assert "scenario_hidden_terminal.txt" in files
        assert (out_dir / "figure_1.txt").read_text().strip()

    def test_report_json_round_trips(self, tmp_path, capsys):
        from repro.experiments.persistence import figure_from_json, load_json

        out_dir = tmp_path / "report"
        main(["report", "--output", str(out_dir),
              "--trials", "1", "--duration", "3"])
        fig = figure_from_json(load_json(out_dir / "figure_1.json"))
        assert fig.series_by_label("AFF T=16").peak()[0] == 9

    def test_sweep_command(self, capsys):
        assert main([
            "sweep", "--id-bits", "3,6", "--senders", "3",
            "--trials", "1", "--duration", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "collision-rate sweep" in out
        assert "id_bits" in out


class TestMonteCarloCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["montecarlo"])
        assert args.id_bits == 8
        assert args.shards == 1
        assert args.workers == 1

    def test_quick_run_prints_table(self, capsys):
        assert main([
            "montecarlo", "--id-bits", "5", "--rate", "4",
            "--horizon", "40", "--trials", "2", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "Monte Carlo: H=5 bits" in out
        assert "simulated collision rate (mean)" in out

    def test_sharded_pooled_run(self, capsys):
        assert main([
            "montecarlo", "--id-bits", "5", "--rate", "4",
            "--horizon", "40", "--trials", "2", "--shards", "2",
            "--workers", "2", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out + capsys.readouterr().err
        assert "shards=2" in out


class TestCountsBelowOne:
    """Worker and shard counts under 1 are usage errors, before any work."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "4", "--workers", "0"],
            ["montecarlo", "--shards", "0"],
            ["obs", "record", "--scenario", "montecarlo", "--shards", "0",
             "--out", "unused.jsonl"],
        ],
        ids=["workers", "montecarlo-shards", "obs-record-shards"],
    )
    def test_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "must be at least 1, got 0" in captured.err
        assert captured.out == ""


class TestCacheCommand:
    def test_stats_gc_purge_lifecycle(self, tmp_path, capsys):
        import repro
        from repro.exec import ResultCache, trial_key

        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        cache.put(trial_key("fn", {"x": 1}, 0, "v"), 1.0)
        cache.put(trial_key("fn", {"x": 2}, 0, "v"), 2.0,
                  meta={"version": "0.0.1"})

        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out
        assert repro.__version__ in out
        assert "0.0.1" in out

        assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 1 entry" in capsys.readouterr().out
        assert len(ResultCache(cache_dir)) == 1

        assert main(["cache", "purge", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 1 entry" in capsys.readouterr().out
        assert len(ResultCache(cache_dir)) == 0

    def test_gc_max_bytes_enforces_size_cap(self, tmp_path, capsys):
        from repro.exec import ResultCache, trial_key

        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        for x in range(3):
            cache.put(trial_key("fn", {"x": x}, 0, "v"), float(x))

        # Entries are stamped with the current version, so without a
        # cap nothing is collected; with --max-bytes 1 everything goes.
        assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 0 entr" in capsys.readouterr().out
        assert main(["cache", "gc", "--cache-dir", str(cache_dir),
                     "--max-bytes", "1"]) == 0
        assert "removed 3 entr" in capsys.readouterr().out
        assert len(ResultCache(cache_dir)) == 0

    def test_action_is_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "shrink"])


class TestBenchTrendCommand:
    def bench(self, results_dir, mean):
        from repro.experiments.persistence import save_envelope

        save_envelope(
            results_dir / "BENCH_micro.json", "benchmark",
            {"name": "micro", "fidelity": {"full": False},
             "metrics": {}, "timing": {"mean": mean}},
        )

    def test_records_then_flags_regression(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        self.bench(results, 1.0)
        assert main(["bench-trend", "--results", str(results)]) == 0
        capsys.readouterr()
        self.bench(results, 2.0)  # 100% slower than best
        assert main(["bench-trend", "--results", str(results)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out

    def test_no_record_only_analyzes(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        self.bench(results, 1.0)
        assert main([
            "bench-trend", "--results", str(results), "--no-record",
        ]) == 0
        assert not (results / "TREND.jsonl").exists()
        assert "no benchmark history" in capsys.readouterr().out
