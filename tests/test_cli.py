"""Tests for the command-line interface."""

import importlib

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


class TestParserLiterals:
    """The parser's copies of library constants (kept literal so
    building it imports no simulation code) match their sources."""

    def test_scenario_names(self):
        from repro import cli
        from repro.experiments.report import SCENARIOS

        assert cli.SCENARIO_NAMES == tuple(sorted(SCENARIOS))

    def test_flow_defaults(self):
        # By module path: the ``repro.flow`` package exports a
        # ``calibrate`` function that shadows its module.
        figures, calibrate, cli, hybrid, sampler = (
            importlib.import_module(name)
            for name in (
                "repro.experiments.figures",
                "repro.flow.calibrate",
                "repro.flow.cli",
                "repro.flow.hybrid",
                "repro.flow.sampler",
            )
        )
        assert cli.FIG4_DEFAULT_ID_BITS == figures.FIG4_DEFAULT_ID_BITS
        assert cli.DEFAULT_DENSITIES == calibrate.DEFAULT_DENSITIES
        assert cli.DEFAULT_TOLERANCE == calibrate.DEFAULT_TOLERANCE
        assert cli.DEFAULT_SWITCH_THRESHOLD == hybrid.DEFAULT_SWITCH_THRESHOLD
        assert cli.FIDELITY_MODES == hybrid.FIDELITY_MODES
        assert cli.COLLISION_MODELS == sampler.COLLISION_MODELS


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
        assert args.workers == 1

    def test_quick_run_prints_table(self, capsys):
        assert main([
            "montecarlo", "--id-bits", "5", "--rate", "4",
            "--horizon", "40", "--trials", "2", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "Monte Carlo: H=5 bits" in out
        assert "simulated collision rate (mean)" in out


class TestCountsBelowOne:
    """Counts under 1, identifier sizes under 0, and rates, horizons and
    durations that are not finite and positive, are usage errors, before
    any work."""

    COUNT = "must be at least 1, got 0"
    NEGATIVE = "must be at least 0, got -1"
    POSITIVE = "must be positive and finite"

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["figure", "4", "--workers", "0"], COUNT, id="workers"),
            pytest.param(["montecarlo", "--trials", "0"], COUNT,
                         id="montecarlo-trials"),
            pytest.param(["figure", "4", "--trials", "0"], COUNT,
                         id="figure-trials"),
            pytest.param(["sweep", "--trials", "0"], COUNT, id="sweep-trials"),
            pytest.param(["validate", "--trials", "0"], COUNT,
                         id="validate-trials"),
            pytest.param(["report", "--trials", "0", "--output", "unused-report"],
                         COUNT, id="report-trials"),
            pytest.param(["flow", "run", "--nodes", "0"], COUNT,
                         id="flow-run-nodes"),
            pytest.param(["obs", "record", "--scenario", "collision",
                          "--senders", "0", "--out", "unused.jsonl"], COUNT,
                         id="obs-record-senders"),
            pytest.param(["montecarlo", "--horizon", "0"], POSITIVE,
                         id="montecarlo-horizon"),
            pytest.param(["montecarlo", "--rate", "nan"], "must be a number",
                         id="montecarlo-rate-nan"),
            pytest.param(["montecarlo", "--rate", "inf"], POSITIVE,
                         id="montecarlo-rate-inf"),
            pytest.param(["montecarlo", "--mean-duration", "-1"], POSITIVE,
                         id="montecarlo-mean-duration"),
            pytest.param(["montecarlo", "--warmup", "nan"], "must be a number",
                         id="montecarlo-warmup-nan"),
            pytest.param(["obs", "record", "--scenario", "montecarlo",
                          "--horizon", "0", "--out", "unused.jsonl"], POSITIVE,
                         id="obs-record-horizon"),
            pytest.param(["obs", "record", "--scenario", "montecarlo",
                          "--rate", "nan", "--out", "unused.jsonl"],
                         "must be a number", id="obs-record-rate-nan"),
            pytest.param(["obs", "record", "--scenario", "montecarlo",
                          "--mean-duration", "0", "--out", "unused.jsonl"],
                         POSITIVE, id="obs-record-mean-duration"),
            pytest.param(["obs", "record", "--scenario", "montecarlo",
                          "--warmup", "nan", "--out", "unused.jsonl"],
                         "must be a number", id="obs-record-warmup-nan"),
            pytest.param(["montecarlo", "--id-bits", "-1"], NEGATIVE,
                         id="montecarlo-id-bits"),
            pytest.param(["obs", "record", "--id-bits", "-1",
                          "--out", "unused.jsonl"], NEGATIVE,
                         id="obs-record-id-bits"),
            pytest.param(["flow", "calibrate", "--id-bits", "3", "-1"], NEGATIVE,
                         id="flow-calibrate-id-bits"),
            pytest.param(["flow", "calibrate", "--horizon", "-5"], POSITIVE,
                         id="flow-calibrate-horizon"),
            pytest.param(["flow", "calibrate", "--window", "0"], POSITIVE,
                         id="flow-calibrate-window"),
            pytest.param(["flow", "calibrate", "--density", "2", "0"], POSITIVE,
                         id="flow-calibrate-density"),
            pytest.param(["flow", "calibrate", "--trials", "0"], COUNT,
                         id="flow-calibrate-trials"),
            pytest.param(["flow", "calibrate", "--flow-shards", "0"], COUNT,
                         id="flow-calibrate-flow-shards"),
            pytest.param(["flow", "calibrate", "--warmup", "nan"],
                         "must be a number", id="flow-calibrate-warmup-nan"),
            pytest.param(["flow", "calibrate", "--tolerance", "nan"],
                         "must be a number", id="flow-calibrate-tolerance-nan"),
            pytest.param(["obs", "record", "--scenario", "collision",
                          "--duration", "0", "--out", "unused.jsonl"], POSITIVE,
                         id="obs-record-duration"),
            pytest.param(["figure", "4", "--duration", "0"], POSITIVE,
                         id="figure-duration"),
            pytest.param(["validate", "--duration", "-1"], POSITIVE,
                         id="validate-duration"),
            pytest.param(["scenario", "hidden-terminal", "--duration", "0"],
                         POSITIVE, id="scenario-duration"),
            pytest.param(["report", "--duration", "inf", "--output", "unused-report"],
                         POSITIVE, id="report-duration"),
            pytest.param(["sweep", "--duration", "nan"], "must be a number",
                         id="sweep-duration"),
            pytest.param(["sweep", "--id-bits", "abc"], "invalid int value",
                         id="sweep-id-bits-text"),
            pytest.param(["sweep", "--id-bits=3,-1", "--senders", "2"], NEGATIVE,
                         id="sweep-id-bits"),
            pytest.param(["sweep", "--senders", "5,0"], COUNT,
                         id="sweep-senders"),
            pytest.param(["model", "--data-bits", "-1"], NEGATIVE,
                         id="model-data-bits"),
            pytest.param(["model", "--static-bits", "-1"], NEGATIVE,
                         id="model-static-bits"),
            pytest.param(["model", "--density", "0"], POSITIVE,
                         id="model-density"),
            pytest.param(["cache", "gc", "--max-bytes", "-1",
                          "--cache-dir", "unused-cache"], NEGATIVE,
                         id="cache-gc-max-bytes"),
        ],
    )
    def test_exit_two(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, message",
        [
            # A horizon shorter than one window leaves the flow core no
            # window to sample.
            pytest.param(["--horizon", "20", "--window", "25"],
                         "horizon 20.0 is shorter than the window 25.0",
                         id="horizon-below-window"),
            pytest.param(["--threshold", "0"],
                         "switch_threshold must be positive, got 0.0",
                         id="threshold"),
        ],
    )
    def test_flow_calibrate_refuses_before_any_trial(self, flags, message, capsys):
        assert main(["flow", "calibrate"] + flags) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "trials" not in captured.err
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


def _span_counts(path):
    """``{span: count}`` of a ``--summary`` envelope's span table."""
    import json

    spans = json.loads(path.read_text())["payload"]["spans"]
    return {name: stats["count"] for name, stats in spans.items()}


class TestObsRecordFlags:
    """``obs record`` runs no TrialRunner: it takes the instrument flags
    and rejects the execution flags that would do nothing there."""

    RECORD = ["obs", "record", "--scenario", "collision", "--duration", "1",
              "--senders", "2"]

    @pytest.mark.parametrize(
        "flags",
        [["--workers", "2"], ["--cache-dir", "unused-cache"], ["--no-cache"],
         ["--telemetry", "unused.json"]],
        ids=["workers", "cache-dir", "no-cache", "telemetry"],
    )
    def test_execution_flags_are_usage_errors(self, flags, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(self.RECORD + ["--out", str(tmp_path / "t.jsonl")] + flags)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_metrics_snapshot_counts_the_trial(self, tmp_path):
        from repro.obs.metrics import read_snapshot

        snapshot = tmp_path / "metrics.jsonl"
        argv = self.RECORD + ["--out", str(tmp_path / "t.jsonl"),
                              "--metrics", str(snapshot)]
        assert main(argv) == 0
        registry, _ = read_snapshot(snapshot)
        assert registry.counter("engine.events") > 0


class TestProfileFlag:
    """``--profile`` is installed once, around the whole command."""

    FLOW_RUN = [
        "flow", "run", "--nodes", "10000", "--fidelity", "hybrid",
        "--threshold", "70", "--horizon", "120", "--seed", "3", "--profile",
    ]

    def test_flow_run_serial_books_windows(self, tmp_path):
        summary = tmp_path / "serial.json"
        assert main(self.FLOW_RUN + ["--summary", str(summary)]) == 0
        assert _span_counts(summary) == {"flow.sample": 10, "flow.frame": 2}

    def test_flow_run_sharded_adds_exec_and_shard_spans(self, tmp_path):
        summary = tmp_path / "sharded.json"
        argv = self.FLOW_RUN + [
            "--flow-workers", "2", "--flow-shards", "3", "--summary", str(summary)
        ]
        assert main(argv) == 0
        assert _span_counts(summary) == {
            "flow.sample": 10,
            "flow.frame": 2,
            "exec.trial": 3,
            "flow.partition": 1,
            "flow.merge": 1,
        }

    def test_obs_record_summary_holds_worker_spans(self, tmp_path):
        summary = tmp_path / "summary.json"
        argv = [
            "obs", "record", "--scenario", "montecarlo", "--horizon", "20",
            "--profile",
            "--out", str(tmp_path / "trace.jsonl"), "--summary", str(summary),
        ]
        assert main(argv) == 0
        assert _span_counts(summary) == {"core.sample": 1, "core.replay": 1}

    def test_profiler_is_uninstalled_afterwards(self, tmp_path):
        from repro.obs.spans import active_profiler

        assert main(self.FLOW_RUN + ["--horizon", "20"]) == 0
        assert active_profiler() is None
