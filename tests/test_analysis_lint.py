"""Tests for the protocol-aware static-analysis subsystem.

Each rule gets fixture snippets with expected findings (true
positives) and clean counterparts (no false positives); the tier-1
gate at the bottom lints the real ``src/`` tree and must stay clean.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import Baseline, Linter, all_rules
from repro.analysis.cli import main as lint_main

SRC_ROOT = Path(repro.__file__).resolve().parent.parent


def lint_source(tmp_path: Path, source: str, relpath: str = "mod.py"):
    """Write ``source`` under ``tmp_path`` and lint it with all rules."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    report = Linter().lint_paths([target])
    assert not report.errors, report.errors
    return report.findings


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


# ----------------------------------------------------------------------
# Rule pack 1: determinism
# ----------------------------------------------------------------------
class TestDeterminismRules:
    def test_det001_flags_unseeded_random_default(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random\n"
            "def make(rng=None):\n"
            "    return rng or random.Random()\n",
        )
        assert rule_ids(findings) == ["DET001"]
        assert findings[0].line == 3

    def test_det001_flags_from_import_and_alias(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from random import Random\n"
            "import random as _r\n"
            "a = Random()\n"
            "b = _r.Random()\n",
        )
        assert rule_ids(findings) == ["DET001", "DET001"]

    def test_det001_allows_seeded_random(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random\n"
            "a = random.Random(42)\n"
            "b = random.Random(derive_seed(0, 'x'))\n",
        )
        assert findings == []

    def test_det002_flags_module_level_draws(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random\n"
            "x = random.random()\n"
            "y = random.choice([1, 2])\n",
        )
        assert rule_ids(findings) == ["DET002", "DET002"]

    def test_det002_flags_aliased_and_from_imports(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random as _random\n"
            "from random import randint\n"
            "a = _random.shuffle([1])\n"
            "b = randint(0, 3)\n",
        )
        assert rule_ids(findings) == ["DET002", "DET002"]

    def test_det002_ignores_injected_rng_methods(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "class C:\n"
            "    def draw(self):\n"
            "        return self.rng.random() + self.rng.choice([1])\n",
        )
        assert findings == []

    def test_det003_flags_function_local_import(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def sample():\n"
            "    import random as _random\n"
            "    return _random\n",
        )
        assert "DET003" in rule_ids(findings)

    def test_det003_allows_module_level_import(self, tmp_path):
        findings = lint_source(tmp_path, "import random\n")
        assert findings == []

    def test_det004_flags_wall_clock_in_sim_code(self, tmp_path):
        source = (
            "import time\n"
            "from datetime import datetime\n"
            "def stamp():\n"
            "    return time.time(), datetime.now()\n"
        )
        findings = lint_source(tmp_path, source, relpath="sim/clock.py")
        assert rule_ids(findings) == ["DET004", "DET004"]

    def test_det004_ignores_code_outside_sim_packages(self, tmp_path):
        source = "import time\nt = time.time()\n"
        findings = lint_source(tmp_path, source, relpath="tools/bench.py")
        assert findings == []

    def test_det005_flags_set_iteration_in_kernel_code(self, tmp_path):
        source = (
            "def drain(items):\n"
            "    for x in set(items):\n"
            "        yield x\n"
            "    return [y for y in {1, 2, 3}]\n"
        )
        findings = lint_source(tmp_path, source, relpath="core/sched.py")
        assert rule_ids(findings) == ["DET005", "DET005"]

    def test_det005_allows_sorted_set_iteration(self, tmp_path):
        source = (
            "def drain(items):\n"
            "    for x in sorted(set(items)):\n"
            "        yield x\n"
        )
        findings = lint_source(tmp_path, source, relpath="core/sched.py")
        assert findings == []

    def test_det006_flags_multiprocessing_imports(self, tmp_path):
        source = (
            "import multiprocessing\n"
            "from multiprocessing import Pool\n"
            "from multiprocessing.pool import ThreadPool\n"
        )
        findings = lint_source(tmp_path, source, relpath="experiments/sweep.py")
        assert rule_ids(findings) == ["DET006", "DET006", "DET006"]

    def test_det006_flags_os_fork_calls(self, tmp_path):
        source = (
            "import os\n"
            "from os import fork\n"
            "pid_a = os.fork()\n"
            "pid_b = fork()\n"
        )
        findings = lint_source(tmp_path, source, relpath="experiments/run.py")
        assert rule_ids(findings) == ["DET006", "DET006"]

    def test_det006_flags_process_pool_executor(self, tmp_path):
        source = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "import concurrent.futures as cf\n"
            "pool = cf.ProcessPoolExecutor()\n"
        )
        findings = lint_source(tmp_path, source, relpath="experiments/run.py")
        assert rule_ids(findings) == ["DET006", "DET006"]

    def test_det006_exempts_the_exec_package(self, tmp_path):
        source = (
            "import os\n"
            "pid = os.fork()\n"
        )
        findings = lint_source(tmp_path, source, relpath="exec/runner.py")
        assert findings == []

    def test_det006_exempts_the_worker_pool_module(self, tmp_path):
        source = (
            "import os\n"
            "pid = os.fork()\n"
        )
        findings = lint_source(tmp_path, source, relpath="exec/pool.py")
        assert findings == []

    def test_det006_allowlist_is_per_module_not_per_package(self, tmp_path):
        # Only the two licensed modules may manage processes; the rest
        # of the exec package is not exempt.
        source = "import os\npid = os.fork()\n"
        findings = lint_source(tmp_path, source, relpath="exec/cache.py")
        assert rule_ids(findings) == ["DET006"]

    def test_det006_allows_thread_pool_executor(self, tmp_path):
        source = "from concurrent.futures import ThreadPoolExecutor\n"
        findings = lint_source(tmp_path, source, relpath="experiments/run.py")
        assert findings == []


# ----------------------------------------------------------------------
# Rule pack 2: wire-format invariants
# ----------------------------------------------------------------------
class TestWireRules:
    def test_wire001_flags_constant_overflowing_field(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "KIND_BITS = 2\n"
            "w = BitWriter()\n"
            "w.write(5, KIND_BITS)\n",
        )
        assert "WIRE001" in rule_ids(findings)

    def test_wire001_flags_mask_wider_than_field(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "CRC_BITS = 16\n"
            "def encode(w_in, value):\n"
            "    w = BitWriter()\n"
            "    w.write(value & 0x1FFFF, CRC_BITS)\n",
        )
        assert "WIRE001" in rule_ids(findings)

    def test_wire001_allows_exact_mask(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "CRC_BITS = 16\n"
            "def encode(value):\n"
            "    w = BitWriter()\n"
            "    w.write(value & 0xFFFF, CRC_BITS)\n"
            "    w.write(3, CRC_BITS)\n",
        )
        assert findings == []

    def test_wire002_flags_magic_literal_width(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def encode(value):\n"
            "    w = BitWriter()\n"
            "    w.write(value, 7)\n",
        )
        assert rule_ids(findings) == ["WIRE002"]

    def test_wire002_allows_named_width(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "LEN_BITS = 8\n"
            "def encode(value, width):\n"
            "    w = BitWriter()\n"
            "    w.write(value, LEN_BITS)\n"
            "    w.write(value, width)\n",
        )
        assert findings == []

    def test_wire003_flags_layout_exceeding_frame_budget(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "WORD_BITS = 64\n"
            "def encode(a, b, c, d):\n"
            "    w = BitWriter()\n"
            "    w.write(a, WORD_BITS)\n"
            "    w.write(b, WORD_BITS)\n"
            "    w.write(c, WORD_BITS)\n"
            "    w.write(d, WORD_BITS)\n",
        )
        assert "WIRE003" in rule_ids(findings)

    def test_wire003_allows_small_layout(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "WORD_BITS = 64\n"
            "def encode(a):\n"
            "    w = BitWriter()\n"
            "    w.write(a, WORD_BITS)\n",
        )
        assert findings == []


# ----------------------------------------------------------------------
# Rule pack 3: RNG-stream hygiene
# ----------------------------------------------------------------------
class TestRngStreamRules:
    def test_rng001_flags_duplicate_stream_name(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def build(rngs):\n"
            "    a = rngs.stream('medium')\n"
            "    b = rngs.stream('medium')\n"
            "    return a, b\n",
        )
        assert rule_ids(findings) == ["RNG001"]
        assert findings[0].line == 3

    def test_rng001_allows_distinct_names_and_scopes(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def build(rngs):\n"
            "    return rngs.stream('medium'), rngs.stream('mac')\n"
            "def build2(rngs):\n"
            "    return rngs.stream('medium')\n",
        )
        assert findings == []

    def test_rng002_flags_id_interpolation(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def build(rngs, node):\n"
            "    return rngs.stream(f'mac.{id(node)}')\n",
        )
        assert rule_ids(findings) == ["RNG002"]

    def test_rng002_flags_repr_conversion(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def build(rngs, node):\n"
            "    return rngs.stream(f'mac.{node!r}')\n",
        )
        assert rule_ids(findings) == ["RNG002"]

    def test_rng002_allows_stable_interpolations(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def build(rngs, node):\n"
            "    return rngs.stream(f'mac.{node}')\n",
        )
        assert findings == []


# ----------------------------------------------------------------------
# Rule pack 6: observability invariants
# ----------------------------------------------------------------------
class TestObservabilityRules:
    def test_obs001_flags_computed_emit_category(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def run(recorder, kind):\n"
            "    recorder.emit(0.0, 'frame.' + kind)\n",
        )
        assert rule_ids(findings) == ["OBS001"]
        assert findings[0].line == 2

    def test_obs001_flags_computed_span_name(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from repro.obs.spans import span\n"
            "def run(layer):\n"
            "    with span(f'{layer}.dispatch'):\n"
            "        pass\n",
        )
        assert rule_ids(findings) == ["OBS001"]

    def test_obs001_flags_keyword_category(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def run(recorder, kind):\n"
            "    recorder.emit(0.0, category=kind)\n",
        )
        assert rule_ids(findings) == ["OBS001"]

    def test_obs001_allows_literal_categories(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from repro.obs.spans import span\n"
            "def run(recorder):\n"
            "    recorder.emit(0.0, 'frame.tx', size=3)\n"
            "    with span('radio.transmit'):\n"
            "        pass\n",
        )
        assert findings == []

    def test_obs001_allows_literal_tally_category(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def run(recorder, delivered):\n"
            "    recorder.tally('frame.rx', delivered)\n",
        )
        assert findings == []

    def test_obs001_flags_computed_tally_category(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def run(recorder, kind, delivered):\n"
            "    recorder.tally('frame.' + kind, delivered)\n"
            "    recorder.tally(category=kind, n=delivered)\n",
        )
        assert rule_ids(findings) == ["OBS001", "OBS001"]
        assert [finding.line for finding in findings] == [2, 3]

    def test_obs001_ignores_unrelated_calls(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def run(profiler, name, value):\n"
            "    profiler.add(name, value)\n"
            "    print(name)\n",
        )
        assert findings == []

    def test_obs001_inline_suppression(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def run(recorder, kind):\n"
            "    recorder.emit(0.0, kind)  # lint: ignore[OBS001]\n",
        )
        assert findings == []

    def test_obs002_flags_computed_metric_name(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def run(metrics, layer):\n"
            "    metrics.inc('events.' + layer)\n",
        )
        assert rule_ids(findings) == ["OBS002"]
        assert findings[0].line == 2

    def test_obs002_flags_computed_gauge_name(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def run(metrics, name, depth):\n"
            "    metrics.gauge_max(name, depth)\n",
        )
        assert rule_ids(findings) == ["OBS002"]

    def test_obs002_flags_runtime_histogram_edges(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def run(metrics, widths):\n"
            "    metrics.observe('aff.bits', 8, tuple(widths))\n",
        )
        assert rule_ids(findings) == ["OBS002"]

    def test_obs002_flags_edges_list_literal(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def run(metrics):\n"
            "    metrics.observe('aff.bits', 8, edges=[4, 8, 16])\n",
        )
        assert rule_ids(findings) == ["OBS002"]

    def test_obs002_allows_literal_name_and_inline_tuple(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def run(metrics):\n"
            "    metrics.inc('radio.frames_tx')\n"
            "    metrics.inc('exec.retries', 2)\n"
            "    metrics.gauge_max('engine.queue_depth', 17)\n"
            "    metrics.observe('aff.bits', 8, (4, 8, 12, 16))\n",
        )
        assert findings == []

    def test_obs002_allows_module_constant_edges(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "EDGES = (4, 8, 12, 16)\n"
            "def run(metrics, bits):\n"
            "    metrics.observe('aff.bits', bits, EDGES)\n",
        )
        assert findings == []

    def test_obs002_flags_unknown_edges_name(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def run(metrics, edges):\n"
            "    metrics.observe('aff.bits', 8, edges)\n",
        )
        assert rule_ids(findings) == ["OBS002"]

    def test_obs002_ignores_selector_observe(self, tmp_path):
        # IdentifierSelector.observe(identifier) shares the method name
        # but not the histogram shape; it must not be flagged.
        findings = lint_source(
            tmp_path,
            "def run(selector, identifier):\n"
            "    selector.observe(identifier)\n",
        )
        assert findings == []

    def test_obs002_inline_suppression(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def run(metrics, name):\n"
            "    metrics.inc(name)  # lint: ignore[OBS002]\n",
        )
        assert findings == []


# ----------------------------------------------------------------------
# Rule pack 8: flow-fidelity sampling hygiene
# ----------------------------------------------------------------------
class TestFlowRules:
    def test_flow001_flags_underived_random_construction(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random\n"
            "def draw_window(k):\n"
            "    rng = random.Random(1234)\n"
            "    return rng.random()\n",
            relpath="flow/sampler.py",
        )
        assert rule_ids(findings) == ["FLOW001"]
        assert findings[0].line == 3

    def test_flow001_flags_ambient_module_draw(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random\n"
            "def draw_window(k):\n"
            "    return random.random()\n",
            relpath="flow/sampler.py",
        )
        # DET002 co-fires on the shared-state draw; FLOW001 adds the
        # flow-specific requirement.
        assert "FLOW001" in rule_ids(findings)

    def test_flow001_allows_registry_and_derived_streams(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random\n"
            "from repro.sim.rng import RngRegistry, derive_seed\n"
            "def draw_window(seed, k):\n"
            "    rng = RngRegistry(seed).stream(f'flow.window.{k}')\n"
            "    frame = random.Random(derive_seed(seed, 'flow.frame'))\n"
            "    return rng.random() + frame.random()\n",
            relpath="flow/sampler.py",
        )
        assert [f for f in findings if f.rule_id == "FLOW001"] == []

    def test_flow001_scoped_to_flow_packages(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random\n"
            "def draw(k):\n"
            "    return random.Random(1234).random()\n",
            relpath="core/sampler.py",
        )
        assert "FLOW001" not in rule_ids(findings)

    def test_flow001_inline_suppression(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random\n"
            "def draw_window(k):\n"
            "    rng = random.Random(1234)  # lint: ignore[FLOW001]\n"
            "    return rng.random()\n",
            relpath="flow/sampler.py",
        )
        assert [f for f in findings if f.rule_id == "FLOW001"] == []

    def test_flow001_sarif_help_uri(self, tmp_path):
        from repro.analysis.sarif import to_sarif

        target = tmp_path / "flow" / "sampler.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            "import random\n"
            "def draw_window(k):\n"
            "    return random.Random(99).random()\n",
            encoding="utf-8",
        )
        report = Linter().lint_paths([target])
        document = to_sarif(report, all_rules())
        rules = document["runs"][0]["tool"]["driver"]["rules"]
        assert any(
            rule["id"] == "FLOW001"
            and rule["helpUri"].endswith("#pack-8--flow-fidelity-flow")
            for rule in rules
        )


# ----------------------------------------------------------------------
# Suppression and baseline workflow
# ----------------------------------------------------------------------
class TestSuppressionAndBaseline:
    SOURCE = (
        "import random\n"
        "def make(rng=None):\n"
        "    return rng or random.Random()\n"
    )

    def test_inline_suppression_by_rule_id(self, tmp_path):
        source = self.SOURCE.replace(
            "random.Random()", "random.Random()  # lint: ignore[DET001]"
        )
        assert lint_source(tmp_path, source) == []

    def test_blanket_inline_suppression(self, tmp_path):
        source = self.SOURCE.replace(
            "random.Random()", "random.Random()  # lint: ignore"
        )
        assert lint_source(tmp_path, source) == []

    def test_suppression_of_other_rule_does_not_mask(self, tmp_path):
        source = self.SOURCE.replace(
            "random.Random()", "random.Random()  # lint: ignore[WIRE001]"
        )
        assert rule_ids(lint_source(tmp_path, source)) == ["DET001"]

    def test_baseline_masks_known_findings_only(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(self.SOURCE, encoding="utf-8")
        findings = Linter().lint_paths([target]).findings
        assert len(findings) == 1

        baseline = Baseline.from_findings(findings)
        masked = Linter(baseline=baseline).lint_paths([target])
        assert masked.findings == []

        # A *new* finding is never masked by the old baseline.
        target.write_text(
            self.SOURCE + "def other():\n    import random\n", encoding="utf-8"
        )
        still = Linter(baseline=baseline).lint_paths([target]).findings
        assert rule_ids(still) == ["DET003"]

    def test_baseline_round_trips_through_disk(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(self.SOURCE, encoding="utf-8")
        findings = Linter().lint_paths([target]).findings
        path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).dump(path)
        loaded = Baseline.load(path)
        assert loaded.filter(findings) == []


# ----------------------------------------------------------------------
# CLI behaviour
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(tmp_path), "--no-baseline"]) == 0

    def test_exit_one_on_findings(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import random\nx = random.random()\n", encoding="utf-8"
        )
        assert lint_main([str(tmp_path), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "DET002" in out

    def test_exit_two_on_unknown_rule(self, tmp_path):
        assert lint_main([str(tmp_path), "--select", "NOPE999"]) == 2

    def test_exit_two_on_missing_path(self, tmp_path):
        assert lint_main([str(tmp_path / "does-not-exist")]) == 2

    def test_json_output_parses(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import random\nx = random.random()\n", encoding="utf-8"
        )
        code = lint_main([str(tmp_path), "--no-baseline", "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        assert payload["findings"][0]["rule"] == "DET002"

    def test_select_and_ignore(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import random\nx = random.random()\n", encoding="utf-8"
        )
        assert (
            lint_main([str(tmp_path), "--no-baseline", "--select", "WIRE001"]) == 0
        )
        assert (
            lint_main([str(tmp_path), "--no-baseline", "--ignore", "DET002"]) == 0
        )

    def test_write_baseline_then_clean(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.py").write_text(
            "import random\nx = random.random()\n", encoding="utf-8"
        )
        assert lint_main(["bad.py", "--write-baseline"]) == 0
        assert lint_main(["bad.py"]) == 0
        assert lint_main(["bad.py", "--no-baseline"]) == 1

    def test_list_rules_covers_all_packs(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET005", "WIRE001", "WIRE003", "RNG001", "RNG002"):
            assert rule_id in out

    def test_overlapping_paths_lint_each_file_once(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "m.py").write_text(
            "import random\nx = random.random()\n", encoding="utf-8"
        )
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        paths = [pkg / "m.py", tmp_path, pkg / ".." / "pkg" / "m.py"]
        assert [p.name for p in Linter()._expand(paths)] == ["m.py", "ok.py"]

        assert lint_main([str(tmp_path), str(pkg / "m.py"), "--no-baseline"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("DET002") == 1
        assert "2 file(s) checked, 1 finding(s)" in captured.err

    def test_overlapping_paths_do_not_spend_a_baseline_entry(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("import random\nx = random.random()\n", encoding="utf-8")
        baseline = Baseline.from_findings(Linter().lint_paths([tmp_path]).findings)
        report = Linter(baseline=baseline).lint_paths([tmp_path, target])
        assert report.files_checked == 1
        assert report.findings == []

    def test_parse_error_reported_not_crashed(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def (:\n", encoding="utf-8")
        assert lint_main([str(tmp_path), "--no-baseline"]) == 1
        assert "parse error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Tier-1 gate: the shipped tree must lint clean
# ----------------------------------------------------------------------
class TestShippedTree:
    def test_src_tree_lints_clean(self):
        report = Linter().lint_paths([SRC_ROOT / "repro"])
        assert report.errors == []
        assert report.findings == [], "\n".join(
            finding.render() for finding in report.findings
        )
        assert report.files_checked > 50

    def test_module_entry_point_exits_zero(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(SRC_ROOT / "repro")],
            capture_output=True,
            text=True,
            cwd=str(SRC_ROOT.parent),
            env={**os.environ, "PYTHONPATH": str(SRC_ROOT)},
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_every_rule_pack_registered(self):
        ids = {rule.rule_id for rule in all_rules()}
        assert {
            "DET001",
            "DET002",
            "DET003",
            "DET004",
            "DET005",
            "DET006",
            "WIRE001",
            "WIRE002",
            "WIRE003",
            "RNG001",
            "RNG002",
            "OBS001",
            "OBS002",
            "FLOW001",
        } <= ids


# ----------------------------------------------------------------------
# Optional: mypy checks the strictly-typed packages
# ----------------------------------------------------------------------
def test_mypy_strict_on_analysis_and_exec_packages():
    pytest.importorskip("mypy")
    from mypy import api as mypy_api

    stdout, stderr, status = mypy_api.run(
        ["--config-file", str(SRC_ROOT.parent / "setup.cfg"),
         "-p", "repro.analysis", "-p", "repro.exec", "-p", "repro.obs",
         "-p", "repro.flow"]
    )
    assert status == 0, stdout + stderr
