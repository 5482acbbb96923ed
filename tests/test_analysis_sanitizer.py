"""Tests for the DetSan runtime determinism sanitizer.

Covers the runtime slot (activation, instrumentation transparency),
the four detectors against deliberately-buggy fixtures in
``tests/fixtures/detsan_buggy.py``, the finding plumbing (suppression,
fingerprints, baseline round-trip, SARIF), and the new lint-CLI
baseline maintenance modes.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from repro.analysis import Baseline, Linter
from repro.analysis.cli import main as lint_main
from repro.analysis.sanitizer import (
    DetSanContext,
    active_sanitizer,
    sanitizing,
    state_snapshot,
)
from repro.analysis.sanitizer.detectors import (
    check_hash_order,
    drift_findings,
    ledger_findings,
    run_suite,
)
from repro.analysis.sanitizer.report import CONFIRMS, annotate_sarif
from repro.analysis.sanitizer.rules import SANITIZER_RULES, sanitizer_rules_by_id
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

FIXTURES = Path(__file__).resolve().parent / "fixtures"
if str(FIXTURES) not in sys.path:
    # Makes detsan_buggy importable here AND in the pinned subprocess
    # legs (the detectors forward sys.path via PYTHONPATH).
    sys.path.insert(0, str(FIXTURES))

FIXTURE_FILE = (FIXTURES / "detsan_buggy.py").as_posix()


def fixture_relpath() -> str:
    """The fixture file's path as findings display it."""
    try:
        return (FIXTURES / "detsan_buggy.py").relative_to(Path.cwd()).as_posix()
    except ValueError:
        return FIXTURE_FILE


# ----------------------------------------------------------------------
# Runtime slot
# ----------------------------------------------------------------------
class TestRuntimeSlot:
    def test_inactive_by_default(self):
        assert active_sanitizer() is None

    def test_sanitizing_installs_and_restores(self):
        ctx = DetSanContext(seed=7)
        with sanitizing(ctx) as active:
            assert active is ctx
            assert active_sanitizer() is ctx
        assert active_sanitizer() is None

    def test_nested_contexts_restore_previous(self):
        outer, inner = DetSanContext(seed=1), DetSanContext(seed=2)
        with sanitizing(outer):
            with sanitizing(inner):
                assert active_sanitizer() is inner
            assert active_sanitizer() is outer
        assert active_sanitizer() is None

    def test_global_random_unpatched_after_exit(self):
        before = random.random
        with sanitizing(DetSanContext(seed=0)):
            assert random.random is not before
        assert random.random is before

    def test_tie_rank_is_deterministic(self):
        a, b = DetSanContext(seed=3), DetSanContext(seed=3)
        ranks = [a.tie_rank(1.5, seq) for seq in range(8)]
        assert ranks == [b.tie_rank(1.5, seq) for seq in range(8)]
        assert len(set(ranks)) == len(ranks)

    def test_tie_rank_depends_on_seed(self):
        assert DetSanContext(seed=0).tie_rank(1.0, 1) != DetSanContext(
            seed=1
        ).tie_rank(1.0, 1)


# ----------------------------------------------------------------------
# Instrumentation transparency: sanitizer-off == sanitizer-on, bit for bit
# ----------------------------------------------------------------------
class TestTransparency:
    def test_stream_sequences_identical_under_instrumentation(self):
        plain = [RngRegistry(root_seed=42).stream("node.1").random() for _ in range(1)]
        plain_seq = RngRegistry(root_seed=42).stream("node.1")
        expected = [plain_seq.random() for _ in range(20)]
        with sanitizing(DetSanContext(seed=0)):
            instrumented = RngRegistry(root_seed=42).stream("node.1")
            observed = [instrumented.random() for _ in range(20)]
        assert observed == expected
        assert plain  # first draw consumed off a throwaway registry

    def test_draws_are_attributed_to_stream_and_site(self):
        with sanitizing(DetSanContext(seed=0)) as san:
            stream = RngRegistry(root_seed=1).stream("node.2")
            stream.random()
            payloads = san.observations()
        draws = {}
        for payload in payloads:
            draws.update(payload.get("draws", {}))
        assert "node.2" in draws
        assert any("test_analysis_sanitizer" in site for site in draws["node.2"])

    def test_fifo_order_preserved_when_off(self):
        order = []
        sim = Simulator()
        for name in "abcdef":
            sim.schedule(1.0, order.append, name)
        sim.run()
        assert order == list("abcdef")

    def test_perturbed_ties_shuffle_but_reproducibly(self):
        def run_once(perturb: bool):
            order = []
            with sanitizing(DetSanContext(seed=5, perturb_ties=perturb)):
                sim = Simulator()
                for name in "abcdef":
                    sim.schedule(1.0, order.append, name)
                sim.run()
            return order

        assert run_once(False) == list("abcdef")
        shuffled = run_once(True)
        assert sorted(shuffled) == list("abcdef")
        assert shuffled != list("abcdef")
        assert run_once(True) == shuffled  # same seed -> same shuffle


# ----------------------------------------------------------------------
# Detectors against the deliberately-buggy fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def buggy_suite():
    return run_suite(
        scenarios=[
            "detsan_buggy:tie_order_bug",
            "detsan_buggy:unregistered_draw",
        ],
        hash_seeds=0,
        fork_exercise=False,
    )


class TestDetectors:
    def test_tie_order_bug_yields_san002(self, buggy_suite):
        san002 = [f for f in buggy_suite.findings if f.rule_id == "SAN002"]
        assert len(san002) == 1
        finding = san002[0]
        assert finding.path == fixture_relpath()
        assert "tie_order_bug" in finding.message
        assert finding.snippet.startswith("def tie_order_bug")
        assert finding.fingerprint().startswith(f"SAN002:{finding.path}:")

    def test_unregistered_draw_yields_san001(self, buggy_suite):
        san001 = [f for f in buggy_suite.findings if f.rule_id == "SAN001"]
        assert len(san001) == 1
        finding = san001[0]
        assert finding.path == fixture_relpath()
        assert "random.random()" in finding.message
        assert "random.random()" in finding.snippet
        assert finding.fingerprint().startswith(f"SAN001:{finding.path}:")

    def test_clean_scenario_produces_no_findings(self, buggy_suite):
        checks = {
            check["scenario"]: check["ok"] for check in buggy_suite.checks
        }
        assert checks["detsan_buggy:unregistered_draw"] is True
        assert checks["detsan_buggy:tie_order_bug"] is False

    def test_hash_order_bug_yields_san003(self, tmp_path):
        findings, check = check_hash_order(
            "detsan_buggy:hash_order_bug", hash_seeds=2, workdir=tmp_path
        )
        assert not check["ok"]
        assert [f.rule_id for f in findings] == ["SAN003"]
        assert findings[0].path == fixture_relpath()
        assert "PYTHONHASHSEED" in findings[0].message

    def test_hash_order_clean_scenario_passes(self, tmp_path):
        findings, check = check_hash_order(
            "detsan_buggy:unregistered_draw", hash_seeds=2, workdir=tmp_path
        )
        assert check["ok"], check
        assert findings == []


# ----------------------------------------------------------------------
# SAN001: call sites of a registered stream
# ----------------------------------------------------------------------
class TestCallSiteDivergence:
    @staticmethod
    def _draws(pid, scenario, site):
        return {"pid": pid, "scenario": scenario, "draws": {"selector.0": {site: 1}}}

    def test_divergent_sites_within_a_scenario_fire(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("a = draw()\nb = draw()\n", encoding="utf-8")
        findings = ledger_findings([
            self._draws(1, "collision", f"{target}:1:f"),
            self._draws(2, "collision", f"{target}:2:g"),
        ])
        assert [f.rule_id for f in findings] == ["SAN001"]
        assert "of scenario 'collision'" in findings[0].message

    def test_sites_of_different_scenarios_are_not_compared(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("a = draw()\nb = draw()\n", encoding="utf-8")
        findings = ledger_findings([
            self._draws(1, "collision", f"{target}:1:f"),
            self._draws(2, "collision-listening", f"{target}:2:g"),
        ])
        assert findings == []


# ----------------------------------------------------------------------
# SAN004: state drift
# ----------------------------------------------------------------------
class TestStateDrift:
    def test_unloaded_baseline_is_benign(self):
        san = DetSanContext(seed=0)
        san.fork_baseline = {"probe.x": "unloaded"}
        san.check_fork_drift({"probe.x": "abcd"})
        assert san.drift == []
        assert san.fork_baseline["probe.x"] == "abcd"

    def test_fork_drift_recorded(self):
        san = DetSanContext(seed=0)
        san.fork_baseline = {"probe.x": "aaaa"}
        san.check_fork_drift({"probe.x": "bbbb"})
        assert [d["probe"] for d in san.drift] == ["probe.x"]
        assert san.drift[0]["phase"] == "fork"

    def test_trial_drift_recorded_and_reanchored(self):
        san = DetSanContext(seed=0)
        san.fork_baseline = {"probe.x": "aaaa"}
        san.record_trial_drift(
            {"probe.x": "aaaa"}, {"probe.x": "cccc"}, site=f"{FIXTURE_FILE}:16"
        )
        assert san.drift[0]["phase"] == "trial"
        assert san.fork_baseline["probe.x"] == "cccc"  # no double report

    def test_drift_findings_anchor_at_site(self):
        san = DetSanContext(seed=0)
        san.fork_baseline = {"probe.x": "aaaa"}
        san.record_trial_drift(
            {"probe.x": "aaaa"}, {"probe.x": "cccc"}, site=f"{FIXTURE_FILE}:16"
        )
        findings = drift_findings(san.observations())
        assert [f.rule_id for f in findings] == ["SAN004"]
        assert findings[0].path == fixture_relpath()
        assert findings[0].line == 16

    def test_state_snapshot_has_builtin_probes(self):
        snapshot = state_snapshot()
        assert "random.global_state" in snapshot
        assert "sim.rng.fallback_counts" in snapshot


# ----------------------------------------------------------------------
# Suppression and baseline interplay
# ----------------------------------------------------------------------
class TestSuppressionAndBaseline:
    def _payload(self, site: str):
        return [{"pid": 1, "unregistered": {"random.random": {site: 3}}}]

    def test_inline_ignore_suppresses_sanitizer_finding(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "value = draw()  # lint: ignore[SAN001]\n", encoding="utf-8"
        )
        findings = ledger_findings(self._payload(f"{target}:1:f"))
        assert findings == []

    def test_without_ignore_the_finding_fires(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("value = draw()\n", encoding="utf-8")
        findings = ledger_findings(self._payload(f"{target}:1:f"))
        assert [f.rule_id for f in findings] == ["SAN001"]

    def test_ignoring_a_different_rule_does_not_mask(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "value = draw()  # lint: ignore[SAN002]\n", encoding="utf-8"
        )
        findings = ledger_findings(self._payload(f"{target}:1:f"))
        assert [f.rule_id for f in findings] == ["SAN001"]

    def test_sanitizer_findings_round_trip_through_baseline(self, buggy_suite):
        baseline = Baseline.from_findings(buggy_suite.findings)
        assert baseline.filter(buggy_suite.findings) == []
        # A fresh, identical run hits the same fingerprints.
        again = run_suite(
            scenarios=["detsan_buggy:unregistered_draw"],
            hash_seeds=0,
            fork_exercise=False,
        )
        assert baseline.filter(again.findings) == []


# ----------------------------------------------------------------------
# Lint CLI: --prune-baseline / --check-baseline
# ----------------------------------------------------------------------
BUGGY_SRC = (
    "import random\n"
    "def make(rng=None):\n"
    "    return rng or random.Random()\n"
)
CLEAN_SRC = "def make(rng):\n    return rng\n"


class TestBaselineMaintenance:
    def _write(self, tmp_path: Path, source: str) -> Path:
        target = tmp_path / "mod.py"
        target.write_text(source, encoding="utf-8")
        return target

    def test_check_baseline_clean_when_debt_still_fires(self, tmp_path, capsys):
        target = self._write(tmp_path, BUGGY_SRC)
        baseline = tmp_path / "bl.json"
        args = [str(target), "--baseline", str(baseline)]
        assert lint_main(args + ["--write-baseline"]) == 0
        assert lint_main(args) == 0  # grandfathered
        assert lint_main(args + ["--check-baseline"]) == 0

    def test_check_baseline_fails_on_stale_entries(self, tmp_path, capsys):
        target = self._write(tmp_path, BUGGY_SRC)
        baseline = tmp_path / "bl.json"
        args = [str(target), "--baseline", str(baseline)]
        assert lint_main(args + ["--write-baseline"]) == 0
        self._write(tmp_path, CLEAN_SRC)  # debt fixed, entry now stale
        assert lint_main(args + ["--check-baseline"]) == 1
        out = capsys.readouterr().out
        assert "stale baseline entry" in out

    def test_prune_baseline_drops_dead_fingerprints(self, tmp_path, capsys):
        target = self._write(tmp_path, BUGGY_SRC)
        baseline = tmp_path / "bl.json"
        args = [str(target), "--baseline", str(baseline)]
        assert lint_main(args + ["--write-baseline"]) == 0
        self._write(tmp_path, CLEAN_SRC)
        assert lint_main(args + ["--prune-baseline"]) == 0
        out = capsys.readouterr().out
        assert "pruned" in out
        assert json.loads(baseline.read_text())["entries"] == {}
        assert lint_main(args + ["--check-baseline"]) == 0

    def test_pruned_finding_refires_when_reintroduced(self, tmp_path):
        target = self._write(tmp_path, BUGGY_SRC)
        baseline = tmp_path / "bl.json"
        args = [str(target), "--baseline", str(baseline)]
        assert lint_main(args + ["--write-baseline"]) == 0
        self._write(tmp_path, CLEAN_SRC)
        assert lint_main(args + ["--prune-baseline"]) == 0
        self._write(tmp_path, BUGGY_SRC)  # the debt comes back...
        assert lint_main(args) == 1  # ...and is reported, not masked

    def test_inline_ignore_makes_baseline_entry_stale(self, tmp_path):
        target = self._write(tmp_path, BUGGY_SRC)
        baseline = tmp_path / "bl.json"
        args = [str(target), "--baseline", str(baseline)]
        assert lint_main(args + ["--write-baseline"]) == 0
        self._write(
            tmp_path,
            BUGGY_SRC.replace(
                "return rng or random.Random()",
                "return rng or random.Random()  # lint: ignore[DET001]",
            ),
        )
        assert lint_main(args + ["--check-baseline"]) == 1

    def test_check_baseline_requires_a_baseline_file(self, tmp_path):
        target = self._write(tmp_path, CLEAN_SRC)
        missing = tmp_path / "absent.json"
        assert (
            lint_main(
                [str(target), "--baseline", str(missing), "--check-baseline"]
            )
            == 2
        )


# ----------------------------------------------------------------------
# SARIF: rule catalogue polish + sanitizer findings
# ----------------------------------------------------------------------
class TestSarif:
    def test_static_rules_carry_level_and_help_uri(self, tmp_path):
        from repro.analysis.sarif import to_sarif

        target = tmp_path / "mod.py"
        target.write_text(BUGGY_SRC, encoding="utf-8")
        report = Linter().lint_paths([target])
        document = to_sarif(report, SANITIZER_RULES)
        driver = document["runs"][0]["tool"]["driver"]
        by_id = {rule["id"]: rule for rule in driver["rules"]}
        assert by_id["SAN002"]["defaultConfiguration"]["level"] == "error"
        assert by_id["SAN002"]["helpUri"].endswith("#dynamic-analysis-detsan")

    def test_warning_level_rules_map_through(self, tmp_path):
        from repro.analysis import all_rules
        from repro.analysis.sarif import to_sarif

        target = tmp_path / "mod.py"
        target.write_text(
            "def sample():\n    import random as _r\n    return _r\n", encoding="utf-8"
        )
        report = Linter().lint_paths([target])
        assert "DET003" in [f.rule_id for f in report.findings]
        document = to_sarif(report, all_rules())
        levels = {r["ruleId"]: r["level"] for r in document["runs"][0]["results"]}
        assert levels["DET003"] == "warning"
        driver = document["runs"][0]["tool"]["driver"]
        by_id = {rule["id"]: rule for rule in driver["rules"]}
        assert by_id["DET003"]["defaultConfiguration"]["level"] == "warning"
        assert by_id["DET001"]["defaultConfiguration"]["level"] == "error"

    def test_sanitizer_findings_serialize_to_sarif(self, buggy_suite):
        from repro.analysis.core import LintReport
        from repro.analysis.sarif import to_sarif

        report = LintReport()
        report.findings = list(buggy_suite.findings)
        document = to_sarif(report, SANITIZER_RULES)
        results = document["runs"][0]["results"]
        assert {r["ruleId"] for r in results} == {"SAN001", "SAN002"}
        for result in results:
            assert result["partialFingerprints"]["reproLint/v1"].startswith(
                result["ruleId"] + ":"
            )


# ----------------------------------------------------------------------
# Report mode: static SARIF x dynamic evidence
# ----------------------------------------------------------------------
class TestReport:
    def _static_sarif(self, path: str, rule_id: str = "DET001"):
        return {
            "runs": [
                {
                    "results": [
                        {
                            "ruleId": rule_id,
                            "locations": [
                                {
                                    "physicalLocation": {
                                        "artifactLocation": {"uri": path},
                                        "region": {"startLine": 3},
                                    }
                                }
                            ],
                        }
                    ]
                }
            ]
        }

    def test_confirmed_when_san_evidence_lands_in_same_file(self, buggy_suite):
        san001 = [f for f in buggy_suite.findings if f.rule_id == "SAN001"][0]
        document = self._static_sarif(san001.path)
        counts = annotate_sarif(document, [san001])
        assert counts == {"dynamically-confirmed": 1, "not-observed": 0}
        detsan = document["runs"][0]["results"][0]["properties"]["detsan"]
        assert detsan["status"] == "dynamically-confirmed"
        assert detsan["confirmedBy"] == [san001.fingerprint()]

    def test_not_observed_without_matching_evidence(self, buggy_suite):
        san001 = [f for f in buggy_suite.findings if f.rule_id == "SAN001"][0]
        document = self._static_sarif("src/other/file.py")
        counts = annotate_sarif(document, [san001])
        assert counts == {"dynamically-confirmed": 0, "not-observed": 1}

    def test_unrelated_rule_is_not_confirmed_by_san001(self, buggy_suite):
        san001 = [f for f in buggy_suite.findings if f.rule_id == "SAN001"][0]
        document = self._static_sarif(san001.path, rule_id="WIRE001")
        counts = annotate_sarif(document, [san001])
        assert counts["dynamically-confirmed"] == 0

    def test_confirms_map_targets_known_rule_ids(self):
        from repro.analysis.core import project_registry, registry

        known = set(registry()) | set(project_registry())
        for san_id, static_ids in CONFIRMS.items():
            assert san_id in sanitizer_rules_by_id()
            assert static_ids <= known


# ----------------------------------------------------------------------
# The sanitize CLI
# ----------------------------------------------------------------------
class TestSanitizeCli:
    def _run(self, argv):
        from repro.cli import main as repro_main

        return repro_main(["sanitize", *argv])

    def test_run_reports_fixture_findings(self, tmp_path, capsys):
        sarif_path = tmp_path / "detsan.sarif"
        code = self._run(
            [
                "run",
                "--scenario",
                "detsan_buggy:unregistered_draw",
                "--hash-seeds",
                "0",
                "--no-fork-exercise",
                "--no-baseline",
                "--sarif",
                str(sarif_path),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "SAN001" in out
        document = json.loads(sarif_path.read_text())
        assert document["runs"][0]["results"][0]["ruleId"] == "SAN001"

    def test_baseline_round_trip_via_cli(self, tmp_path, capsys):
        baseline = tmp_path / "bl.json"
        argv = [
            "run",
            "--scenario",
            "detsan_buggy:unregistered_draw",
            "--hash-seeds",
            "0",
            "--no-fork-exercise",
            "--baseline",
            str(baseline),
        ]
        assert self._run(argv + ["--write-baseline"]) == 0
        capsys.readouterr()
        assert self._run(argv) == 0  # grandfathered now
        assert "SAN001" not in capsys.readouterr().out

    def test_bad_scenario_is_invocation_error(self, capsys):
        assert self._run(["run", "--scenario", "nope", "--no-baseline"]) == 2


# ----------------------------------------------------------------------
# Pinned re-execution entry point
# ----------------------------------------------------------------------
class TestPinnedMain:
    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        from repro.analysis.sanitizer.pinned import main

        assert main(["--scenario", "nope", "--trace", str(tmp_path / "t")]) == 2

    def test_perturb_ties_requires_seed(self, tmp_path, capsys):
        from repro.analysis.sanitizer.pinned import main

        code = main(
            [
                "--scenario",
                "collision",
                "--trace",
                str(tmp_path / "t"),
                "--perturb-ties",
            ]
        )
        assert code == 2


# ----------------------------------------------------------------------
# Constant mirrored to break the analysis <- radio import cycle
# ----------------------------------------------------------------------
def test_wire_frame_budget_matches_radio_frame():
    from repro.analysis import wire_rules
    from repro.radio import frame

    assert wire_rules.RPC_MAX_FRAME_BYTES == frame.RPC_MAX_FRAME_BYTES
