"""Tests for the project-wide dataflow analysis (SEED/EXEC/PURE packs).

Each rule gets fixture modules that trip it (true positives), clean
counterparts routed through the sanctioned seed-derivation APIs (no
false positives), and a suppressed variant.  The gate at the bottom
runs the project analysis over the real ``src/`` tree, which must stay
clean — real violations are fixed, not baselined.
"""

from __future__ import annotations

import ast
import gc
import json
import re
import weakref
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    Linter,
    all_project_rules,
    build_callgraph,
    build_project,
)
from repro.analysis.cli import main as lint_main
from repro.analysis import core
from repro.analysis.core import SCOPE_NODES, ModuleContext, nodes, walk
from repro.analysis.dataflow import scope_walk
from repro.analysis.rngstreams import _calls_in_scope

SRC_ROOT = Path(repro.__file__).resolve().parent.parent


def lint_project(tmp_path: Path, sources):
    """Write ``{relpath: source}`` under ``tmp_path``; run project rules."""
    for relpath, source in sources.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    report = Linter().lint_paths([tmp_path], project=True)
    assert not report.errors, report.errors
    return report.findings


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


def project_for(tmp_path: Path, sources):
    contexts = []
    for relpath, source in sources.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
        contexts.append(
            ModuleContext(
                path=target,
                source=source,
                tree=ast.parse(source),
                display_path=relpath,
            )
        )
    return build_project(contexts)


# ----------------------------------------------------------------------
# SEED001: RNG seeded from a non-trial-derived value
# ----------------------------------------------------------------------
class TestSeedTaint:
    def test_flags_rng_seeded_from_untainted_local(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import random\n"
                    "def make(trial_id):\n"
                    "    return random.Random(trial_id * 7)\n"
                )
            },
        )
        assert rule_ids(findings) == ["SEED001"]
        assert findings[0].line == 3

    def test_allows_seed_parameter_and_derivations(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import random\n"
                    "def make(seed):\n"
                    "    rng = random.Random(derive_seed(seed, 'medium'))\n"
                    "    child = random.Random(rng.getrandbits(64))\n"
                    "    direct = random.Random(seed)\n"
                    "    return rng, child, direct\n"
                )
            },
        )
        assert findings == []

    def test_taint_flows_through_assignments(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import random\n"
                    "def make(base_seed):\n"
                    "    mixed = base_seed + 17\n"
                    "    return random.Random(mixed)\n"
                )
            },
        )
        assert findings == []

    def test_seedish_attribute_is_a_source(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import random\n"
                    "def make(config):\n"
                    "    return random.Random(config.base_seed)\n"
                )
            },
        )
        assert findings == []

    def test_unseeded_random_is_not_seed001(self, tmp_path):
        # An unseeded Random() is DET001's finding; SEED001 stays quiet.
        findings = lint_project(
            tmp_path,
            {"mod.py": "import random\nr = random.Random()\n"},
        )
        assert "SEED001" not in rule_ids(findings)

    def test_rng_registry_root_seed_checked(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "from repro.sim.rng import RngRegistry\n"
                    "def build(run_number):\n"
                    "    return RngRegistry(run_number)\n"
                )
            },
        )
        assert rule_ids(findings) == ["SEED001"]


# ----------------------------------------------------------------------
# SEED002: TrialSpec kwarg missing from the trial_key params
# ----------------------------------------------------------------------
class TestCacheKeyCompleteness:
    BAD = (
        "def run_trial(rate, mode, seed):\n"
        "    return rate\n"
        "def submit(rate, mode, seed):\n"
        "    key = trial_key('run_trial', {'rate': rate}, seed, '1')\n"
        "    return TrialSpec(\n"
        "        run_trial,\n"
        "        {'rate': rate, 'mode': mode, 'seed': seed},\n"
        "        'label',\n"
        "        key,\n"
        "    )\n"
    )

    def test_flags_kwarg_absent_from_key_params(self, tmp_path):
        findings = lint_project(tmp_path, {"mod.py": self.BAD})
        assert rule_ids(findings) == ["SEED002"]
        assert "'mode'" in findings[0].message
        # 'seed' is hashed separately by trial_key: never flagged.
        assert "'seed'" not in findings[0].message

    def test_complete_key_is_clean(self, tmp_path):
        source = self.BAD.replace(
            "{'rate': rate}", "{'rate': rate, 'mode': mode}"
        )
        assert lint_project(tmp_path, {"mod.py": source}) == []

    def test_same_dict_variable_both_sides_is_clean(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "def submit(fn, params, seed):\n"
                    "    key = trial_key('fn', params, seed, '1')\n"
                    "    return TrialSpec(fn, params, 'label', key)\n"
                )
            },
        )
        assert findings == []

    def test_dynamic_kwargs_stay_silent(self, tmp_path):
        # Non-literal dict construction is not statically provable;
        # the rule must not guess.
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "def submit(fn, extra, seed):\n"
                    "    kwargs = dict(extra)\n"
                    "    key = trial_key('fn', {'x': 1}, seed, '1')\n"
                    "    return TrialSpec(fn, kwargs, 'label', key)\n"
                )
            },
        )
        assert findings == []

    def test_uncached_spec_is_exempt(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "def submit(fn, rate):\n"
                    "    return TrialSpec(fn, {'rate': rate}, 'label', None)\n"
                )
            },
        )
        assert findings == []


# ----------------------------------------------------------------------
# EXEC001/002: fork-safety of trial functions
# ----------------------------------------------------------------------
class TestForkSafety:
    def test_exec001_flags_module_state_write(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "_COUNTS = {}\n"
                    "def trial(n):\n"
                    "    _COUNTS[n] = 1\n"
                    "    return n\n"
                    "SPEC = TrialSpec(trial, {'n': 1})\n"
                )
            },
        )
        assert rule_ids(findings) == ["EXEC001"]
        assert "_COUNTS" in findings[0].message

    def test_exec001_flags_mutator_calls_and_globals(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "_SEEN = []\n"
                    "_TOTAL = 0\n"
                    "def trial(n):\n"
                    "    global _TOTAL\n"
                    "    _TOTAL = _TOTAL + n\n"
                    "    _SEEN.append(n)\n"
                    "    return n\n"
                    "SPEC = TrialSpec(trial, {'n': 1})\n"
                )
            },
        )
        assert sorted(rule_ids(findings)) == ["EXEC001", "EXEC001"]

    def test_exec001_local_shadowing_is_clean(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "_COUNTS = {}\n"
                    "def trial(n):\n"
                    "    counts = {}\n"
                    "    counts[n] = 1\n"
                    "    counts.update({n: 2})\n"
                    "    return counts\n"
                    "SPEC = TrialSpec(trial, {'n': 1})\n"
                )
            },
        )
        assert findings == []

    def test_exec002_flags_prefork_lock_capture(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import threading\n"
                    "_LOCK = threading.Lock()\n"
                    "def trial(n):\n"
                    "    with _LOCK:\n"
                    "        return n\n"
                    "SPEC = TrialSpec(trial, {'n': 1})\n"
                )
            },
        )
        assert rule_ids(findings) == ["EXEC002"]
        assert "threading.Lock" in findings[0].message

    def test_exec002_in_trial_construction_is_clean(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import threading\n"
                    "def trial(n):\n"
                    "    lock = threading.Lock()\n"
                    "    with lock:\n"
                    "        return n\n"
                    "SPEC = TrialSpec(trial, {'n': 1})\n"
                )
            },
        )
        # Creating the lock inside the trial is fork-safe; EXEC002 only
        # polices captures of *pre-fork* module-level resources.
        assert "EXEC002" not in rule_ids(findings)

    def test_non_trial_functions_are_exempt(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "_CACHE = {}\n"
                    "def memo(n):\n"
                    "    _CACHE[n] = n\n"
                    "    return n\n"
                )
            },
        )
        assert findings == []


# ----------------------------------------------------------------------
# EXEC003: ambient inputs in a cached trial's call tree
# ----------------------------------------------------------------------
class TestAmbientCacheInputs:
    def test_flags_transitive_environ_read(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import os\n"
                    "def helper():\n"
                    "    return os.environ.get('MODE')\n"
                    "def trial(n):\n"
                    "    return helper(), n\n"
                    "SPEC = TrialSpec(trial, {'n': 1}, 'label', 'deadbeef')\n"
                )
            },
        )
        assert rule_ids(findings) == ["EXEC003"]
        # The message names the call chain from the trial to the read.
        assert "mod.trial -> mod.helper" in findings[0].message

    def test_uncached_trial_may_read_ambient(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import os\n"
                    "def trial(n):\n"
                    "    return os.environ.get('MODE'), n\n"
                    "SPEC = TrialSpec(trial, {'n': 1}, 'label', None)\n"
                )
            },
        )
        assert findings == []

    def test_clock_read_in_cached_trial_flagged(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import time\n"
                    "def trial(n):\n"
                    "    return time.perf_counter() + n\n"
                    "SPEC = TrialSpec(trial, {'n': 1}, 'label', 'deadbeef')\n"
                )
            },
        )
        assert rule_ids(findings) == ["EXEC003"]


# ----------------------------------------------------------------------
# PURE001: impurity on the canonical-serialization path
# ----------------------------------------------------------------------
class TestCanonicalPurity:
    def test_flags_impure_reachable_helper(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import time\n"
                    "def _encode(value):\n"
                    "    return str(value) + str(time.time())\n"
                    "def canonical_value(value):\n"
                    "    return _encode(value)\n"
                )
            },
        )
        assert rule_ids(findings) == ["PURE001"]
        assert "mod.canonical_value -> mod._encode" in findings[0].message

    def test_pure_serialization_is_clean(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import json\n"
                    "def _encode(value):\n"
                    "    return json.dumps(value, sort_keys=True)\n"
                    "def canonical_value(value):\n"
                    "    return _encode(value)\n"
                )
            },
        )
        assert findings == []

    def test_impurity_off_the_canonical_path_is_exempt(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import time\n"
                    "def canonical_value(value):\n"
                    "    return str(value)\n"
                    "def unrelated():\n"
                    "    return time.time()\n"
                )
            },
        )
        assert findings == []


# ----------------------------------------------------------------------
# Cross-module resolution, suppression, fingerprints
# ----------------------------------------------------------------------
class TestProjectMechanics:
    def test_trial_fn_resolved_across_modules(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/trials.py": (
                    "_STATE = {}\n"
                    "def trial(n):\n"
                    "    _STATE[n] = 1\n"
                    "    return n\n"
                ),
                "pkg/driver.py": (
                    "from pkg.trials import trial\n"
                    "SPEC = TrialSpec(trial, {'n': 1})\n"
                ),
            },
        )
        assert rule_ids(findings) == ["EXEC001"]
        assert findings[0].path.endswith("trials.py")

    def test_inline_suppression_silences_project_rules(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import random\n"
                    "def make(trial_id):\n"
                    "    return random.Random(trial_id)  "
                    "# lint: ignore[SEED001]\n"
                )
            },
        )
        assert findings == []

    def test_suppressing_another_rule_does_not_mask(self, tmp_path):
        findings = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import random\n"
                    "def make(trial_id):\n"
                    "    return random.Random(trial_id)  "
                    "# lint: ignore[EXEC001]\n"
                )
            },
        )
        assert rule_ids(findings) == ["SEED001"]

    def test_fingerprint_survives_line_drift(self, tmp_path):
        source = (
            "import random\n"
            "def make(trial_id):\n"
            "    return random.Random(trial_id)\n"
        )
        (before,) = lint_project(tmp_path, {"mod.py": source})
        shifted = "# a new header comment\n\n" + source
        (after,) = lint_project(tmp_path, {"mod.py": shifted})
        assert after.line == before.line + 2
        assert after.fingerprint() == before.fingerprint()

    def test_callgraph_reports_reachability(self, tmp_path):
        project = project_for(
            tmp_path,
            {
                "mod.py": (
                    "def a():\n"
                    "    return b()\n"
                    "def b():\n"
                    "    return c()\n"
                    "def c():\n"
                    "    return 1\n"
                    "def island():\n"
                    "    return 2\n"
                )
            },
        )
        graph = build_callgraph(project)
        reachable = graph.reachable(["mod.a"])
        assert {"mod.a", "mod.b", "mod.c"} <= reachable
        assert "mod.island" not in reachable
        assert graph.path_from(["mod.a"], "mod.c") == ["mod.a", "mod.b", "mod.c"]


# ----------------------------------------------------------------------
# CLI: --project and --sarif
# ----------------------------------------------------------------------
class TestProjectCli:
    BAD = (
        "import random\n"
        "def make(trial_id):\n"
        "    return random.Random(trial_id)\n"
    )

    def test_project_flag_gates_the_packs(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(self.BAD, encoding="utf-8")
        assert lint_main([str(tmp_path), "--no-baseline"]) == 0
        assert lint_main([str(tmp_path), "--no-baseline", "--project"]) == 1
        assert "SEED001" in capsys.readouterr().out

    def test_sarif_output_shape(self, tmp_path):
        (tmp_path / "mod.py").write_text(self.BAD, encoding="utf-8")
        sarif_path = tmp_path / "out.sarif"
        code = lint_main(
            [str(tmp_path), "--no-baseline", "--project",
             "--sarif", str(sarif_path)]
        )
        assert code == 1
        document = json.loads(sarif_path.read_text())
        assert document["version"] == "2.1.0"
        (run,) = document["runs"]
        (result,) = run["results"]
        assert result["ruleId"] == "SEED001"
        assert result["partialFingerprints"]["reproLint/v1"]
        assert any(
            rule["id"] == "SEED001" for rule in run["tool"]["driver"]["rules"]
        )

    def test_sarif_written_even_when_clean(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        sarif_path = tmp_path / "out.sarif"
        code = lint_main(
            [str(tmp_path), "--no-baseline", "--project",
             "--sarif", str(sarif_path)]
        )
        assert code == 0
        document = json.loads(sarif_path.read_text())
        assert document["runs"][0]["results"] == []

    def test_list_rules_includes_project_packs(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("SEED001", "SEED002", "EXEC001", "EXEC002",
                        "EXEC003", "PURE001"):
            assert rule_id in out

    def test_select_a_project_rule(self, tmp_path):
        (tmp_path / "mod.py").write_text(self.BAD, encoding="utf-8")
        assert (
            lint_main([str(tmp_path), "--no-baseline", "--project",
                       "--select", "EXEC001"]) == 0
        )
        assert (
            lint_main([str(tmp_path), "--no-baseline", "--project",
                       "--select", "SEED001"]) == 1
        )


# ----------------------------------------------------------------------
# Index-backed walks: the same nodes, in the same order, as the uncached
# traversals they replaced
# ----------------------------------------------------------------------
def _uncached_scope_walk(root):
    """``scope_walk`` as it was before it read the node index."""
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
    stack = [root]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            yield child
            if not isinstance(child, nested):
                stack.append(child)


@pytest.fixture(scope="module")
def src_trees():
    """A fresh parse of every module of ``src/``, by path."""
    return {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((SRC_ROOT / "repro").rglob("*.py"))
    }


def _scopes(tree):
    return [node for node in ast.walk(tree) if isinstance(node, SCOPE_NODES)]


#: Concrete, abstract and tuple queries, as the rules make them.
QUERY_KINDS = [
    ast.Call,
    ast.Name,
    ast.Load,
    ast.FunctionDef,
    (ast.Import, ast.ImportFrom),
    (ast.BinOp, ast.Call),
    ast.stmt,
    ast.expr,
    ast.mod,
    ast.AST,
]


class TestCachedWalks:
    def test_walk_matches_ast_walk_on_every_scope(self, src_trees):
        for path, tree in src_trees.items():
            for scope in _scopes(tree):
                expected = list(ast.walk(scope))
                assert list(walk(scope)) == expected, (path, scope.lineno)
                assert list(walk(scope)) == expected, (path, scope.lineno)

    def test_typed_query_matches_filtered_walk_on_every_scope(self, src_trees):
        for path, tree in src_trees.items():
            for scope in _scopes(tree):
                every = list(ast.walk(scope))
                for kinds in QUERY_KINDS:
                    expected = [node for node in every if isinstance(node, kinds)]
                    assert nodes(scope, kinds) == expected, (path, scope, kinds)

    def test_scope_walk_matches_uncached_order(self, src_trees):
        for path, tree in src_trees.items():
            for scope in _scopes(tree):
                expected = list(_uncached_scope_walk(scope))
                assert list(scope_walk(scope)) == expected, (path, scope.lineno)
                assert list(scope_walk(scope)) == expected, (path, scope.lineno)
                for kinds in QUERY_KINDS:
                    assert scope_walk(scope, kinds) == [
                        node for node in expected if isinstance(node, kinds)
                    ], (path, scope, kinds)

    def test_rng_scope_calls_match_uncached_order(self, src_trees):
        """RNG001/RNG002's calls-per-scope, which also enters lambdas/classes."""
        functions = (ast.FunctionDef, ast.AsyncFunctionDef)
        for path, tree in src_trees.items():
            for scope in _scopes(tree):
                expected = []
                stack = [scope]
                while stack:
                    node = stack.pop()
                    for child in ast.iter_child_nodes(node):
                        if isinstance(child, functions):
                            continue
                        if isinstance(child, ast.Call):
                            expected.append(child)
                        stack.append(child)
                assert list(_calls_in_scope(scope)) == expected, (path, scope.lineno)

    def test_one_index_per_module_freed_with_the_tree(self):
        tree = ast.parse("def f(a):\n    return g(a)\n")
        function = tree.body[0]
        assert tree not in core._INDEXES  # built by the first query
        assert [call.func.id for call in nodes(tree, ast.Call)] == ["g"]
        index = core._INDEXES[tree]
        assert function in index.scopes  # answers the function's queries
        assert nodes(function, ast.Call) == nodes(tree, ast.Call)
        assert core._INDEXES[tree] is index
        assert tree not in index.order  # the module is the weak key
        gone = weakref.ref(index)
        del tree, function, index
        gc.collect()
        assert gone() is None

    def test_non_scope_nodes_are_walked_afresh(self):
        expr = ast.parse("f(a + b)").body[0]
        indexed = len(core._INDEXES)
        assert walk(expr) == list(ast.walk(expr))
        assert [type(n).__name__ for n in walk(expr)][:3] == ["Expr", "Call", "Name"]
        assert nodes(expr, ast.Name) == [n for n in ast.walk(expr) if isinstance(n, ast.Name)]
        assert len(core._INDEXES) == indexed

    def test_callgraph_is_built_once_per_project(self, tmp_path):
        project = project_for(
            tmp_path, {"mod.py": "def a():\n    return b()\ndef b():\n    return 1\n"}
        )
        graph = build_callgraph(project)
        assert graph is build_callgraph(project)
        assert graph.callees("mod.a") == {"mod.b"}

    def test_only_the_walk_module_calls_ast_walk(self):
        """No rule grows a private traversal: every walk reads the index."""
        analysis = SRC_ROOT / "repro" / "analysis"
        callers = sorted(
            path.relative_to(analysis).as_posix()
            for path in analysis.rglob("*.py")
            if re.search(
                r"ast\.(walk|iter_child_nodes)\b", path.read_text(encoding="utf-8")
            )
        )
        assert callers == ["core.py"]


# ----------------------------------------------------------------------
# Tier-1 gate: the shipped tree must pass the project analysis clean
# ----------------------------------------------------------------------
class TestShippedTree:
    def test_src_tree_passes_project_analysis(self):
        report = Linter().lint_paths([SRC_ROOT / "repro"], project=True)
        assert report.errors == []
        assert report.findings == [], "\n".join(
            finding.render() for finding in report.findings
        )

    def test_src_tree_passes_ranges_gate(self, capsys):
        """The --ranges CLI over src/ stays clean and proves the ledger.

        Exercises the full interval pipeline (WIRE004 / RANGE001 /
        RANGE002 plus the proof ledger) exactly as CI invokes it: the
        shipped wire codecs must prove every fixed-width field and the
        shard partitioner must prove its plan-covering invariant.
        """
        from repro.analysis.cli import main as lint_main

        code = lint_main(
            [str(SRC_ROOT / "repro"), "--no-baseline", "--ranges", "--report"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "wire-field write(s)" in out
        assert "overflow" not in out
        assert " open" not in out  # every fixed-width field is proven

    def test_every_project_pack_registered(self):
        ids = {rule.rule_id for rule in all_project_rules()}
        assert {
            "SEED001",
            "SEED002",
            "EXEC001",
            "EXEC002",
            "EXEC003",
            "PURE001",
            "WIRE004",
            "RANGE001",
            "RANGE002",
        } <= ids
