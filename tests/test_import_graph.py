"""Importing a module loads only that module and what it uses.

Every check runs in a fresh interpreter, since the test process has
long since imported everything.  The layering these pin is written up
in ``docs/architecture.md`` ("Layering rules").
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: What the simulation kernel may load of ``repro.analysis``: the DetSan
#: activation slot and the packages above it.
KERNEL_ANALYSIS = {
    "repro.analysis",
    "repro.analysis.sanitizer",
    "repro.analysis.sanitizer.runtime",
}

#: The registered rule ids.  The perfbench ``lint_tree`` corpus has no
#: findings, so a rule pack that stopped registering would pass there.
MODULE_RULES = [
    "DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
    "FLOW001", "OBS001", "OBS002", "RNG001", "RNG002",
    "WIRE001", "WIRE002", "WIRE003",
]
PROJECT_RULES = [
    "EXEC001", "EXEC002", "EXEC003", "PURE001", "RANGE001", "RANGE002",
    "SEED001", "SEED002", "WIRE004",
]


def fresh(code: str):
    """Run ``code`` in a new interpreter; the JSON its last line prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, check=False, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def loaded_after(statement: str):
    return set(fresh(f"""
        import json, sys
        {statement}
        print(json.dumps(sorted(sys.modules)))
    """))


@pytest.mark.parametrize(
    "module", ["repro.flow.hybrid", "repro.flow.shard", "repro.sim.rng"]
)
def test_kernel_loads_no_linter(module):
    loaded = loaded_after(f"import {module}")
    assert {m for m in loaded if m.startswith("repro.analysis")} <= KERNEL_ANALYSIS


def test_harness_loads_neither_numpy_nor_flow():
    loaded = loaded_after("import repro.experiments.harness")
    assert "numpy" not in loaded
    assert not {m for m in loaded if m.startswith("repro.flow")}


def test_parser_loads_no_simulation_code():
    """``repro --help`` (and every command before it dispatches) builds
    the parser; the commands import what they run."""
    loaded = loaded_after("from repro.cli import build_parser; build_parser()")
    assert "numpy" not in loaded
    for module in (
        "repro.experiments.report",
        "repro.experiments.harness",
        "repro.flow.calibrate",
    ):
        assert module not in loaded


def test_every_export_resolves_from_its_table():
    problems = fresh("""
        import importlib, json, pkgutil
        import repro

        problems = []
        packages = ["repro"] + [
            info.name
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.ispkg
        ]
        for name in packages:
            package = importlib.import_module(name)
            exported = getattr(package, "__all__", None)
            if exported is None:
                continue
            listed = dir(package)
            table = vars(package).get("_lazy_exports", {})
            for export in exported:
                value = getattr(package, export, None)
                if value is None or export not in listed:
                    problems.append(f"{name}.{export} does not resolve")
                elif export in table:
                    source = importlib.import_module(table[export], name)
                    if value is not getattr(source, export):
                        problems.append(f"{name}.{export} is not {table[export]}'s")
            eager = set(exported) - set(table)
            if table and not eager <= {"__version__"}:
                problems.append(f"{name}: {sorted(eager)} missing from its table")
            if set(table) - set(exported):
                problems.append(f"{name}: {sorted(set(table) - set(exported))} not in __all__")
            namespace = {}
            exec(f"from {name} import *", namespace)
            if set(namespace) - {"__builtins__"} != set(exported):
                problems.append(f"{name}: star import binds the wrong names")
        print(json.dumps(problems))
    """)
    assert problems == []


def test_export_named_like_its_module_outlives_a_direct_import():
    # Importing the submodule binds it on the package; the export of the
    # same name must still be the function, as when imported eagerly.
    seen = fresh("""
        import json
        import repro.flow.calibrate
        from repro.flow import calibrate
        import repro.flow as flow
        print(json.dumps([calibrate.__module__, callable(calibrate), flow.calibrate is calibrate]))
    """)
    assert seen == ["repro.flow.calibrate", True, True]


def test_rule_packs_register_on_first_registry_read():
    seen = fresh("""
        import json, sys
        from repro.analysis import core
        before = "repro.analysis.determinism" in sys.modules
        print(json.dumps([before, sorted(core.registry()), sorted(core.project_registry())]))
    """)
    assert seen == [False, MODULE_RULES, PROJECT_RULES]


def test_runs_import_nothing_their_setup_did_not():
    # Forked workers run the same code as these in-process runs; a
    # module first imported here would be imported per trial there.
    new = fresh("""
        import json, sys
        from repro.exec import TrialRunner
        from repro.experiments import harness
        from repro.flow import hybrid, shard, streams

        before = set(sys.modules)
        scenario = streams.massive_scenario(n_nodes=20_000, horizon=30)
        hybrid.simulate(scenario, 1, fidelity="hybrid", switch_threshold=200)
        shard.simulate_sharded(
            scenario, 1, fidelity="hybrid", switch_threshold=200, shards=2,
            runner=TrialRunner(workers=1),
        )
        config = harness.CollisionTrialConfig(
            id_bits=4, n_senders=5, packet_bytes=80, mtu_bytes=27,
            duration=2.0, selector="listening", seed=0,
        )
        harness.replicate(config, trials=1, runner=TrialRunner(workers=1))
        print(json.dumps(sorted(set(sys.modules) - before)))
    """)
    assert new == []


def test_lint_setup_loads_no_rule_pack():
    # The perfbench ``lint_tree`` set-up import, timed as ``setup_s``: the
    # rule packs and the dataflow engine load on the first registry read
    # of a run, and the node index is built by a run's first query.
    loaded = loaded_after("from repro.analysis import core, ranges")
    assert {m for m in loaded if m.startswith("repro")} == {
        "repro",
        "repro._lazy",
        "repro.analysis",
        "repro.analysis.callgraph",
        "repro.analysis.constfold",
        "repro.analysis.core",
        "repro.analysis.ranges",
        "repro.analysis.symbols",
    }
