"""The one instrumentation slot (repro.instruments).

Span profiling, metrics and DetSan each install their own part of one
slot; installing one part leaves the others as they are, and leaving a
block restores exactly what was installed before it.
"""

import ast
import pathlib

import repro
from repro import instruments
from repro.analysis.sanitizer.runtime import active_sanitizer, sanitizing
from repro.obs.metrics import active_metrics, collecting
from repro.obs.spans import active_profiler, profiling

SRC = pathlib.Path(repro.__file__).parent


def test_parts_install_independently_and_restore():
    assert instruments.active() == instruments.Instruments()
    with profiling() as profiler:
        with collecting() as registry:
            with sanitizing() as context:
                assert instruments.active() == (profiler, registry, context)
                assert active_profiler() is profiler
                assert active_metrics() is registry
                assert active_sanitizer() is context
            assert instruments.active() == (profiler, registry, None)
        with profiling() as inner:
            assert instruments.active() == (inner, None, None)
        assert active_profiler() is profiler
    assert instruments.active() == instruments.Instruments()


def test_one_module_level_slot():
    owners = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if any(
            line.startswith("_ACTIVE")
            for line in path.read_text(encoding="utf-8").splitlines()
        )
    )
    assert owners == ["instruments.py"]


def test_slot_module_imports_nothing_from_the_package():
    tree = ast.parse((SRC / "instruments.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("repro")
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("repro") for alias in node.names)
