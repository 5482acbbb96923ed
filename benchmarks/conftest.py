"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's figures (or an extension
experiment) and prints the same rows/series the paper reports, besides
timing the regeneration via pytest-benchmark.

Fidelity: by default the simulated experiments run at reduced duration
and trial counts so the whole benchmark suite finishes in minutes.  Set
``REPRO_FULL=1`` to run the paper's exact protocol (120-second trials,
ten per configuration) — expect a long run.  Set ``REPRO_WORKERS=N`` to
fan simulated trials across worker processes (results are identical at
any worker count; see ``docs/parallel.md``).

Rendered tables are written to ``benchmarks/results/*.txt``; each
published result also gets a machine-readable ``BENCH_<name>.json``
next to it (versioned envelope, schema 1, non-finite values tagged by
``repro.util.codec``) holding the run's key observables plus — once
the session ends — pytest-benchmark's timing stats for the test that
published it.
"""

import math
import os
import pathlib
import platform
from importlib import metadata

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

FULL_FIDELITY = os.environ.get("REPRO_FULL", "0") == "1"

#: simulated-trial settings per fidelity mode
TRIALS = 10 if FULL_FIDELITY else 3
DURATION = 120.0 if FULL_FIDELITY else 20.0

#: worker processes for trial execution (0/1 = serial)
WORKERS = int(os.environ.get("REPRO_WORKERS", "1") or 1)

#: test nodeid -> names it published (for merging timing stats in)
_PUBLISHED_BY_TEST = {}


def _bench_json_path(results_dir, name):
    return results_dir / f"BENCH_{name}.json"


def _host():
    """What a timing depends on besides the code: cores and versions."""
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def _write_bench_json(results_dir, name, metrics):
    from repro.experiments.persistence import save_envelope

    payload = {
        "name": name,
        "fidelity": {
            "full": FULL_FIDELITY,
            "trials": TRIALS,
            "duration": DURATION,
            "workers": WORKERS,
        },
        "host": _host(),
        "metrics": dict(metrics or {}),
    }
    save_envelope(_bench_json_path(results_dir, name), "benchmark", payload)


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def trial_runner():
    """A REPRO_WORKERS-wide TrialRunner; telemetry feeds BENCH json.

    The test runs under an installed span profiler, which the runner
    carries into every trial, so published telemetry carries the
    per-layer wall-time breakdown (``layer_times``).  Profiling is
    observational — simulated results are bit-identical with it off.
    """
    from repro.exec import TrialRunner
    from repro.obs.spans import profiling

    with profiling():
        yield TrialRunner(workers=WORKERS)


@pytest.fixture
def publish(results_dir, request):
    """Print a rendered table; persist it plus a BENCH_<name>.json."""

    def _publish(name: str, text: str, metrics=None) -> None:
        print()
        print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n")
        _PUBLISHED_BY_TEST.setdefault(request.node.nodeid, []).append(name)
        _write_bench_json(results_dir, name, metrics)

    return _publish


@pytest.fixture
def publish_figure(publish):
    """Publish a FigureResult: its table plus an ASCII chart."""
    from repro.experiments.plotting import render_series

    def _publish(name: str, figure, x_log: bool = False, metrics=None) -> None:
        plottable = [
            s for s in figure.series if any(not math.isnan(v) for v in s.y)
        ]
        chart = render_series(plottable, title=figure.name, x_log=x_log)
        publish(name, figure.table.render() + "\n\n" + chart, metrics=metrics)

    return _publish


def _extract_timing(bench):
    """Pull min/max/mean/... out of a pytest-benchmark record, if any."""
    candidates = [bench, getattr(bench, "stats", None)]
    candidates.append(getattr(candidates[1], "stats", None))
    for stats in candidates:
        if stats is not None and hasattr(stats, "mean"):
            timing = {}
            for field in ("min", "max", "mean", "stddev", "median", "rounds"):
                value = getattr(stats, field, None)
                if isinstance(value, (int, float)) and math.isfinite(value):
                    timing[field] = value
            if timing:
                return timing
    return None


def pytest_sessionfinish(session, exitstatus):
    """Merge pytest-benchmark timing stats into the BENCH json files.

    Best-effort by design: the benchmark plugin's internals are not a
    stable API, so any surprise leaves the observable-only json in
    place rather than failing the run.
    """
    try:
        from repro.experiments.persistence import load_envelope, save_envelope

        bench_session = getattr(session.config, "_benchmarksession", None)
        if bench_session is None:
            return
        for bench in getattr(bench_session, "benchmarks", []) or []:
            timing = _extract_timing(bench)
            if timing is None:
                continue
            fullname = str(getattr(bench, "fullname", ""))
            for nodeid, names in _PUBLISHED_BY_TEST.items():
                if not (fullname.endswith(nodeid) or nodeid.endswith(fullname)):
                    continue
                for name in names:
                    path = _bench_json_path(RESULTS_DIR, name)
                    if not path.exists():
                        continue
                    payload = load_envelope(path, "benchmark")
                    payload["timing"] = timing
                    save_envelope(path, "benchmark", payload)
    except Exception:
        pass
