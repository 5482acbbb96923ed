"""Pinned golden scenarios the sanitizer perturbs and re-executes.

A pinned scenario is a fully-parameterised, cheap, deterministic run of
a real reproduction pipeline: it writes a canonical
:mod:`repro.obs.envelope` trace to a given path and returns a JSON-safe
result dict.  "Pinned" is the point — every knob (seed, sizes,
durations) is fixed here, so two executions of the same scenario are
comparable byte for byte, which is exactly what the tie-order and
hash-order detectors do.

The module doubles as the re-execution entry point for the hash-order
perturber: ``python -m repro.analysis.sanitizer.pinned --scenario NAME
--trace PATH`` runs one scenario in a fresh interpreter (the only way
``PYTHONHASHSEED`` can differ) and prints the canonical JSON result on
stdout, so the parent can diff both the stdout bytes and the trace
bytes across hash seeds.  A ``--call module:function`` escape hatch
runs an arbitrary zero/one-argument scenario function by name — the
test suite uses it to point the perturbers at deliberately-buggy
fixture scenarios.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from ...util import codec

__all__ = ["PinnedScenario", "SCENARIOS", "canonical_result", "main"]


@dataclass(frozen=True)
class PinnedScenario:
    """One perturbable golden run.

    ``run`` drives the scenario, exporting its canonical trace to the
    given path, and returns the scenario's result as a JSON-safe dict.
    Both artifacts must be pure functions of this module's pinned
    parameters — the detectors treat any byte difference as a finding.
    """

    name: str
    run: Callable[[pathlib.Path], Dict[str, Any]]


def _run_collision(
    trace: pathlib.Path, n_senders: int = 3, selector: str = "uniform"
) -> Dict[str, Any]:
    """One Section 5.1 collision trial with its frame trace (kept small)."""
    from ...obs.record import record_collision

    return record_collision(
        trace, id_bits=4, n_senders=n_senders, duration=5.0, selector=selector,
        seed=0,
    )


def _run_montecarlo(trace: pathlib.Path, fixed_duration: bool = False) -> Dict[str, Any]:
    """A Monte Carlo run with its merged begin/end and collision trace."""
    from ...obs.record import record_montecarlo

    return record_montecarlo(
        trace, id_bits=6, rate=5.0, horizon=40.0, mean_duration=1.0,
        fixed_duration=fixed_duration, seed=0,
    )


SCENARIOS: Dict[str, PinnedScenario] = {
    "collision": PinnedScenario("collision", _run_collision),
    # The testbed's five listening senders: drain wakes, and the
    # selectors' note_transaction_end, under shuffled ties.
    "collision-listening": PinnedScenario(
        "collision-listening",
        lambda trace: _run_collision(trace, n_senders=5, selector="listening"),
    ),
    "montecarlo": PinnedScenario("montecarlo", _run_montecarlo),
    "montecarlo-fixed": PinnedScenario(
        "montecarlo-fixed", lambda trace: _run_montecarlo(trace, fixed_duration=True)
    ),
}

#: Modules whose import-time side effects (stream bookkeeping) must
#: settle *before* DetSan snapshots its fork-state baseline — otherwise
#: first-use lazy imports inside a scenario read as state drift.
_PRELOAD = (
    "repro.experiments.harness",
    "repro.core.montecarlo",
    "repro.obs.record",
)


def preload_scenario_modules() -> None:
    """Import the scenario stack so module state is at rest."""
    for name in _PRELOAD:
        importlib.import_module(name)


def canonical_result(result: Mapping[str, Any]) -> str:
    """One canonical line for a result dict (deterministic bytes)."""
    return codec.dumps(dict(result))


def resolve_scenario(spec: str) -> PinnedScenario:
    """A scenario by pinned name, or by ``module:function`` reference."""
    if spec in SCENARIOS:
        return SCENARIOS[spec]
    if ":" not in spec:
        raise KeyError(f"unknown pinned scenario {spec!r}")
    module_name, _, attr = spec.partition(":")
    fn = getattr(importlib.import_module(module_name), attr)
    return PinnedScenario(spec, fn)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.sanitizer.pinned",
        description=(
            "Run one pinned sanitizer scenario in this interpreter and "
            "print its canonical JSON result (re-execution vehicle for "
            "the PYTHONHASHSEED perturber)."
        ),
    )
    parser.add_argument(
        "--scenario",
        required=True,
        help=(
            "pinned scenario name "
            f"({', '.join(sorted(SCENARIOS))}) or a module:function reference"
        ),
    )
    parser.add_argument(
        "--trace",
        required=True,
        metavar="PATH",
        help="where to export the scenario's canonical trace",
    )
    parser.add_argument(
        "--detsan-seed",
        type=int,
        default=None,
        metavar="N",
        help="activate the determinism sanitizer around the run, seeded N",
    )
    parser.add_argument(
        "--perturb-ties",
        action="store_true",
        help=(
            "with --detsan-seed: deterministically shuffle same-timestamp "
            "events in every simulator built during the run"
        ),
    )
    parser.add_argument(
        "--ledger-out",
        metavar="PATH",
        help=(
            "with --detsan-seed: write the run's draw-ledger observations "
            "as JSON for the parent process to absorb"
        ),
    )
    args = parser.parse_args(argv)
    if args.perturb_ties and args.detsan_seed is None:
        print("error: --perturb-ties requires --detsan-seed", file=sys.stderr)
        return 2
    try:
        scenario = resolve_scenario(args.scenario)
    except (KeyError, ImportError, AttributeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.detsan_seed is None:
        result = scenario.run(pathlib.Path(args.trace))
    else:
        from .runtime import DetSanContext, sanitizing

        preload_scenario_modules()
        context = DetSanContext(
            seed=args.detsan_seed, perturb_ties=args.perturb_ties
        )
        with sanitizing(context):
            result = scenario.run(pathlib.Path(args.trace))
        if args.ledger_out:
            pathlib.Path(args.ledger_out).write_text(
                json.dumps(context.observations()), encoding="utf-8"
            )
    sys.stdout.write(canonical_result(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
