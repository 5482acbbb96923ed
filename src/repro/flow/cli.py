"""The ``python -m repro flow`` command surface.

::

    repro flow run --nodes 10000 --fidelity flow --summary flow.json
    repro flow run --nodes 2000 --fidelity hybrid --threshold 8
    repro flow run --nodes 100000 --flow-workers 4 --trace run.jsonl
    repro flow calibrate --trials 3 --tolerance 0.05 --workers 4
    repro flow calibrate --id-bits 3 5 --density 2 5 --horizon 120
    repro flow calibrate --workers 4 --flow-shards 4 --fidelity frame

``flow calibrate`` exits 0 when every grid point's flow-vs-discrete
collision-rate divergence is within tolerance, 1 when the budget is
exceeded (the CI smoke gate), 2 on invalid configuration.

Imported lazily by :func:`repro.cli.build_parser`; top-level CLI
helpers are imported at call time so the modules stay cycle-free.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Optional

__all__ = ["configure_parser"]

# argparse defaults and choices as literals, so building the parser
# loads no flow, calibration or simulation module; tests pin each to
# the constant it copies.

#: ``repro.experiments.figures.FIG4_DEFAULT_ID_BITS``
FIG4_DEFAULT_ID_BITS = (2, 3, 4, 5, 6, 8, 10)
#: ``repro.flow.calibrate.DEFAULT_DENSITIES`` and ``DEFAULT_TOLERANCE``
DEFAULT_DENSITIES = (2.0, 5.0, 16.0)
DEFAULT_TOLERANCE = 0.05
#: ``repro.flow.hybrid.DEFAULT_SWITCH_THRESHOLD`` and ``FIDELITY_MODES``
DEFAULT_SWITCH_THRESHOLD = 8.0
FIDELITY_MODES = ("flow", "hybrid", "frame")
#: ``repro.flow.sampler.COLLISION_MODELS``
COLLISION_MODELS = ("eq4", "mixed")


def _write_envelope(
    path: str,
    kind: str,
    payload: Dict[str, Any],
    telemetry: Optional[Dict[str, Any]],
) -> None:
    """Persist a flow summary the way obs summaries are persisted.

    Same envelope machinery (:mod:`repro.experiments.persistence`) and
    the same span-table / layer-breakdown fields, so ``repro obs top``
    reads flow summaries unchanged.  The spans are the installed
    profiler's (``--profile``), which the runner's trials have merged
    into.
    """
    from ..experiments.persistence import save_envelope
    from ..obs.spans import active_profiler, layer_breakdown

    profiler = active_profiler()
    if profiler:
        spans = profiler.to_json()
        payload["spans"] = spans
        payload["layer_times"] = {
            layer: round(total, 6)
            for layer, total in layer_breakdown(spans).items()
        }
    if telemetry is not None:
        payload["telemetry"] = telemetry
    save_envelope(path, kind, payload)


def _cmd_run(args: argparse.Namespace) -> int:
    if not args.threshold > 0:
        print(f"flow run: --threshold must be > 0, got {args.threshold}", file=sys.stderr)
        return 2

    from ..obs.spans import SpanProfiler
    from .hybrid import simulate
    from .streams import massive_scenario, scenario_peak_density

    try:
        scenario = massive_scenario(
            n_nodes=args.nodes,
            id_bits=args.id_bits,
            horizon=args.horizon,
            window=args.window,
            packets_per_node=args.rate,
        )
    except ValueError as exc:
        print(f"flow run: {exc}", file=sys.stderr)
        return 2
    # Sharded execution engages when the user asks for workers/shards
    # or a trace (traces always go through the shard-and-merge path so
    # serial and parallel runs produce byte-identical files).
    sharded = (
        args.flow_workers > 1
        or args.flow_shards is not None
        or args.trace is not None
    )
    runner: Optional[Any] = None
    clock = SpanProfiler.clock
    t0 = clock()
    if sharded:
        from ..exec import TrialRunner
        from .shard import simulate_sharded, simulate_traced

        runner = TrialRunner(workers=args.flow_workers)
        if args.trace:
            result = simulate_traced(
                scenario,
                args.seed,
                args.trace,
                fidelity=args.fidelity,
                switch_threshold=args.threshold,
                model=args.model,
                shards=args.flow_shards,
                runner=runner,
            )
        else:
            result = simulate_sharded(
                scenario,
                args.seed,
                fidelity=args.fidelity,
                switch_threshold=args.threshold,
                model=args.model,
                shards=args.flow_shards,
                runner=runner,
            )
    else:
        result = simulate(
            scenario,
            args.seed,
            fidelity=args.fidelity,
            switch_threshold=args.threshold,
            model=args.model,
        )
    wall = clock() - t0
    layout = ""
    if sharded:
        shards = args.flow_shards or args.flow_workers
        layout = f", {args.flow_workers} worker(s) × {shards} shard(s)"
    print(
        f"{args.fidelity} run: {result.transactions} transactions, "
        f"collision rate {result.collision_rate:.4f}, "
        f"{result.frame_windows}/{len(result.windows)} frame window(s), "
        f"peak density {scenario_peak_density(scenario):.1f}, "
        f"{wall:.2f}s wall{layout}"
    )
    if args.trace:
        print(f"wrote {args.trace}")
    if args.summary:
        payload: Dict[str, Any] = {
            "scenario": {
                "nodes": args.nodes,
                "id_bits": args.id_bits,
                "horizon": args.horizon,
                "window": args.window,
                "rate": args.rate,
            },
            "fidelity": args.fidelity,
            "switch_threshold": args.threshold,
            "model": args.model,
            "seed": args.seed,
            "transactions": result.transactions,
            "collisions": result.collisions,
            "collision_rate": result.collision_rate,
            "frame_windows": result.frame_windows,
            "windows": len(result.windows),
            "wall_time": wall,
        }
        if sharded:
            payload["flow_workers"] = args.flow_workers
            payload["flow_shards"] = args.flow_shards
        _write_envelope(
            args.summary,
            "flow-summary",
            payload,
            telemetry=(
                runner.telemetry.summary()
                if runner is not None and runner.telemetry.trials
                else None
            ),
        )
        print(f"wrote {args.summary}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from ..cli import _finish_exec, _make_runner
    from .calibrate import calibrate

    runner = _make_runner(args)
    try:
        report = calibrate(
            id_bits_grid=args.id_bits,
            densities=args.density,
            trials=args.trials,
            base_seed=args.seed,
            horizon=args.horizon,
            window=args.window,
            warmup=args.warmup,
            tolerance=args.tolerance,
            fidelity=args.fidelity,
            switch_threshold=args.threshold,
            model=args.model,
            runner=runner,
            flow_shards=args.flow_shards,
        )
    except ValueError as exc:
        print(f"flow calibrate: {exc}", file=sys.stderr)
        return 2
    finally:
        _finish_exec(runner, args)
    print(report.render())
    if args.out:
        from ..experiments.persistence import save_json

        save_json(args.out, report.to_json())
        print(f"wrote {args.out}")
    if args.summary:
        _write_envelope(
            args.summary,
            "flow-calibration",
            report.to_json(),
            telemetry=(
                runner.telemetry.summary() if runner.telemetry.trials else None
            ),
        )
        print(f"wrote {args.summary}")
    return 0 if report.ok else 1


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``flow`` sub-subcommands to the given subparser."""
    from ..cli import (
        _add_exec_flags,
        _add_instrument_flags,
        _non_negative_int,
        _number,
        _positive_float,
        _positive_int,
    )

    sub = parser.add_subparsers(dest="flow_command", required=True)

    run = sub.add_parser(
        "run",
        help="run the massive-scenario family at flow/hybrid/frame fidelity",
    )
    run.add_argument("--nodes", type=_positive_int, default=10_000,
                     help="nodes in the scenario (default 10000)")
    run.add_argument("--id-bits", type=int, default=10)
    run.add_argument("--horizon", type=float, default=600.0)
    run.add_argument("--window", type=float, default=10.0,
                     help="concurrency-window width in seconds")
    run.add_argument("--rate", type=float, default=0.2,
                     help="per-node transaction rate (transactions/second)")
    run.add_argument("--fidelity", choices=FIDELITY_MODES, default="flow")
    run.add_argument("--threshold", type=float,
                     default=DEFAULT_SWITCH_THRESHOLD,
                     help="hybrid switch: density at which a window "
                     "escalates to frame fidelity")
    run.add_argument("--model", choices=COLLISION_MODELS, default="mixed")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--summary", default=None, metavar="PATH",
                     help="write a flow-summary envelope (result, spans, "
                     "layer breakdown)")
    run.add_argument("--flow-workers", type=_positive_int, default=1, metavar="N",
                     help="TrialRunner workers for sharded window "
                     "execution (results bit-identical at any count)")
    run.add_argument("--flow-shards", type=_positive_int, default=None, metavar="N",
                     help="window ranges to partition the plan into "
                     "(default: one per worker)")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="export the merged run trace (byte-identical "
                     "at any worker/shard count)")
    _add_instrument_flags(run)
    run.set_defaults(func=_cmd_run)

    cal = sub.add_parser(
        "calibrate",
        help="compare flow-level vs discrete collision rates on the "
        "Figure-4 grid (exit 1 past the divergence budget)",
    )
    cal.add_argument("--id-bits", type=_non_negative_int, nargs="+",
                     default=list(FIG4_DEFAULT_ID_BITS), metavar="H",
                     help="identifier sizes to sweep (default: the "
                     "Figure-4 set)")
    cal.add_argument("--density", type=_positive_float, nargs="+",
                     default=list(DEFAULT_DENSITIES), metavar="T",
                     help="transaction densities to sweep")
    cal.add_argument("--trials", type=_positive_int, default=3)
    cal.add_argument("--horizon", type=_positive_float, default=300.0,
                     help="seconds per replicate; at least --window")
    cal.add_argument("--window", type=_positive_float, default=25.0)
    cal.add_argument("--warmup", type=_number, default=5.0,
                     help="discrete-core warmup excluded from its rate")
    cal.add_argument("--tolerance", type=_number, default=DEFAULT_TOLERANCE,
                     help="per-point absolute divergence budget")
    cal.add_argument("--fidelity", choices=FIDELITY_MODES, default="flow")
    cal.add_argument("--threshold", type=float,
                     default=DEFAULT_SWITCH_THRESHOLD)
    cal.add_argument("--model", choices=COLLISION_MODELS, default="mixed")
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--out", default=None, metavar="PATH",
                     help="write the per-point report as JSON")
    cal.add_argument("--summary", default=None, metavar="PATH",
                     help="write a flow-calibration envelope (report, "
                     "spans, telemetry)")
    cal.add_argument("--flow-shards", type=_positive_int, default=None, metavar="N",
                     help="shard each flow replicate's window plan "
                     "across the runner (bit-identical results)")
    _add_exec_flags(cal)
    cal.set_defaults(func=_cmd_calibrate)
