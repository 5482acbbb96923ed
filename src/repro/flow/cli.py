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
import json
import pathlib
import sys
from typing import Any, Dict, Optional

__all__ = ["configure_parser"]


def _write_envelope(
    path: str,
    kind: str,
    payload: Dict[str, Any],
    spans: Optional[Dict[str, Dict[str, float]]],
    telemetry: Optional[Dict[str, Any]],
) -> None:
    """Persist a flow summary the way obs summaries are persisted.

    Same envelope machinery (:mod:`repro.experiments.persistence`) and
    the same span-table / layer-breakdown fields, so ``repro obs top``
    and the bench-trend tooling read flow summaries unchanged.
    """
    from ..experiments.persistence import save_envelope
    from ..obs.spans import layer_breakdown

    if spans:
        payload["spans"] = spans
        payload["layer_times"] = {
            layer: round(total, 6)
            for layer, total in layer_breakdown(spans).items()
        }
    if telemetry is not None:
        payload["telemetry"] = telemetry
    save_envelope(path, kind, payload)


def _merged_spans(
    profiler: Optional[Any], runner: Any
) -> Optional[Dict[str, Dict[str, float]]]:
    from ..obs.spans import SpanProfiler

    spans: Dict[str, Dict[str, float]] = {}
    if profiler is not None:
        spans = profiler.to_json()
    if runner is not None and runner.telemetry.spans:
        merged = SpanProfiler()
        merged.merge(spans)
        merged.merge(runner.telemetry.spans)
        spans = merged.to_json()
    return spans or None


def _cmd_run(args: argparse.Namespace) -> int:
    if not args.threshold > 0:
        print(f"flow run: --threshold must be > 0, got {args.threshold}", file=sys.stderr)
        return 2

    from contextlib import nullcontext

    from ..obs.spans import SpanProfiler, profiling
    from .hybrid import simulate
    from .streams import massive_scenario, scenario_peak_density

    scenario = massive_scenario(
        n_nodes=args.nodes,
        id_bits=args.id_bits,
        horizon=args.horizon,
        window=args.window,
        packets_per_node=args.rate,
    )
    # Sharded execution engages when the user asks for workers/shards
    # or a trace (traces always go through the shard-and-merge path so
    # serial and parallel runs produce byte-identical files).
    sharded = (
        args.flow_workers > 1
        or args.flow_shards is not None
        or args.trace is not None
    )
    runner: Optional[Any] = None
    profiler: Optional[SpanProfiler] = SpanProfiler() if args.profile else None
    clock = SpanProfiler.clock
    t0 = clock()
    with profiling(profiler) if profiler is not None else nullcontext():
        if sharded:
            from ..exec import TrialRunner
            from .shard import simulate_sharded, simulate_traced

            runner = TrialRunner(
                workers=args.flow_workers, profile=args.profile
            )
            if args.trace:
                result = simulate_traced(
                    scenario,
                    args.seed,
                    args.trace,
                    fidelity=args.fidelity,
                    switch_threshold=args.threshold,
                    model=args.model,
                    shards=args.flow_shards,
                    strategy=args.partition,
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
                    strategy=args.partition,
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
            payload["partition"] = args.partition
        _write_envelope(
            args.summary,
            "flow-summary",
            payload,
            spans=_merged_spans(profiler, runner),
            telemetry=(
                runner.telemetry.summary()
                if runner is not None and runner.telemetry.trials
                else None
            ),
        )
        print(f"wrote {args.summary}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from ..cli import _finish_exec, _make_runner
    from ..obs.spans import SpanProfiler, profiling
    from .calibrate import calibrate

    runner = _make_runner(args)
    profiler: Optional[SpanProfiler] = SpanProfiler() if args.profile else None
    try:
        with profiling(profiler) if profiler is not None else nullcontext():
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
                partition=args.partition,
            )
    except ValueError as exc:
        print(f"flow calibrate: {exc}", file=sys.stderr)
        return 2
    finally:
        _finish_exec(runner, args)
    print(report.render())
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.out}")
    if args.summary:
        _write_envelope(
            args.summary,
            "flow-calibration",
            report.to_json(),
            spans=_merged_spans(profiler, runner),
            telemetry=(
                runner.telemetry.summary() if runner.telemetry.trials else None
            ),
        )
        print(f"wrote {args.summary}")
    return 0 if report.ok else 1


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``flow`` sub-subcommands to the given subparser."""
    from ..cli import _add_exec_flags, _positive_int
    from ..experiments.figures import FIG4_DEFAULT_ID_BITS
    from .calibrate import DEFAULT_DENSITIES, DEFAULT_TOLERANCE
    from .hybrid import DEFAULT_SWITCH_THRESHOLD, FIDELITY_MODES
    from .sampler import COLLISION_MODELS
    from .shard import PARTITION_STRATEGIES

    sub = parser.add_subparsers(dest="flow_command", required=True)

    run = sub.add_parser(
        "run",
        help="run the massive-scenario family at flow/hybrid/frame fidelity",
    )
    run.add_argument("--nodes", type=int, default=10_000,
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
    run.add_argument("--profile", action="store_true",
                     help="profile per-layer wall time (observational only)")
    run.add_argument("--flow-workers", type=_positive_int, default=1, metavar="N",
                     help="TrialRunner workers for sharded window "
                     "execution (results bit-identical at any count)")
    run.add_argument("--flow-shards", type=_positive_int, default=None, metavar="N",
                     help="window ranges to partition the plan into "
                     "(default: one per worker)")
    run.add_argument("--partition", choices=PARTITION_STRATEGIES,
                     default="cost",
                     help="shard partition strategy (cost balances "
                     "offered load + frame escalations)")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="export the merged run trace (byte-identical "
                     "at any worker/shard count)")
    run.add_argument("--metrics", default=None, metavar="PATH",
                     help="write the run's deterministic metrics "
                     "snapshot (JSONL) to PATH; bit-identical at any "
                     "worker/shard count")
    run.set_defaults(func=_cmd_run)

    cal = sub.add_parser(
        "calibrate",
        help="compare flow-level vs discrete collision rates on the "
        "Figure-4 grid (exit 1 past the divergence budget)",
    )
    cal.add_argument("--id-bits", type=int, nargs="+",
                     default=list(FIG4_DEFAULT_ID_BITS), metavar="H",
                     help="identifier sizes to sweep (default: the "
                     "Figure-4 set)")
    cal.add_argument("--density", type=float, nargs="+",
                     default=list(DEFAULT_DENSITIES), metavar="T",
                     help="transaction densities to sweep")
    cal.add_argument("--trials", type=int, default=3)
    cal.add_argument("--horizon", type=float, default=300.0)
    cal.add_argument("--window", type=float, default=25.0)
    cal.add_argument("--warmup", type=float, default=5.0,
                     help="discrete-core warmup excluded from its rate")
    cal.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
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
    cal.add_argument("--flow-shards", type=int, default=None, metavar="N",
                     help="shard each flow replicate's window plan "
                     "across the runner (bit-identical results)")
    cal.add_argument("--partition", choices=PARTITION_STRATEGIES,
                     default="cost",
                     help="shard partition strategy")
    _add_exec_flags(cal)
    cal.set_defaults(func=_cmd_calibrate)
