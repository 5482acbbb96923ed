"""The ``python -m repro obs`` command surface.

::

    repro obs record --scenario montecarlo --shards 2 --out trace.jsonl
    repro obs record --scenario montecarlo --shards 2 --workers 2 \\
        --out forked.jsonl
    repro obs diff trace.jsonl forked.jsonl       # exit 0: bit-identical
    repro obs summary trace.jsonl
    repro obs top --summary SUMMARY.json -n 10

``obs diff`` exit codes: 0 identical, 1 diverged (first divergence and
context printed), 2 a trace could not be read.

This module is imported lazily by :func:`repro.cli.build_parser`; it
imports the top-level CLI helpers at call time, so the two modules stay
cycle-free.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, Optional

__all__ = ["configure_parser"]


def _cmd_record(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from ..cli import _finish_exec, _make_runner

    from . import record
    from .spans import SpanProfiler, profiling

    runner = _make_runner(args)
    profiler: Optional[SpanProfiler] = SpanProfiler() if args.profile else None
    try:
        with profiling(profiler) if profiler is not None else nullcontext():
            if args.scenario == "montecarlo":
                result = record.record_montecarlo(
                    args.out,
                    id_bits=args.id_bits,
                    rate=args.rate,
                    horizon=args.horizon,
                    warmup=args.warmup,
                    mean_duration=args.mean_duration,
                    fixed_duration=args.fixed_duration,
                    seed=args.seed,
                    shards=args.shards,
                    runner=runner,
                )
            else:
                result = record.record_collision(
                    args.out,
                    id_bits=args.id_bits,
                    n_senders=args.senders,
                    duration=args.duration,
                    selector=args.selector,
                    seed=args.seed,
                )
        summary = record.summarize_trace(args.out)
        print(
            f"recorded {summary['records']} record(s) "
            f"({args.scenario}) into {args.out}"
        )
        if args.summary:
            spans: Dict[str, Dict[str, float]] = {}
            if profiler is not None:
                spans = profiler.to_json()
            if runner.telemetry.spans:
                merged = SpanProfiler()
                merged.merge(spans)
                merged.merge(runner.telemetry.spans)
                spans = merged.to_json()
            record.write_summary(
                args.summary,
                args.out,
                result,
                spans=spans or None,
                telemetry=(
                    runner.telemetry.summary() if runner.telemetry.trials else None
                ),
            )
            print(f"wrote {args.summary}")
    finally:
        _finish_exec(runner, args)
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    from .envelope import TraceReadError
    from .record import summarize_trace

    try:
        summary = summarize_trace(args.trace)
    except (TraceReadError, OSError) as exc:
        print(f"obs summary: {exc}", file=sys.stderr)
        return 2
    print(f"trace: {args.trace}")
    meta = summary.get("meta") or {}
    if meta:
        print("meta: " + json.dumps(meta, sort_keys=True))
    print(f"records: {summary['records']}")
    span_info = summary.get("time_span")
    if span_info:
        print(f"time: {span_info['first']:.6f} .. {span_info['last']:.6f}")
    for category, count in summary["categories"].items():
        print(f"  {category}: {count}")
    return 0


def _span_table(path: pathlib.Path) -> Optional[Dict[str, Dict[str, float]]]:
    """The span table inside a summary/telemetry JSON file, if any."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(document, dict):
        return None
    payload = document.get("payload", document)
    if not isinstance(payload, dict):
        return None
    for probe in (payload, payload.get("telemetry")):
        if isinstance(probe, dict):
            spans = probe.get("spans")
            if isinstance(spans, dict) and spans:
                return spans
    return None


def _cmd_top(args: argparse.Namespace) -> int:
    from .spans import layer_breakdown

    path = pathlib.Path(args.summary)
    spans = _span_table(path)
    if spans is None:
        print(
            f"obs top: no span table in {path} (record with --profile "
            "and --summary, or pass a --telemetry JSON)",
            file=sys.stderr,
        )
        return 2
    ranked = sorted(
        spans.items(),
        key=lambda item: (-float(item[1].get("total", 0.0)), item[0]),
    )
    print(f"top {min(args.count, len(ranked))} span(s) by total wall time:")
    for name, stats in ranked[: args.count]:
        total = float(stats.get("total", 0.0))
        count = int(float(stats.get("count", 0)))
        mean = total / count if count else 0.0
        print(f"  {name}: {total:.6f}s over {count} span(s) (mean {mean:.9f}s)")
    print("per-layer wall time:")
    for layer, total in sorted(
        layer_breakdown(spans).items(), key=lambda item: (-item[1], item[0])
    ):
        print(f"  {layer}: {total:.6f}s")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from .diff import diff_traces
    from .envelope import TraceReadError

    try:
        diff = diff_traces(args.left, args.right)
    except (TraceReadError, OSError) as exc:
        print(f"obs diff: {exc}", file=sys.stderr)
        return 2
    print(diff.render())
    return 0 if diff.identical else 1


def _cmd_why(args: argparse.Namespace) -> int:
    from .envelope import TraceReadError
    from .forensics import ForensicsError, TraceForensics

    try:
        forensics = TraceForensics.from_trace(args.trace)
    except (ForensicsError, TraceReadError, OSError) as exc:
        print(f"obs why: {exc}", file=sys.stderr)
        return 2
    if args.lost:
        lost = forensics.lost()
        print(f"{len(lost)} lost transaction(s) in {args.trace}:")
        for txn_id in lost:
            print(f"  {txn_id}")
        return 0
    if args.txn is None:
        print(
            "obs why: give a transaction id (<major>:<minor>) or --lost",
            file=sys.stderr,
        )
        return 2
    try:
        if args.json:
            lifecycle = forensics.lifecycle(args.txn)
            print(json.dumps(lifecycle.to_json(), sort_keys=True))
        else:
            print(forensics.explain(args.txn))
    except ForensicsError as exc:
        print(f"obs why: {exc}", file=sys.stderr)
        return 2
    return 0


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``obs`` sub-subcommands to the given subparser."""
    from ..cli import _add_exec_flags, _positive_int

    sub = parser.add_subparsers(dest="obs_command", required=True)

    rec = sub.add_parser(
        "record", help="run a scenario and export its trace as JSONL"
    )
    rec.add_argument(
        "--scenario", choices=("montecarlo", "collision"), default="montecarlo"
    )
    rec.add_argument("--out", required=True, metavar="TRACE",
                     help="trace output path (JSONL)")
    rec.add_argument("--summary", default=None, metavar="PATH",
                     help="also write an obs-summary envelope (categories, "
                     "spans, layer breakdown)")
    rec.add_argument("--id-bits", type=int, default=8)
    rec.add_argument("--seed", type=int, default=0)
    mc = rec.add_argument_group("montecarlo scenario")
    mc.add_argument("--rate", type=float, default=5.0,
                    help="Poisson arrival rate (transactions/second)")
    mc.add_argument("--horizon", type=float, default=100.0)
    mc.add_argument("--warmup", type=float, default=0.0)
    mc.add_argument("--mean-duration", type=float, default=1.0)
    mc.add_argument("--fixed-duration", action="store_true")
    mc.add_argument("--shards", type=_positive_int, default=1,
                    help="horizon segments; the exported trace is "
                    "byte-identical at any worker count")
    col = rec.add_argument_group("collision scenario")
    col.add_argument("--senders", type=int, default=5)
    col.add_argument("--duration", type=float, default=10.0)
    col.add_argument("--selector", choices=("uniform", "listening", "oracle"),
                     default="uniform")
    _add_exec_flags(rec)
    rec.set_defaults(func=_cmd_record)

    summ = sub.add_parser("summary", help="summarize an exported trace")
    summ.add_argument("trace")
    summ.set_defaults(func=_cmd_summary)

    top = sub.add_parser(
        "top", help="rank spans by wall time from a summary/telemetry JSON"
    )
    top.add_argument("--summary", required=True, metavar="PATH",
                     help="obs-summary or run-telemetry JSON file")
    top.add_argument("-n", "--count", type=int, default=10)
    top.set_defaults(func=_cmd_top)

    dif = sub.add_parser(
        "diff",
        help="compare two traces field-by-field (exit 0 iff bit-identical)",
    )
    dif.add_argument("left")
    dif.add_argument("right")
    dif.set_defaults(func=_cmd_diff)

    why = sub.add_parser(
        "why",
        help="explain one transaction's fate from an exported trace "
        "(who collided with it, and where)",
    )
    why.add_argument("txn", nargs="?", default=None,
                     help="transaction id: window:ordinal (flow), "
                     "segment:owner (montecarlo), or origin:seq "
                     "(collision)")
    why.add_argument("--trace", required=True, metavar="PATH",
                     help="trace exported by `repro obs record` or "
                     "`repro flow run --trace`")
    why.add_argument("--lost", action="store_true",
                     help="list every lost transaction instead of "
                     "explaining one")
    why.add_argument("--json", action="store_true",
                     help="emit the lifecycle as JSON instead of prose")
    why.set_defaults(func=_cmd_why)
