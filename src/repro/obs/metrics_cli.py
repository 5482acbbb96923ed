"""The ``python -m repro metrics`` command surface.

::

    repro flow run --nodes 2000 --fidelity hybrid --metrics serial.jsonl
    repro flow run --nodes 2000 --fidelity hybrid --flow-workers 4 \\
        --metrics sharded.jsonl
    repro metrics diff serial.jsonl sharded.jsonl  # exit 0: bit-identical
    repro metrics show serial.jsonl
    repro metrics export serial.jsonl --out metrics.prom

``metrics diff`` exit codes: 0 identical, 1 diverged (each divergence
printed), 2 a snapshot could not be read.  Counters under the ``exec.``
prefix describe the execution decomposition (trials, cache traffic),
not the simulated system, so the diff excludes them unless ``--all`` is
given — a serial run and a sharded run of the same scenario agree on
every simulated counter while legitimately disagreeing on how many
trials carried them.

Imported lazily by :func:`repro.cli.build_parser`, mirroring the obs
and flow CLIs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

__all__ = ["configure_parser"]


def _cmd_show(args: argparse.Namespace) -> int:
    from .metrics import MetricsReadError, read_snapshot

    try:
        registry, meta = read_snapshot(args.snapshot)
    except (MetricsReadError, OSError) as exc:
        print(f"metrics show: {exc}", file=sys.stderr)
        return 2
    print(f"metrics: {args.snapshot} ({len(registry)} metric(s))")
    if meta:
        print("meta: " + json.dumps(meta, sort_keys=True))
    table = registry.to_json()
    for name in sorted(table):
        entry = table[name]
        kind = entry["kind"]
        if kind == "histogram":
            buckets = entry["buckets"]
            labels = [str(edge) for edge in entry["edges"]] + ["+Inf"]
            cells = ", ".join(
                f"<={label}: {count}" if label != "+Inf" else f"+Inf: {count}"
                for label, count in zip(labels, buckets)
            )
            print(f"  histogram {name}: {cells}")
        else:
            print(f"  {kind} {name} = {entry['value']}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .metrics import MetricsReadError, read_snapshot, render_prometheus

    try:
        registry, _meta = read_snapshot(args.snapshot)
    except (MetricsReadError, OSError) as exc:
        print(f"metrics export: {exc}", file=sys.stderr)
        return 2
    text = render_prometheus(registry)
    if args.out:
        target = pathlib.Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from .metrics import MetricsReadError, diff_registries, read_snapshot

    try:
        left, _ = read_snapshot(args.left)
        right, _ = read_snapshot(args.right)
    except (MetricsReadError, OSError) as exc:
        print(f"metrics diff: {exc}", file=sys.stderr)
        return 2
    divergences = diff_registries(left, right, include_exec=args.all)
    if not divergences:
        scope = "all metrics" if args.all else "all simulated metrics"
        print(f"identical: {scope} agree ({len(left)} in {args.left})")
        return 0
    print(f"diverged: {len(divergences)} metric(s) disagree")
    for line in divergences:
        print(f"  {line}")
    return 1


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``metrics`` sub-subcommands to the given subparser."""
    sub = parser.add_subparsers(dest="metrics_command", required=True)

    show = sub.add_parser(
        "show", help="print a metrics snapshot in human-readable form"
    )
    show.add_argument("snapshot", help="metrics snapshot (JSONL)")
    show.set_defaults(func=_cmd_show)

    exp = sub.add_parser(
        "export", help="render a snapshot in Prometheus text format"
    )
    exp.add_argument("snapshot", help="metrics snapshot (JSONL)")
    exp.add_argument("--out", default=None, metavar="PATH",
                     help="write to PATH instead of stdout")
    exp.set_defaults(func=_cmd_export)

    dif = sub.add_parser(
        "diff",
        help="compare two snapshots (exit 0 iff every simulated metric "
        "agrees; exec.* counters excluded unless --all)",
    )
    dif.add_argument("left")
    dif.add_argument("right")
    dif.add_argument("--all", action="store_true",
                     help="include exec.* counters (decomposition-"
                     "dependent) in the comparison")
    dif.set_defaults(func=_cmd_diff)
