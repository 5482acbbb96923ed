"""Command-line interface: regenerate the paper from a shell.

::

    python -m repro figure 1                 # analytic figures 1-3 (instant)
    python -m repro figure 4 --trials 3 --duration 20
    python -m repro figure 4 --trials 10 --workers 4 --cache-dir .repro-cache
    python -m repro model --data-bits 16 --density 16
    python -m repro validate                 # quick Figure 4-style check
    python -m repro scenario hidden-terminal
    python -m repro report                   # everything, into a directory

Figures print both the numeric table and an ASCII chart.

The simulated commands (``figure 4``, ``validate``, ``sweep``,
``report``, ``scenario``) accept execution-layer flags —
``--workers N`` fans trials out across processes, ``--cache-dir``
enables the content-addressed result cache, ``--no-cache`` disables it,
and ``--telemetry PATH`` writes the run's execution telemetry as JSON.
Worker count and cache state never change the computed numbers; see
``docs/parallel.md``.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import ExitStack
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from .experiments.results import Table
from .obs.metrics import collecting, write_snapshot
from .obs.spans import profiling

if TYPE_CHECKING:
    from .exec import TrialRunner
    from .experiments.figures import FigureResult

__all__ = ["main"]

# Building the parser loads no simulation code (``repro --help`` stays
# quick): the commands import what they run, and the values argparse
# needs up front are literals here, pinned to their sources by tests.

#: ``sorted(repro.experiments.report.SCENARIOS)``
SCENARIO_NAMES = (
    "codebook", "density-estimation", "density-tracking", "dynamic-alloc",
    "efficiency", "flooding", "hidden-terminal", "interest", "massive-flow",
)


def _int_at_least(text: str, minimum: int) -> int:
    """``text`` as an integer >= ``minimum``, else ArgumentTypeError."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


def _positive_int(text: str) -> int:
    """Argparse type: an integer >= 1 (a usage error, exit 2, otherwise)."""
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    """Argparse type: an integer >= 0 (a usage error, exit 2, otherwise)."""
    return _int_at_least(text, 0)


def _int_list(minimum: int) -> Callable[[str], List[int]]:
    """Argparse type: comma-separated integers, each >= ``minimum``."""

    def parse(text: str) -> List[int]:
        return [_int_at_least(value, minimum) for value in text.split(",")]

    return parse


def _number(text: str) -> float:
    """Argparse type: a float that is not NaN (a usage error, exit 2, otherwise)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if math.isnan(value):
        raise argparse.ArgumentTypeError("must be a number, got nan")
    return value


def _positive_float(text: str) -> float:
    """Argparse type: a finite number > 0 (a usage error, exit 2, otherwise)."""
    value = _number(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def _add_exec_flags(sub: argparse.ArgumentParser, default_cache: Optional[str] = None) -> None:
    """Execution-layer options shared by every subcommand that runs its
    trials through a :class:`TrialRunner`."""
    group = sub.add_argument_group("execution")
    group.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker processes for trial execution (default 1 = serial; "
        "results are identical at any worker count)",
    )
    group.add_argument(
        "--cache-dir", default=default_cache, metavar="DIR",
        help="content-addressed trial-result cache directory"
        + (" (default: %(default)s)" if default_cache else " (default: off)"),
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache even if --cache-dir is set",
    )
    group.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="write run telemetry (timings, cache traffic, worker "
        "utilization) as JSON to PATH",
    )
    _add_instrument_flags(group)


def _add_instrument_flags(group: "argparse._ActionsContainer") -> None:
    """``--profile`` and ``--metrics``: :func:`main` installs both around
    the whole command, whether or not it runs a :class:`TrialRunner`."""
    group.add_argument(
        "--profile", action="store_true",
        help="profile per-layer wall time across the command and its "
        "trials (observational only; summaries land in telemetry and "
        "obs summaries)",
    )
    group.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="collect deterministic counters/histograms across every "
        "layer and write the snapshot (JSONL) to PATH; snapshots are "
        "bit-identical at any worker/shard count",
    )


def _make_runner(args: argparse.Namespace) -> TrialRunner:
    from .exec import ResultCache, TrialRunner

    cache = None
    if getattr(args, "cache_dir", None) and not getattr(args, "no_cache", False):
        cache = ResultCache(args.cache_dir)
    return TrialRunner(workers=getattr(args, "workers", 1), cache=cache)


def _finish_exec(runner: TrialRunner, args: argparse.Namespace) -> None:
    """Print the one-line execution summary; persist telemetry if asked."""
    telemetry = runner.telemetry
    if telemetry.trials:
        print(telemetry.render(), file=sys.stderr)
        for record in telemetry.records:
            if record.error is not None:
                print(f"  failed {record.label}: {record.error}", file=sys.stderr)
    if getattr(args, "telemetry", None):
        telemetry.save(args.telemetry)
        print(f"wrote {args.telemetry}", file=sys.stderr)


def _print_figure(result: FigureResult, x_log: bool = False) -> None:
    from .experiments.plotting import render_series

    print(result.table.render())
    print()
    plottable = [s for s in result.series if any(v == v for v in s.y)]
    print(
        render_series(
            plottable,
            title=result.name,
            x_label="transaction density T" if x_log else "identifier bits",
            x_log=x_log,
        )
    )


def _cmd_figure(args: argparse.Namespace) -> int:
    from .experiments import figures as figs

    number = args.number
    if number == 1:
        _print_figure(figs.figure_1())
    elif number == 2:
        _print_figure(figs.figure_2())
    elif number == 3:
        result = figs.figure_3()
        # The envelope and fixed-size curves share axes; log-x shows the cliff.
        _print_figure(result, x_log=True)
    elif number == 4:
        runner = _make_runner(args)
        result = figs.figure_4(
            trials=args.trials, duration=args.duration, seed=args.seed,
            runner=runner,
        )
        _print_figure(result)
        _finish_exec(runner, args)
    else:
        print(f"no figure {number}; the paper has figures 1-4", file=sys.stderr)
        return 2
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    from .core import model

    data_bits = args.data_bits
    density = args.density
    best_bits, best_eff = model.optimal_identifier_bits(data_bits, density)
    table = Table(
        f"RETRI model: {data_bits}-bit data, transaction density {density}",
        ["quantity", "value"],
    )
    table.add_row("optimal identifier bits", best_bits)
    table.add_row("efficiency at optimum", best_eff)
    table.add_row("P(success) at optimum", model.p_success(best_bits, density))
    table.add_row(
        "P(success) with listening (1st-order)",
        model.p_success_listening(best_bits, density),
    )
    table.add_row(
        "lifetime gain vs 32-bit static",
        model.network_lifetime_gain(data_bits, 32, density),
    )
    for static_bits in (16, 32, 48):
        table.add_row(
            f"static {static_bits}-bit efficiency",
            model.efficiency_static(data_bits, static_bits),
        )
    crossover = model.crossover_density(data_bits, args.static_bits)
    table.add_row(
        f"density where static {args.static_bits}-bit catches up", crossover
    )
    print(table.render())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .core import model
    from .experiments.harness import CollisionTrialConfig, replicate

    runner = _make_runner(args)
    print(
        f"Validation: 5 senders -> 1 receiver, {args.trials} x "
        f"{args.duration:.0f}s per point (paper: 10 x 120s)"
    )
    table = Table(
        "collision rates",
        ["id bits", "model T=5", "random", "listening"],
    )
    for id_bits in (3, 4, 5, 6, 8):
        row = [id_bits, float(model.collision_probability(id_bits, 5))]
        for selector in ("uniform", "listening"):
            mean, _sd, _ = replicate(
                CollisionTrialConfig(
                    id_bits=id_bits,
                    duration=args.duration,
                    selector=selector,
                    seed=args.seed,
                ),
                trials=args.trials,
                runner=runner,
            )
            row.append(mean)
        table.add_row(*row)
    print(table.render())
    _finish_exec(runner, args)
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .experiments.report import SCENARIOS, ReportConfig

    entry = SCENARIOS.get(args.name)
    if entry is None:
        print(
            f"unknown scenario {args.name!r}; choose from: "
            + ", ".join(sorted(SCENARIOS)),
            file=sys.stderr,
        )
        return 2
    scenario_fn, description = entry
    exec_runner = _make_runner(args)
    config = ReportConfig(
        duration=args.duration, seed=args.seed, runner=exec_runner
    )
    result = scenario_fn(config)
    table = Table(f"scenario: {args.name} — {description}", ["metric", "value"])
    for key, value in result.items():
        if key == "samples":
            continue  # trajectories are for the report's JSON, not a table
        table.add_row(key, value)
    print(table.render())
    _finish_exec(exec_runner, args)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import ReportConfig, generate_report

    runner = _make_runner(args)
    written = generate_report(
        args.output,
        ReportConfig(trials=args.trials, duration=args.duration, seed=args.seed),
        runner=runner,
    )
    for path in written:
        print(f"wrote {path}")
    _finish_exec(runner, args)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments.harness import CollisionTrialConfig, run_collision_trial
    from .experiments.sweep import grid_sweep

    def trial(id_bits: int, n_senders: int, seed: int) -> float:
        return run_collision_trial(
            CollisionTrialConfig(
                id_bits=id_bits,
                n_senders=n_senders,
                duration=args.duration,
                selector=args.selector,
                seed=seed,
            )
        ).collision_loss_rate

    runner = _make_runner(args)
    result = grid_sweep(
        trial,
        grid={"id_bits": args.id_bits, "n_senders": args.senders},
        trials=args.trials,
        base_seed=args.seed,
        runner=runner,
    )
    table = result.to_table(
        f"collision-rate sweep ({args.selector} selection, "
        f"{args.trials} x {args.duration:.0f}s)",
        value_name="collision rate",
    )
    print(table.render())
    _finish_exec(runner, args)
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    from .core import model
    from .core.montecarlo import (
        ExponentialDuration,
        FixedDuration,
        replicate_collision_rate,
    )

    sampler = (
        FixedDuration(args.mean_duration)
        if args.fixed_duration
        else ExponentialDuration(args.mean_duration)
    )
    runner = _make_runner(args)
    mean, stdev, results = replicate_collision_rate(
        args.id_bits,
        args.rate,
        sampler,
        trials=args.trials,
        base_seed=args.seed,
        horizon=args.horizon,
        warmup=args.warmup,
        runner=runner,
    )
    density = args.rate * args.mean_duration
    table = Table(
        f"Monte Carlo: H={args.id_bits} bits, lambda={args.rate}/s, "
        f"horizon={args.horizon:.0f}s x {args.trials} trial(s)",
        ["quantity", "value"],
    )
    table.add_row("model P(collision), T=lambda*d", float(
        model.collision_probability(args.id_bits, max(density, 1.0))
    ))
    table.add_row("simulated collision rate (mean)", mean)
    table.add_row("simulated collision rate (stdev)", stdev)
    if results:
        table.add_row("transactions per trial", results[0].transactions)
        table.add_row("measured density", results[0].measured_density)
    print(table.render())
    _finish_exec(runner, args)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .exec import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.disk_stats()
        table = Table(f"result cache at {stats['root']}", ["quantity", "value"])
        table.add_row("entries", stats["entries"])
        table.add_row("bytes", stats["bytes"])
        for version, count in stats["versions"].items():
            table.add_row(f"entries written by {version}", count)
        print(table.render())
    elif args.action == "gc":
        # --keep-current is the only (and default) version policy:
        # entries written by any other version are unreachable by
        # construction.  --max-bytes then evicts least-recently-read
        # entries until the cache fits.
        removed = cache.gc(max_bytes=args.max_bytes)
        print(f"cache gc: removed {removed} entr{'y' if removed == 1 else 'ies'}")
    elif args.action == "purge":
        removed = cache.purge()
        print(f"cache purge: removed {removed} entr{'y' if removed == 1 else 'ies'}")
    return 0


def _cmd_lint_argv(lint_args: Sequence[str]) -> int:
    # Deferred import: the analysis package registers every rule pack on
    # import, which `repro figure` never needs.
    from .analysis.cli import main as lint_main

    return lint_main(lint_args)


def _cmd_lint(args: argparse.Namespace) -> int:
    return _cmd_lint_argv(args.lint_args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Random, Ephemeral Transaction Identifiers in "
        "Dynamic Sensor Networks' (ICDCS 2001)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="regenerate a paper figure (1-4)")
    fig.add_argument("number", type=int)
    fig.add_argument("--trials", type=_positive_int, default=3)
    fig.add_argument("--duration", type=_positive_float, default=20.0)
    fig.add_argument("--seed", type=int, default=0)
    _add_exec_flags(fig)
    fig.set_defaults(func=_cmd_figure)

    mod = sub.add_parser("model", help="query the analytic model")
    mod.add_argument("--data-bits", type=_non_negative_int, default=16)
    mod.add_argument("--density", type=_positive_float, default=16.0)
    mod.add_argument("--static-bits", type=_non_negative_int, default=16)
    mod.set_defaults(func=_cmd_model)

    val = sub.add_parser("validate", help="quick model-vs-simulation check")
    val.add_argument("--trials", type=_positive_int, default=2)
    val.add_argument("--duration", type=_positive_float, default=15.0)
    val.add_argument("--seed", type=int, default=0)
    _add_exec_flags(val)
    val.set_defaults(func=_cmd_validate)

    scen = sub.add_parser("scenario", help="run an extension scenario")
    scen.add_argument("name", choices=SCENARIO_NAMES)
    scen.add_argument("--duration", type=_positive_float, default=30.0)
    scen.add_argument("--seed", type=int, default=0)
    _add_exec_flags(scen)
    scen.set_defaults(func=_cmd_scenario)

    rep = sub.add_parser("report", help="write every figure + scenario to a dir")
    rep.add_argument("--output", default="repro-report")
    rep.add_argument("--trials", type=_positive_int, default=2)
    rep.add_argument("--duration", type=_positive_float, default=15.0)
    rep.add_argument("--seed", type=int, default=0)
    # Reports do not cache unless --cache-dir names a directory.
    _add_exec_flags(rep, default_cache=None)
    rep.set_defaults(func=_cmd_report)

    swp = sub.add_parser(
        "sweep",
        help="sweep collision trials over identifier sizes and densities",
    )
    swp.add_argument(
        "--id-bits", type=_int_list(0), default="3,4,5,6,8",
        help="comma-separated identifier sizes",
    )
    swp.add_argument(
        "--senders", type=_int_list(1), default="5",
        help="comma-separated sender counts",
    )
    swp.add_argument("--selector", choices=("uniform", "listening", "oracle"),
                     default="uniform")
    swp.add_argument("--trials", type=_positive_int, default=2)
    swp.add_argument("--duration", type=_positive_float, default=10.0)
    swp.add_argument("--seed", type=int, default=0)
    _add_exec_flags(swp)
    swp.set_defaults(func=_cmd_sweep)

    mc = sub.add_parser(
        "montecarlo",
        help="ground-truth collision trials, replicated across --workers",
    )
    mc.add_argument("--id-bits", type=_non_negative_int, default=8)
    mc.add_argument("--rate", type=_positive_float, default=5.0,
                    help="Poisson arrival rate (transactions/second)")
    mc.add_argument("--horizon", type=_positive_float, default=1000.0)
    mc.add_argument("--warmup", type=_number, default=0.0)
    mc.add_argument("--mean-duration", type=_positive_float, default=1.0)
    mc.add_argument("--fixed-duration", action="store_true",
                    help="constant durations (paper's same-length case) "
                    "instead of exponential")
    mc.add_argument("--trials", type=_positive_int, default=2)
    mc.add_argument("--seed", type=int, default=0)
    _add_exec_flags(mc)
    mc.set_defaults(func=_cmd_montecarlo)

    cch = sub.add_parser("cache", help="inspect or clean the result cache")
    cch.add_argument("action", choices=("stats", "gc", "purge"))
    cch.add_argument("--cache-dir", default=".repro-cache", metavar="DIR")
    cch.add_argument(
        "--max-bytes", type=_non_negative_int, default=None, metavar="N",
        help="with gc: evict least-recently-read entries until the "
        "cache is at most N bytes",
    )
    cch.add_argument(
        "--keep-current", action="store_true",
        help="gc policy: keep only entries written by the current "
        "repro version (the default and only policy)",
    )
    cch.set_defaults(func=_cmd_cache)

    met = sub.add_parser(
        "metrics",
        help="show, export, and diff deterministic metrics snapshots "
        "(repro.obs.metrics)",
    )
    # Deferred import, same pattern as obs below: the metrics CLI only
    # loads when the subcommand is actually built.
    from .obs.metrics_cli import configure_parser as _configure_metrics

    _configure_metrics(met)

    obs = sub.add_parser(
        "obs",
        help="record, summarize, and diff structured traces (repro.obs)",
    )
    # Deferred import: repro.obs.envelope pulls in the exec transport;
    # the obs CLI wires itself onto this parser to keep the dependency
    # one-directional at import time.
    from .obs.cli import configure_parser as _configure_obs

    _configure_obs(obs)

    flow = sub.add_parser(
        "flow",
        help="flow-level / hybrid-fidelity simulation of massive "
        "scenarios (repro.flow)",
    )
    # Deferred import, same reason as obs: the flow CLI pulls in the
    # exec and calibration layers, which `repro figure` never needs.
    from .flow.cli import configure_parser as _configure_flow

    _configure_flow(flow)

    lint = sub.add_parser(
        "lint",
        add_help=False,
        help=(
            "static analysis over the tree (alias for python -m "
            "repro.lint; try `repro lint --ranges --report`)"
        ),
    )
    # REMAINDER hands every following token — including --flags and -h —
    # straight to the lint CLI's own parser, so the two entry points
    # cannot drift apart.
    lint.add_argument("lint_args", nargs=argparse.REMAINDER)
    lint.set_defaults(func=_cmd_lint)

    sanitize = sub.add_parser(
        "sanitize",
        help=(
            "run the runtime determinism sanitizer (DetSan) over pinned "
            "scenarios, or cross-reference its evidence with static lint"
        ),
    )
    # Same deferred-import dance as obs: the sanitizer CLI pulls in the
    # exec layer and subprocess perturbers, none of which belongs in
    # the import cost of `repro figure`.
    from .analysis.sanitizer.cli import configure_parser as _configure_sanitize

    _configure_sanitize(sanitize)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(argv) if argv is not None else sys.argv[1:]
    # ``lint`` is routed before argparse: REMAINDER cannot capture
    # leading ``--flags`` (they would be rejected as unrecognized), and
    # the lint CLI owns its entire flag surface including -h.
    if arguments and arguments[0] == "lint":
        return _cmd_lint_argv(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    # ``--metrics PATH`` and ``--profile`` install their instruments
    # around the whole command (one slot, see repro.instruments):
    # subcommands read the installed profiler, and every TrialRunner
    # carries both into its trials and merges what they observed back.
    metrics_out = getattr(args, "metrics", None)
    with ExitStack() as stack:
        registry = stack.enter_context(collecting()) if metrics_out else None
        if getattr(args, "profile", False):
            stack.enter_context(profiling())
        code = args.func(args)
    if registry is not None:
        written = write_snapshot(metrics_out, registry)
        print(f"wrote {written} metric(s) to {metrics_out}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
