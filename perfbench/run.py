"""The repository benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig4_discrete --seed 1 --seconds 20 --trace 0

All load is closed-loop: each op starts when the previous one returns.
With ``--trace 0`` the run times ops for ``--seconds`` and prints the
end-to-end metrics.  With ``--trace 1`` it times a batch of ops
untraced, then the same ops again with every layer's public entry
points wrapped (see ``ledger.py``), and prints the per-layer self-time
table, which partitions the traced wall time.  Every op's output is
checked against ``reference.json``; a mismatch counts as a failed op.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a ``{"report": ...}`` object with host facts and detail.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-up is timed this many times per run (the run's own + probes)
SETUP_SAMPLES = 3
#: share of a traced run's seconds spent on the untraced pass
UNTRACED_SHARE = 0.45
#: ops beyond the reported tail percentile
TAIL_BEYOND = 10
#: timed ops after which peak RSS is read
RSS_AFTER_OPS = 2


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up, then print the set-up time (used by the run itself)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Run:
    """Ops executed and checked, with their timings."""

    def __init__(self, workload: Any) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.rates: List[float] = []
        self.latencies: List[float] = []
        self.counters: Dict[str, float] = {}
        self.checked: List[Tuple[Any, Any]] = []
        #: peak RSS once ``RSS_AFTER_OPS`` ops are timed, so the figure
        #: does not grow with run length when the program retains memory
        self.rss_mb: Optional[float] = None

    def op(self, op: Any, timed: bool = True) -> float:
        """Run and check one op; returns its seconds."""
        self.attempted += 1
        # Each op starts from a collected heap, so one op's garbage is
        # neither timed in the next nor piled into the peak RSS.
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = self.workload.run(op)
        except Exception as exc:  # an op that raises is a failed op
            seconds = time.perf_counter() - t0
            self.failed += 1
            self.problems.append(f"op {op!r} raised {type(exc).__name__}: {exc}")
            return seconds
        seconds = time.perf_counter() - t0
        check = self.workload.check(op, result)
        if not check.ok:
            self.failed += 1
            self.problems.append(check.problem)
            return seconds
        if timed:
            self.rates.append(check.work / seconds)
            self.latencies.append(seconds)
            for name, value in check.counters.items():
                self.counters[name] = self.counters.get(name, 0.0) + value
        self.checked.append((op, result))
        if timed and len(self.latencies) == RSS_AFTER_OPS:
            self.rss_mb = peak_rss_mb()
        return seconds

    def until(self, ops: Any, seconds: float) -> List[Any]:
        """Closed loop for ``seconds`` of op time; returns the ops run.

        The loop stops early rather than start an op expected to end
        more than half an op past the budget, so runs of long ops do not
        overshoot it by a whole op.
        """
        done: List[Any] = []
        spent = 0.0
        while not done or spent + 0.5 * spent / len(done) < seconds:
            op = next(ops)
            spent += self.op(op)
            done.append(op)
        return done

    def finish(self) -> None:
        problems = self.workload.check_run(self.checked)
        if problems:
            self.problems.extend(problems)
            self.failed += 1
        self.checked.clear()


# ----------------------------------------------------------------------
# Measurements
# ----------------------------------------------------------------------
def tail(latencies: List[float]) -> Tuple[float, float, int]:
    """(latency, percentile, ops beyond) at the highest percentile that
    leaves at least ``TAIL_BEYOND`` ops beyond it.  A run too short for
    that reports its upper median, the lowest point called a tail."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, n // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the peak of its worker children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def probe_setup(args: argparse.Namespace) -> Optional[float]:
    """Set-up time of a fresh process running the same workload."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-probe",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        return None
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def host_facts() -> Dict[str, Any]:
    facts: Dict[str, Any] = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    try:
        import numpy

        facts["numpy"] = numpy.__version__
    except ImportError:
        facts["numpy"] = None
    facts["git_revision"] = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        facts["git_revision"] = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    facts["src_sha256"] = digest.hexdigest()
    return facts


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def layer_table(ledger: Any, run: Run, wall: float, untraced_wall: float) -> Dict[str, float]:
    """Every per-layer metric from the traced pass."""
    import layers

    values: Dict[str, float] = {name: 0.0 for name, _unit in layers.PER_LAYER}
    for span, seconds in ledger.self_s.items():
        name = layers.self_metric(span)
        if name not in values:
            raise KeyError(f"span {span!r} books to unknown metric {name!r}")
        values[name] += seconds
    for span in layers.COUNTED_SPANS:
        values[f"{span}.calls"] = float(ledger.calls.get(span, 0))
    values["sim.engine.events"] = float(ledger.counts.get("sim.engine.events", 0))
    intros = ledger.counts.get("aff.intros_accepted", 0)
    values["aff.delivered_per_intro"] = (
        ledger.counts.get("aff.packets_delivered", 0) / intros if intros else 0.0
    )
    values.update(ledger.exec_metrics())
    counters = run.counters
    for name in ("radio.deliveries", "radio.rf_drops", "analysis.files"):
        values[name] = counters.get(name, 0.0)
    txn = counters.get("flow.txn", 0.0)
    values["flow.frame_txn_share"] = counters.get("flow.frame_txn", 0.0) / txn if txn else 0.0
    values["unaccounted_s"] = wall - ledger.top_s
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_ratio"] = wall / untraced_wall if untraced_wall > 0 else 0.0
    return values


def check_ledger(values: Dict[str, float], workload: str) -> List[str]:
    """The partition invariant and the layer exercise check."""
    import layers

    problems = []
    wall = values["trace.wall_s"]
    selfs = {k: v for k, v in values.items() if k.endswith(".self_s")}
    booked = sum(selfs.values()) + values["unaccounted_s"]
    if abs(booked - wall) > 1e-6 + 1e-9 * wall:
        problems.append(f"ledger: self times + unaccounted = {booked} != wall {wall}")
    if values["unaccounted_s"] < -1e-6 or min(selfs.values()) < -1e-6:
        problems.append("ledger: negative self or unaccounted time")
    shares: Dict[str, float] = {}
    for name, seconds in selfs.items():
        shares[layers.layer_of(name)] = shares.get(layers.layer_of(name), 0.0) + seconds / wall
    expect = layers.WORKLOADS[workload]
    main = expect["main"]
    top = max(shares, key=lambda layer: shares[layer])
    if top not in main:
        problems.append(f"layers: top self-time layer {top} is not one of {main}")
    if sum(shares.get(layer, 0.0) for layer in main) < 0.5:
        problems.append(f"layers: {main} carry under half of the traced wall")
    for layer in expect["bypass"]:
        if shares.get(layer, 0.0) > 0.01:
            problems.append(f"layers: bypassed layer {layer} books {shares[layer]:.3%}")
    if values["exec.dispatch_s"] > expect.get("max_dispatch_share", 1.0) * wall:
        problems.append(f"layers: exec.dispatch_s {values['exec.dispatch_s']} is not ~0")
    return problems


# ----------------------------------------------------------------------
def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOAD_TYPES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed, ROOT, workloads.load_reference())
    try:
        workload.setup()
        setup_s = time.perf_counter() - STARTED
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, workload, setup_s, layers)
    finally:
        workload.close()


def measure(args: argparse.Namespace, workload: Any, setup_s: float, layers: Any) -> int:
    import ledger as ledger_mod

    run = Run(workload)
    ops = workload.ops()
    if workload.warmup:
        run.op(next(ops), timed=False)
    report: Dict[str, Any] = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        batch = run.until(ops, args.seconds * UNTRACED_SHARE)
        untraced_wall = sum(run.latencies)
        run.latencies.clear()
        run.counters.clear()
        ledger = ledger_mod.Ledger()
        ledger_mod.install(ledger)
        try:
            for op in batch:
                run.op(op)
        finally:
            ledger.uninstall()
        wall = sum(run.latencies)
        run.finish()
        values = layer_table(ledger, run, wall, untraced_wall)
        run.problems.extend(check_ledger(values, args.workload))
        metrics = {name: metric(values[name], unit) for name, unit in layers.PER_LAYER}
        report.update(ops=len(batch), untraced_wall_s=untraced_wall, traced_wall_s=wall)
        report["fail_ratio"] = run.failed / max(run.attempted, 1)
    else:
        run.until(ops, args.seconds)
        run.finish()
        rss = run.rss_mb if run.rss_mb is not None else peak_rss_mb()
        samples = [setup_s] + [
            s for s in (probe_setup(args) for _ in range(SETUP_SAMPLES - 1)) if s is not None
        ]
        latencies = run.latencies or [0.0]
        tail_s, tail_pct, beyond = tail(latencies)
        values = {
            "work_per_s": statistics.median(run.rates or [0.0]),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_s,
            "peak_rss_mb": rss,
            "setup_s": statistics.median(samples),
        }
        units = {name: unit for name, unit, _better, _bound in layers.END_TO_END}
        metrics = {name: metric(values[name], units[name]) for name in units}
        rate = "files_per_s" if args.workload == "lint_tree" else "txn_per_s"
        report.update(
            ops=len(run.latencies),
            op_seconds=sum(run.latencies),
            op_tail_percentile=tail_pct,
            op_tail_ops_beyond=beyond,
            setup_samples=samples,
            fail_ratio=run.failed / max(run.attempted, 1),
        )
        report[rate] = values["work_per_s"]
    report["host"] = host_facts()
    report["problems"] = run.problems
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
