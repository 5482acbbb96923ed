"""Sharded flow execution: the window plan across ``TrialRunner`` workers.

Every window of a :class:`~repro.flow.streams.FlowScenario` draws only
from its own seed-derived RNG streams (``flow.window.<k>`` /
``flow.frame.<k>.*``), which makes window execution embarrassingly
parallel *and* bit-stable: any contiguous partition of the window plan,
executed in any process layout, reassembles into exactly the serial
result.  This module supplies that partition and reassembly:

* :func:`partition_plan` cuts the plan into ``min(shards, windows)``
  contiguous, non-empty, covering ranges, balanced by a per-window cost
  model (:func:`window_cost`: expected offered transactions, multiplied
  by :data:`FRAME_COST_FACTOR` for windows the fidelity mode escalates
  to frame replay) so one dense burst window does not serialize the
  run.
* :func:`window_range_trial` executes one range through the serial
  run's own window loop (:func:`repro.flow.hybrid.run_windows`) — a
  module-level function with plain-data arguments, so ranges fan out as
  ordinary :class:`~repro.exec.TrialSpec`\\ s through a
  :class:`~repro.exec.TrialRunner` (content-addressed cache, per-trial
  timeout/retry, worker telemetry all apply).
* :func:`simulate_sharded` partitions, fans out, and merges — the
  result is bit-identical to :func:`repro.flow.hybrid.simulate` at any
  ``(workers, shards)``.  :func:`simulate_traced` adds trace
  export: each range streams its records into its own shard file and
  the shards heap-merge through :mod:`repro.obs.merge` into one trace
  whose bytes are independent of the decomposition.

Seed and cache discipline: the per-window RNG streams derive from the
run seed *alone* — shard count must never enter seed derivation, or
sharded and serial runs could not agree bit-for-bit.  Aliasing is
instead prevented in the cache: a range trial's cache key
(:func:`range_trial_key`) includes the full scenario, the window range,
**and** the shard count, so decompositions that would disagree about
range boundaries never serve each other's cached results.  Ranges that export traces are never cached at all — a cache
hit would skip the side effect and leave a hole in the spool.
"""

from __future__ import annotations

import pathlib
import shutil
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from .. import __version__
from ..exec import ExecError, TrialRunner, TrialSpec, trial_key
from ..obs.envelope import TraceWriter
from ..obs.merge import collect_shards, merge_shards
from ..obs.spans import span
from ..sim.rng import RngRegistry
from .hybrid import (  # noqa: F401 - perfbench wraps shard.frame_window
    DEFAULT_SWITCH_THRESHOLD,
    FIDELITY_MODES,
    frame_window,
    run_windows,
    wants_frame,
)
from .sampler import (  # noqa: F401 - perfbench wraps shard.sample_window
    FlowResult,
    WindowOutcome,
    WindowSpec,
    sample_window,
    window_plan,
)
from .streams import FlowScenario

__all__ = [
    "FRAME_COST_FACTOR",
    "WindowRange",
    "merge_range_values",
    "partition_plan",
    "range_trial_key",
    "simulate_sharded",
    "simulate_traced",
    "window_cost",
    "window_range_trial",
]

PathLike = Union[str, pathlib.Path]

#: Relative cost of simulating one transaction at frame fidelity vs
#: drawing it at flow fidelity.  Frame replay generates per-stream
#: arrivals and samples an identifier per transaction, then flags the
#: window's arrivals in one batch (``_collision_flags``), where the flow
#: sampler spends one uniform draw — roughly an order of magnitude, and
#: only the *balance* between ranges depends on it, never a result.
FRAME_COST_FACTOR = 12.0

#: Fully qualified trial-function name used in cache-key material.
_RANGE_TRIAL_FN = "repro.flow.shard.window_range_trial"


@dataclass(frozen=True)
class WindowRange:
    """One contiguous range ``[lo, hi)`` of the window plan."""

    lo: int
    hi: int
    cost: float

    @property
    def windows(self) -> int:
        return self.hi - self.lo


def window_cost(
    spec: WindowSpec,
    fidelity: str = "flow",
    switch_threshold: float = DEFAULT_SWITCH_THRESHOLD,
) -> float:
    """Relative execution cost of one window under ``fidelity``.

    Expected offered transactions (``rate × width``) plus a constant
    floor, scaled by :data:`FRAME_COST_FACTOR` when the fidelity mode
    would escalate the window to frame replay.
    """
    cost = spec.arrival_rate * spec.width + 1.0
    if wants_frame(fidelity, spec, switch_threshold):
        cost *= FRAME_COST_FACTOR
    return cost


def partition_plan(
    plan: Sequence[WindowSpec],
    shards: int,
    fidelity: str = "flow",
    switch_threshold: float = DEFAULT_SWITCH_THRESHOLD,
) -> List[WindowRange]:
    """Cut ``plan`` into contiguous ranges for ``shards`` workers.

    Exactly ``min(shards, len(plan))`` non-empty ranges that cover the
    plan in order, balanced by summed :func:`window_cost`: each range
    is cut at the first window where the running cost crosses its
    proportional share — with a forced cut whenever the remaining
    windows are only just enough to keep the remaining ranges
    non-empty.  A pure function of its arguments, so every
    decomposition of a run is reproducible from ``(scenario, shards)``
    alone.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    n = len(plan)
    if n == 0:
        return []
    count = min(shards, n)
    costs = [
        window_cost(spec, fidelity=fidelity, switch_threshold=switch_threshold)
        for spec in plan
    ]
    total = sum(costs)
    bounds = [0]
    acc = 0.0
    for i, cost in enumerate(costs):
        acc += cost
        cuts_made = len(bounds) - 1
        if cuts_made == count - 1:
            break
        windows_left = n - (i + 1)
        ranges_left = count - cuts_made
        if windows_left == ranges_left - 1:
            bounds.append(i + 1)
        elif acc >= total * (cuts_made + 1) / count:
            bounds.append(i + 1)
    bounds.append(n)
    return [
        WindowRange(lo=lo, hi=hi, cost=sum(costs[lo:hi]))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def window_range_trial(
    scenario: FlowScenario,
    seed: int,
    lo: int,
    hi: int,
    fidelity: str = "flow",
    switch_threshold: float = DEFAULT_SWITCH_THRESHOLD,
    model: str = "mixed",
    trace_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Execute windows ``[lo, hi)`` of the scenario's plan.

    The building block of a sharded run: draws exactly the streams the
    serial run would use for these windows (``RngRegistry(seed)``
    derivation is positional, so execution order across ranges is
    irrelevant).  Returns the window outcomes as plain JSON rows,
    reassembled by :func:`merge_range_values`.

    With ``trace_path`` the range streams its records as one shard of
    the run's trace (see :func:`repro.flow.hybrid.run_windows`).
    Record times are non-decreasing within the shard and strictly
    bounded by the range's window edges, which is what lets
    :func:`repro.obs.merge.merge_shards` reproduce the serial emission
    order exactly.
    """
    plan = window_plan(scenario)
    if not 0 <= lo <= hi <= len(plan):
        raise ValueError(
            f"window range [{lo}, {hi}) outside plan of {len(plan)} window(s)"
        )
    writer: Optional[TraceWriter] = None
    if trace_path is not None:
        writer = TraceWriter(trace_path, meta={"windows": [lo, hi]})
    try:
        outcomes = run_windows(
            scenario,
            plan[lo:hi],
            RngRegistry(seed),
            fidelity,
            switch_threshold,
            model,
            writer=writer,
        )
        if writer is not None:
            writer.close()
    except BaseException:
        if writer is not None:
            writer.abort()
        raise
    return {
        "windows": [
            [o.index, o.fidelity, o.transactions, o.collisions, o.density]
            for o in outcomes
        ]
    }


def range_trial_key(
    scenario: FlowScenario,
    seed: int,
    lo: int,
    hi: int,
    shards: int,
    fidelity: str,
    switch_threshold: float,
    model: str,
) -> str:
    """Cache key of one range trial.

    Includes the full scenario, the range, and — deliberately — the
    shard count that produced the range, so no two decompositions of a
    run can alias in the cache even where their range boundaries happen
    to coincide (``tests/test_flow_shard.py`` pins this).
    """
    params = {
        "scenario": scenario,
        "lo": lo,
        "hi": hi,
        "shards": shards,
        "fidelity": fidelity,
        "switch_threshold": switch_threshold,
        "model": model,
    }
    return trial_key(_RANGE_TRIAL_FN, params, seed, __version__)


def merge_range_values(
    values: Sequence[Mapping[str, Any]], expected_windows: Optional[int] = None
) -> FlowResult:
    """Reassemble range-trial payloads into one :class:`FlowResult`.

    Rows sort by window index (ranges arrive in order already; the sort
    makes the merge independent of spec ordering), and when
    ``expected_windows`` is given the merged sequence must cover every
    window exactly once — a decomposition bug surfaces as an
    :class:`~repro.exec.ExecError`, never as silently shifted totals.
    """
    outcomes: List[WindowOutcome] = []
    for value in values:
        for row in value["windows"]:
            index, fidelity, transactions, collisions, density = row
            outcomes.append(
                WindowOutcome(
                    index=int(index),
                    fidelity=str(fidelity),
                    transactions=int(transactions),
                    collisions=int(collisions),
                    density=float(density),
                )
            )
    outcomes.sort(key=lambda outcome: outcome.index)
    if expected_windows is not None:
        indices = [outcome.index for outcome in outcomes]
        if indices != list(range(expected_windows)):
            raise ExecError(
                f"sharded flow run covered windows {indices!r}, "
                f"expected 0..{expected_windows - 1} exactly once"
            )
    return FlowResult(
        transactions=sum(o.transactions for o in outcomes),
        collisions=sum(o.collisions for o in outcomes),
        windows=tuple(outcomes),
    )


def simulate_sharded(
    scenario: FlowScenario,
    seed: int,
    fidelity: str = "flow",
    switch_threshold: float = DEFAULT_SWITCH_THRESHOLD,
    model: str = "mixed",
    shards: Optional[int] = None,
    runner: Optional[TrialRunner] = None,
    trace_spool: Optional[PathLike] = None,
) -> FlowResult:
    """Run ``scenario`` sharded across a :class:`TrialRunner`.

    Bit-identical to :func:`repro.flow.hybrid.simulate` of the same
    ``(scenario, seed, fidelity, switch_threshold, model)`` at every
    ``(shards, workers)`` combination — the decomposition is
    an execution detail, never part of a result's identity.  ``shards``
    defaults to the runner's worker count.  With ``trace_spool`` each
    range streams its trace shard into the directory as
    ``windows-<lo>.jsonl`` (sorted name order == range order, which
    :func:`repro.obs.merge.collect_shards` relies on); tracing ranges
    are exempt from the result cache.
    """
    if fidelity not in FIDELITY_MODES:
        raise ValueError(f"unknown fidelity {fidelity!r}")
    if not switch_threshold > 0:
        raise ValueError("switch_threshold must be positive")
    runner = runner if runner is not None else TrialRunner()
    if shards is None:
        shards = max(runner.workers, 1)
    plan = window_plan(scenario)
    with span("flow.partition"):
        ranges = partition_plan(
            plan,
            shards,
            fidelity=fidelity,
            switch_threshold=switch_threshold,
        )
    spool: Optional[pathlib.Path] = None
    if trace_spool is not None:
        spool = pathlib.Path(trace_spool)
        spool.mkdir(parents=True, exist_ok=True)
    specs: List[TrialSpec] = []
    for window_range in ranges:
        kwargs: Dict[str, Any] = dict(
            scenario=scenario,
            seed=seed,
            lo=window_range.lo,
            hi=window_range.hi,
            fidelity=fidelity,
            switch_threshold=switch_threshold,
            model=model,
        )
        key: Optional[str] = None
        if spool is not None:
            kwargs["trace_path"] = str(
                spool / f"windows-{window_range.lo:08d}.jsonl"
            )
        elif runner.cache is not None:
            key = range_trial_key(
                scenario,
                seed,
                window_range.lo,
                window_range.hi,
                shards=shards,
                fidelity=fidelity,
                switch_threshold=switch_threshold,
                model=model,
            )
        specs.append(
            TrialSpec(
                fn=window_range_trial,
                kwargs=kwargs,
                label=f"flow-range:{window_range.lo}:{window_range.hi}",
                cache_key=key,
            )
        )
    outcomes = runner.run(specs)
    failed = [outcome.failure for outcome in outcomes if not outcome.ok]
    if failed:
        first = failed[0].render() if failed[0] else "unknown"
        raise ExecError(
            f"sharded flow run lost {len(failed)}/{len(specs)} range(s); "
            f"first: {first}"
        )
    with span("flow.merge"):
        return merge_range_values(
            [outcome.value for outcome in outcomes],
            expected_windows=len(plan),
        )


def _trace_meta(
    scenario: FlowScenario,
    seed: int,
    fidelity: str,
    switch_threshold: float,
    model: str,
) -> Dict[str, Any]:
    """Merged-trace header metadata.

    Run identity only — shard and worker counts are deliberately
    absent so decompositions of one run produce byte-identical merged
    traces.
    """
    return {
        "scenario": "flow",
        "id_bits": scenario.id_bits,
        "horizon": scenario.horizon,
        "window": scenario.window,
        "streams": [stream.label for stream in scenario.streams],
        "seed": seed,
        "fidelity": fidelity,
        "switch_threshold": switch_threshold,
        "model": model,
    }


def simulate_traced(
    scenario: FlowScenario,
    seed: int,
    trace_path: PathLike,
    fidelity: str = "flow",
    switch_threshold: float = DEFAULT_SWITCH_THRESHOLD,
    model: str = "mixed",
    shards: Optional[int] = None,
    runner: Optional[TrialRunner] = None,
) -> FlowResult:
    """Sharded run plus a merged trace at ``trace_path``.

    Range shards spool next to the target (``<trace>.spool/``), merge
    through :func:`repro.obs.merge.merge_shards`, and the spool is
    removed; the merged bytes are a pure function of the run identity,
    so ``repro obs diff`` across worker/shard counts is the end-to-end
    bit-identity gate.  A spool left behind by a killed run is cleared
    first, so none of its shards reach the merge.
    """
    target = pathlib.Path(trace_path)
    target.parent.mkdir(parents=True, exist_ok=True)
    spool = target.with_name(target.name + ".spool")
    shutil.rmtree(spool, ignore_errors=True)
    spool.mkdir()
    try:
        result = simulate_sharded(
            scenario,
            seed,
            fidelity=fidelity,
            switch_threshold=switch_threshold,
            model=model,
            shards=shards,
            runner=runner,
            trace_spool=spool,
        )
        merge_shards(
            collect_shards(spool),
            target,
            meta=_trace_meta(scenario, seed, fidelity, switch_threshold, model),
        )
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    return result
