"""Hybrid fidelity: frame-level simulation inside contended windows.

The flow sampler is exact in expectation but summarises each window by
its analytic collision probability; inside heavily contended
neighbourhoods (density near or past the identifier space's capacity)
the frame-level discrete-event core is the ground truth worth paying
for.  :func:`simulate` runs one scenario at a chosen fidelity:

``flow``
    every window sampled analytically (:mod:`repro.flow.sampler`);
``frame``
    every window's arrivals and identifiers drawn in bulk by the Monte
    Carlo ground truth's kernels and flagged in one batch by its
    collision kernel (:func:`repro.core.montecarlo._collision_flags`);
``hybrid``
    windows whose offered density reaches ``switch_threshold`` drop to
    frame fidelity, the rest stay flow-level, and the outcomes stitch
    back into one timeline.

The stitching contract is seed isolation: every window — flow or frame
— draws only from its own ``RngRegistry(seed)`` streams
(``flow.window.<k>`` for sampling, ``flow.frame.<k>.*`` for the
frame-level draws), so a hybrid run's frame windows are **bit-identical**
to the same windows of an all-frame run of the same ``(scenario,
seed)``, and escalating one window never perturbs another.  The one
approximation hybrid accepts is the window boundary itself: a
transaction spanning a cut contends only inside its own window, so
windows should be sized at least several transaction durations wide
(the default scenarios are hundreds of durations wide).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..core.identifiers import IdentifierSpace
from ..core.montecarlo import (
    FixedDuration,
    _collision_flags,
    _draw_identifiers,
    _generate_arrivals,
)
from ..obs.envelope import TraceWriter
from ..obs.metrics import active_metrics
from ..obs.spans import span
from ..sim.rng import RngRegistry
from .sampler import FlowResult, WindowOutcome, WindowSpec, sample_window, window_plan
from .streams import FlowScenario

__all__ = ["FIDELITY_MODES", "frame_window", "run_windows", "simulate", "wants_frame"]

#: Supported fidelity modes, in increasing cost order.
FIDELITY_MODES: Tuple[str, ...] = ("flow", "hybrid", "frame")

#: Default density at which hybrid escalates a window to frame
#: fidelity: past ~8 concurrent transactions, small identifier spaces
#: are deep into the collision knee where the analytic model's
#: worst-case overlap count matters most.
DEFAULT_SWITCH_THRESHOLD = 8.0


def frame_window(
    scenario: FlowScenario,
    spec: WindowSpec,
    registry: RngRegistry,
    writer: Optional[TraceWriter] = None,
) -> WindowOutcome:
    """Simulate one window at frame-level fidelity.

    Per-stream Poisson arrivals are generated inside the window's
    active overlap from the stream ``flow.frame.<k>.arrivals.<label>``,
    merged in time order (ties break by the scenario's stream order),
    identifiers drawn in merged arrival order from
    ``flow.frame.<k>.identifiers``, and every arrival flagged by
    :func:`repro.core.montecarlo._collision_flags` — the same collision
    criterion, tie rules and all, as the Monte Carlo ground truth.
    Both draws are bulk (:func:`repro.core.montecarlo._generate_arrivals`
    with a :class:`~repro.core.montecarlo.FixedDuration`, and
    :func:`repro.core.montecarlo._draw_identifiers`, via
    :mod:`repro.sim.bulk`), bit-identical to drawing one arrival and one
    identifier at a time, which they do instead under DetSan; the arrays
    stay NumPy from the draw to the collision kernel.

    With ``writer`` the window streams one record per transaction in
    arrival order (strictly inside ``(t0, t1)``, so a range shard's
    records stay time-sorted around the window boundary records the
    caller emits at ``t0``/``t1``).
    """
    starts: List[np.ndarray] = [np.zeros(0)]
    durations: List[np.ndarray] = [np.zeros(0)]
    for stream in scenario.streams:
        lo = max(spec.t0, stream.start)
        hi = min(spec.t1, stream.stop)
        if hi <= lo or stream.arrival_rate <= 0:
            continue
        rng = registry.stream(f"flow.frame.{spec.index}.arrivals.{stream.label}")
        times, lengths = _generate_arrivals(
            stream.arrival_rate, FixedDuration(stream.duration), rng, lo, hi
        )
        starts.append(times)
        durations.append(lengths)
    # A stable sort of the stream-ordered concatenation breaks time ties
    # by stream order.
    begin = np.concatenate(starts)
    merged = np.argsort(begin, kind="stable")
    begin = begin[merged]
    id_rng = registry.stream(f"flow.frame.{spec.index}.identifiers")
    identifiers = _draw_identifiers(
        IdentifierSpace(scenario.id_bits), id_rng, len(begin)
    )
    flags = _collision_flags(begin, np.concatenate(durations)[merged], identifiers)
    if writer is not None:
        for when, ident, collided in zip(
            begin.tolist(), identifiers.tolist(), flags.tolist()
        ):
            writer.emit(
                when,
                "flow.txn",
                window=spec.index,
                identifier=ident,
                collided=collided,
            )
    return WindowOutcome(
        index=spec.index,
        fidelity="frame",
        transactions=len(identifiers),
        collisions=int(np.count_nonzero(flags)),
        density=spec.density,
    )


def wants_frame(
    fidelity: str, spec: WindowSpec, switch_threshold: float
) -> bool:
    """Whether ``spec`` escalates to frame fidelity under ``fidelity``.

    Shared with the shard partitioner's cost model
    (:func:`repro.flow.shard.window_cost`), so partitioning and
    execution always agree on which windows pay the frame-replay cost.
    """
    if fidelity == "frame":
        return True
    if fidelity == "hybrid":
        return spec.density >= switch_threshold
    return False


def run_windows(
    scenario: FlowScenario,
    plan: Iterable[WindowSpec],
    registry: RngRegistry,
    fidelity: str,
    switch_threshold: float,
    model: str,
    writer: Optional[TraceWriter] = None,
) -> List[WindowOutcome]:
    """Execute the windows of ``plan`` in order: the one per-window loop.

    :func:`simulate` runs it over the whole plan and
    :func:`repro.flow.shard.window_range_trial` over one range, so the
    summed ``flow.*`` counters and spans of a sharded run equal the
    serial run's exactly.  With ``writer`` each window also streams a
    ``flow.window`` record at ``t0`` (offered load and the fidelity
    decision), its frame transactions, and a ``flow.outcome`` record at
    ``t1`` carrying the window's counts.
    """
    metrics = active_metrics()
    outcomes: List[WindowOutcome] = []
    for spec in plan:
        escalate = wants_frame(fidelity, spec, switch_threshold)
        if metrics is not None:
            metrics.inc("flow.windows")
            if escalate:
                metrics.inc("flow.escalations")
        if writer is not None:
            writer.emit(
                spec.t0,
                "flow.window",
                window=spec.index,
                fidelity="frame" if escalate else "flow",
                arrival_rate=spec.arrival_rate,
                density=spec.density,
            )
        if escalate:
            with span("flow.frame"):
                outcome = frame_window(scenario, spec, registry, writer=writer)
        else:
            with span("flow.sample"):
                rng = registry.stream(f"flow.window.{spec.index}")
                outcome = sample_window(spec, scenario.id_bits, rng, model)
        if metrics is not None:
            metrics.inc("flow.transactions", outcome.transactions)
            metrics.inc("flow.collisions", outcome.collisions)
        if writer is not None:
            writer.emit(
                spec.t1,
                "flow.outcome",
                window=spec.index,
                transactions=outcome.transactions,
                collisions=outcome.collisions,
            )
        outcomes.append(outcome)
    return outcomes


def simulate(
    scenario: FlowScenario,
    seed: int,
    fidelity: str = "flow",
    switch_threshold: float = DEFAULT_SWITCH_THRESHOLD,
    model: str = "mixed",
) -> FlowResult:
    """Run ``scenario`` at the requested fidelity.

    The result is a pure function of every argument; worker count,
    profiling, and which *other* windows escalated never change a
    window's outcome (see module docstring).  ``switch_threshold`` only
    participates under ``fidelity="hybrid"`` but is always part of the
    run's identity — cache keys must include both (satellite rule
    SEED002 covers the wiring in :mod:`repro.flow.calibrate`).
    """
    if fidelity not in FIDELITY_MODES:
        raise ValueError(f"unknown fidelity {fidelity!r}")
    if not switch_threshold > 0:
        raise ValueError("switch_threshold must be positive")
    outcomes = run_windows(
        scenario,
        window_plan(scenario),
        RngRegistry(seed),
        fidelity,
        switch_threshold,
        model,
    )
    return FlowResult(
        transactions=sum(w.transactions for w in outcomes),
        collisions=sum(w.collisions for w in outcomes),
        windows=tuple(outcomes),
    )

