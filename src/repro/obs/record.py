"""Drive a scenario and export its trace (``repro obs record``).

Two recordable scenarios:

* ``montecarlo`` — the ground-truth collision sampler
  (:func:`repro.core.montecarlo.simulate_collision_rate`) with its
  ``trace_path`` export: the ``txn.begin`` / ``txn.end`` stream merged
  in time order with the ``txn.collision`` stream, a pure function of
  the run's parameters and seed.
* ``collision`` — one Section 5.1 validation trial
  (:func:`repro.experiments.harness.run_collision_trial`) with a real
  :class:`~repro.sim.trace.TraceRecorder` attached to the broadcast
  medium, exporting the ``frame.tx`` / ``frame.rx`` / ``frame.drop``
  stream.

Heavy imports are deferred into the functions: this module sits above
the scenario layers and is imported by the CLI on every invocation.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, Optional, Union

from .envelope import read_header, read_trace, write_trace

__all__ = [
    "record_collision",
    "record_montecarlo",
    "summarize_trace",
    "write_summary",
]

PathLike = Union[str, pathlib.Path]


def record_montecarlo(
    out: PathLike,
    id_bits: int = 8,
    rate: float = 5.0,
    horizon: float = 100.0,
    warmup: float = 0.0,
    mean_duration: float = 1.0,
    fixed_duration: bool = False,
    seed: int = 0,
) -> Dict[str, Any]:
    """Run one Monte Carlo trial, exporting its trace to ``out``.

    Returns the scenario's result as a JSON-safe dict.
    """
    from ..core.montecarlo import (
        ExponentialDuration,
        FixedDuration,
        simulate_collision_rate,
    )

    sampler = (
        FixedDuration(mean_duration)
        if fixed_duration
        else ExponentialDuration(mean_duration)
    )
    target = pathlib.Path(out)
    target.parent.mkdir(parents=True, exist_ok=True)
    result = simulate_collision_rate(
        id_bits,
        rate,
        sampler,
        horizon=horizon,
        warmup=warmup,
        seed=seed,
        trace_path=str(target),
    )
    return {
        "scenario": "montecarlo",
        "transactions": result.transactions,
        "collision_rate": result.collision_rate,
        "measured_density": result.measured_density,
    }


def record_collision(
    out: PathLike,
    id_bits: int = 4,
    n_senders: int = 5,
    duration: float = 10.0,
    selector: str = "uniform",
    seed: int = 0,
) -> Dict[str, Any]:
    """Run one collision-measurement trial, exporting its frame trace."""
    from ..experiments.harness import CollisionTrialConfig, run_collision_trial
    from ..sim.trace import TraceRecorder

    config = CollisionTrialConfig(
        id_bits=id_bits,
        n_senders=n_senders,
        duration=duration,
        selector=selector,
        seed=seed,
    )
    recorder = TraceRecorder()
    result = run_collision_trial(config, recorder=recorder)
    meta = {
        "scenario": "collision",
        "id_bits": id_bits,
        "n_senders": n_senders,
        "duration": duration,
        "selector": selector,
        "seed": seed,
    }
    target = pathlib.Path(out)
    target.parent.mkdir(parents=True, exist_ok=True)
    write_trace(target, iter(recorder), meta=meta)
    return {
        "scenario": "collision",
        "packets_offered": result.packets_offered,
        "received_unique": result.received_unique,
        "would_be_lost": result.would_be_lost,
        "collision_loss_rate": result.collision_loss_rate,
        "measured_density": result.measured_density,
    }


def summarize_trace(path: PathLike) -> Dict[str, Any]:
    """Streaming summary of a trace: meta, counts per category, time span."""
    header = read_header(path)
    categories: Dict[str, int] = {}
    records = 0
    first: Optional[float] = None
    last: Optional[float] = None
    for record in read_trace(path):
        records += 1
        categories[record.category] = categories.get(record.category, 0) + 1
        if first is None:
            first = record.time
        last = record.time
    return {
        "meta": header.get("meta", {}),
        "writer": header.get("writer"),
        "records": records,
        "categories": {name: categories[name] for name in sorted(categories)},
        "time_span": (
            {"first": first, "last": last} if first is not None else None
        ),
    }


def write_summary(
    path: PathLike,
    trace_path: PathLike,
    result: Dict[str, Any],
    spans: Optional[Dict[str, Dict[str, float]]] = None,
) -> Dict[str, Any]:
    """Write an ``obs-summary`` envelope next to a recorded trace.

    Combines the trace's streaming summary with the scenario result and
    (when profiling was on) the merged span table + per-layer breakdown.
    """
    from ..experiments.persistence import save_envelope
    from .spans import layer_breakdown

    payload: Dict[str, Any] = {
        "trace": str(trace_path),
        "result": result,
        **summarize_trace(trace_path),
    }
    if spans:
        payload["spans"] = spans
        payload["layer_times"] = {
            layer: round(total, 6)
            for layer, total in layer_breakdown(spans).items()
        }
    save_envelope(path, "obs-summary", payload)
    return payload
