"""Calibration of the flow-level sampler against the discrete core.

Runs both cores over the Figure-4 grid — identifier sizes ``H`` times
transaction densities ``T`` — and reports the per-point divergence of
their mean collision rates.  The flow side samples
:func:`repro.flow.streams.figure4_scenario` through
:func:`repro.flow.hybrid.simulate`; the discrete side is
:func:`repro.core.montecarlo.replicate_collision_rate` with the same
``FixedDuration(1.0)`` workload.  Under the default ``mixed`` collision
model the flow sampler's per-transaction collision probability is exact
for the Poisson ground truth, so the divergence budget covers sampling
noise only — a point outside tolerance means a model or wiring
regression, not statistics.

Replicates follow the exec layer's trial conventions: per-replicate
seeds from ``derive_trial_seed(base_seed, point, k)``, fan-out across a
:class:`repro.exec.TrialRunner`, and content-addressed caching keyed by
the *full* trial identity.  The cache-key material deliberately
includes the fidelity mode, switch threshold, and collision model —
flow, frame and hybrid runs of one grid point are different
experiments and must never alias in the cache (rule SEED002 and
``tests/test_flow_calibrate.py`` both pin this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import __version__
from ..core.model import collision_probability_mixed
from ..core.montecarlo import FixedDuration, replicate_collision_rate
from ..exec import (
    TrialRunner,
    TrialSpec,
    canonical_point,
    derive_trial_seed,
    trial_key,
)
from ..experiments.figures import FIG4_DEFAULT_ID_BITS
from .hybrid import DEFAULT_SWITCH_THRESHOLD, simulate
from .sampler import window_plan
from .shard import (
    merge_range_values,
    partition_plan,
    range_trial_key,
    window_range_trial,
)
from .streams import figure4_scenario

__all__ = [
    "CalibrationPoint",
    "CalibrationReport",
    "DEFAULT_DENSITIES",
    "DEFAULT_TOLERANCE",
    "calibrate",
    "replicate_flow",
]

#: Densities of the calibration grid: the paper's Figure-4 operating
#: point (T=5) bracketed by a light and a heavy load.
DEFAULT_DENSITIES: Tuple[float, ...] = (2.0, 5.0, 16.0)

#: Default absolute collision-rate divergence budget.  Under the
#: ``mixed`` model both cores estimate the same quantity, so this is a
#: pure sampling-noise allowance (several standard errors at the
#: default horizon/trials).
DEFAULT_TOLERANCE = 0.05

#: Fully qualified trial-function name used in cache-key material.
_FLOW_TRIAL_FN = "repro.flow.calibrate.flow_collision_trial"


def _flow_trial(
    id_bits: int,
    density: float,
    horizon: float,
    window: float,
    fidelity: str,
    switch_threshold: float,
    model: str,
    seed: int,
) -> Dict[str, float]:
    """One seeded flow-level replicate of a Figure-4 grid point."""
    scenario = figure4_scenario(id_bits, density, horizon=horizon, window=window)
    result = simulate(
        scenario,
        seed,
        fidelity=fidelity,
        switch_threshold=switch_threshold,
        model=model,
    )
    return {
        "transactions": float(result.transactions),
        "collisions": float(result.collisions),
        "collision_rate": result.collision_rate,
        "frame_windows": float(result.frame_windows),
    }


def _sharded_flow_results(
    id_bits: int,
    density: float,
    trials: int,
    base_seed: int,
    horizon: float,
    window: float,
    fidelity: str,
    switch_threshold: float,
    model: str,
    runner: TrialRunner,
    flow_shards: int,
    point: str,
) -> List[Dict[str, float]]:
    """Replicate results via sharded window-range trials.

    Bit-identical to the serial :func:`_flow_trial` path: replicate
    seeds derive from the *unchanged* canonical point (the shard count
    never touches seed derivation), and the merged
    per-replicate windows equal the serial run's exactly.  The shard
    count enters only the range cache keys
    (:func:`repro.flow.shard.range_trial_key`), so different
    decompositions never alias in the cache.
    """
    scenario = figure4_scenario(id_bits, density, horizon=horizon, window=window)
    plan = window_plan(scenario)
    ranges = partition_plan(
        plan,
        flow_shards,
        fidelity=fidelity,
        switch_threshold=switch_threshold,
    )
    specs: List[TrialSpec] = []
    owners: List[int] = []
    for k in range(trials):
        seed = derive_trial_seed(base_seed, point, k)
        for window_range in ranges:
            key = None
            if runner.cache is not None:
                key = range_trial_key(
                    scenario,
                    seed,
                    window_range.lo,
                    window_range.hi,
                    shards=flow_shards,
                    fidelity=fidelity,
                    switch_threshold=switch_threshold,
                    model=model,
                )
            specs.append(
                TrialSpec(
                    fn=window_range_trial,
                    kwargs=dict(
                        scenario=scenario,
                        seed=seed,
                        lo=window_range.lo,
                        hi=window_range.hi,
                        fidelity=fidelity,
                        switch_threshold=switch_threshold,
                        model=model,
                    ),
                    label=(
                        f"flow:{id_bits}b:T{density}#{k}"
                        f":w{window_range.lo}-{window_range.hi}"
                    ),
                    cache_key=key,
                )
            )
            owners.append(k)
    outcomes = runner.run(specs)
    results: List[Dict[str, float]] = []
    for k in range(trials):
        values = [
            outcome.value
            for outcome, owner in zip(outcomes, owners)
            if owner == k and outcome.ok
        ]
        if len(values) != len(ranges):
            # A lost range makes the replicate unmergeable; drop it the
            # way the serial path drops a failed trial.
            continue
        merged = merge_range_values(values, expected_windows=len(plan))
        results.append(
            {
                "transactions": float(merged.transactions),
                "collisions": float(merged.collisions),
                "collision_rate": merged.collision_rate,
                "frame_windows": float(merged.frame_windows),
            }
        )
    return results


def replicate_flow(
    id_bits: int,
    density: float,
    trials: int = 3,
    base_seed: int = 0,
    horizon: float = 300.0,
    window: float = 25.0,
    fidelity: str = "flow",
    switch_threshold: float = DEFAULT_SWITCH_THRESHOLD,
    model: str = "mixed",
    runner: Optional[TrialRunner] = None,
    flow_shards: Optional[int] = None,
) -> Tuple[float, float, List[Dict[str, float]]]:
    """Replicated flow-level collision rate: ``(mean, stdev, results)``.

    Mirrors :func:`repro.core.montecarlo.replicate_collision_rate`:
    replicate ``k`` runs from ``derive_trial_seed(base_seed, point, k)``
    and fans out across the runner's workers.  The canonical point —
    and therefore both the derived seeds and the cache keys — includes
    ``fidelity``, ``switch_threshold`` and ``model``, so runs that
    differ only in fidelity can never collide in the cache.

    With ``flow_shards`` each replicate additionally shards its window
    plan into that many cost-balanced ranges (see
    :func:`repro.flow.shard.partition_plan`), fanning the ranges — not
    just the replicates — across the runner's workers.  Results are
    bit-identical either way.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    runner = runner if runner is not None else TrialRunner()
    point_params = {
        "id_bits": id_bits,
        "density": density,
        "horizon": horizon,
        "window": window,
        "fidelity": fidelity,
        "switch_threshold": switch_threshold,
        "model": model,
    }
    point = canonical_point(point_params)
    results: List[Dict[str, float]]
    if flow_shards is not None:
        results = _sharded_flow_results(
            id_bits,
            density,
            trials,
            base_seed,
            horizon,
            window,
            fidelity,
            switch_threshold,
            model,
            runner,
            flow_shards,
            point,
        )
    else:
        specs: List[TrialSpec] = []
        for k in range(trials):
            seed = derive_trial_seed(base_seed, point, k)
            key = None
            if runner.cache is not None:
                key = trial_key(
                    _FLOW_TRIAL_FN, dict(point_params), seed, __version__
                )
            specs.append(
                TrialSpec(
                    fn=_flow_trial,
                    kwargs=dict(
                        id_bits=id_bits,
                        density=density,
                        horizon=horizon,
                        window=window,
                        fidelity=fidelity,
                        switch_threshold=switch_threshold,
                        model=model,
                        seed=seed,
                    ),
                    label=f"flow:{id_bits}b:T{density}#{k}",
                    cache_key=key,
                )
            )
        outcomes = runner.run(specs)
        results = [dict(outcome.value) for outcome in outcomes if outcome.ok]
    rates = [
        r["collision_rate"]
        for r in results
        if not math.isnan(r["collision_rate"])
    ]
    if not rates:
        return float("nan"), float("nan"), results
    mean = sum(rates) / len(rates)
    if len(rates) > 1:
        var = sum((r - mean) ** 2 for r in rates) / (len(rates) - 1)
        stdev = math.sqrt(var)
    else:
        stdev = 0.0
    return mean, stdev, results


@dataclass(frozen=True)
class CalibrationPoint:
    """Flow-vs-discrete comparison at one ``(H, T)`` grid point."""

    id_bits: int
    density: float
    flow_rate: float
    flow_stdev: float
    discrete_rate: float
    discrete_stdev: float
    model_rate: float

    @property
    def divergence(self) -> float:
        """Absolute flow-vs-discrete collision-rate gap."""
        if math.isnan(self.flow_rate) or math.isnan(self.discrete_rate):
            return float("inf")
        return abs(self.flow_rate - self.discrete_rate)

    def to_json(self) -> Dict[str, float]:
        return {
            "id_bits": float(self.id_bits),
            "density": self.density,
            "flow_rate": self.flow_rate,
            "flow_stdev": self.flow_stdev,
            "discrete_rate": self.discrete_rate,
            "discrete_stdev": self.discrete_stdev,
            "model_rate": self.model_rate,
            "divergence": self.divergence,
        }


@dataclass(frozen=True)
class CalibrationReport:
    """Outcome of one calibration sweep."""

    points: Tuple[CalibrationPoint, ...]
    tolerance: float
    fidelity: str
    switch_threshold: float
    model: str
    trials: int
    horizon: float
    window: float
    base_seed: int

    @property
    def max_divergence(self) -> float:
        if not self.points:
            return 0.0
        return max(point.divergence for point in self.points)

    @property
    def ok(self) -> bool:
        return self.max_divergence <= self.tolerance

    def to_json(self) -> Dict[str, Any]:
        return {
            "points": [point.to_json() for point in self.points],
            "tolerance": self.tolerance,
            "max_divergence": self.max_divergence,
            "ok": self.ok,
            "fidelity": self.fidelity,
            "switch_threshold": self.switch_threshold,
            "model": self.model,
            "trials": self.trials,
            "horizon": self.horizon,
            "window": self.window,
            "base_seed": self.base_seed,
        }

    def render(self) -> str:
        """Human-readable per-point table plus the verdict line."""
        lines = [
            f"{'H':>3} {'T':>6} {'flow':>8} {'discrete':>9} "
            f"{'model':>8} {'diverge':>8}"
        ]
        for point in self.points:
            lines.append(
                f"{point.id_bits:>3d} {point.density:>6.1f} "
                f"{point.flow_rate:>8.4f} {point.discrete_rate:>9.4f} "
                f"{point.model_rate:>8.4f} {point.divergence:>8.4f}"
            )
        verdict = "within" if self.ok else "EXCEEDS"
        lines.append(
            f"max divergence {self.max_divergence:.4f} {verdict} "
            f"tolerance {self.tolerance:.4f} "
            f"({len(self.points)} grid point(s), fidelity={self.fidelity})"
        )
        return "\n".join(lines)


def calibrate(
    id_bits_grid: Sequence[int] = FIG4_DEFAULT_ID_BITS,
    densities: Sequence[float] = DEFAULT_DENSITIES,
    trials: int = 3,
    base_seed: int = 0,
    horizon: float = 300.0,
    window: float = 25.0,
    warmup: float = 5.0,
    tolerance: float = DEFAULT_TOLERANCE,
    fidelity: str = "flow",
    switch_threshold: float = DEFAULT_SWITCH_THRESHOLD,
    model: str = "mixed",
    runner: Optional[TrialRunner] = None,
    flow_shards: Optional[int] = None,
) -> CalibrationReport:
    """Run both cores across the grid and report per-point divergence.

    The discrete side excludes its first ``warmup`` seconds (early
    transactions see a half-empty world); the flow model is
    steady-state by construction, so the warmup aligns the two
    estimands rather than hiding disagreement.  ``flow_shards`` shards
    each flow replicate's window plan across the runner (see
    :func:`replicate_flow`); the report is bit-identical either way.
    """
    if not window <= horizon:
        raise ValueError(f"horizon {horizon} is shorter than the window {window}")
    if not switch_threshold > 0:
        raise ValueError(f"switch_threshold must be positive, got {switch_threshold}")
    runner = runner if runner is not None else TrialRunner()
    points: List[CalibrationPoint] = []
    for id_bits in id_bits_grid:
        for density in densities:
            flow_mean, flow_stdev, _flow_results = replicate_flow(
                id_bits,
                density,
                trials=trials,
                base_seed=base_seed,
                horizon=horizon,
                window=window,
                fidelity=fidelity,
                switch_threshold=switch_threshold,
                model=model,
                runner=runner,
                flow_shards=flow_shards,
            )
            discrete_mean, discrete_stdev, _discrete = replicate_collision_rate(
                id_bits,
                density,
                FixedDuration(1.0),
                trials=trials,
                base_seed=base_seed,
                horizon=horizon,
                warmup=warmup,
                runner=runner,
            )
            points.append(
                CalibrationPoint(
                    id_bits=id_bits,
                    density=density,
                    flow_rate=flow_mean,
                    flow_stdev=flow_stdev,
                    discrete_rate=discrete_mean,
                    discrete_stdev=discrete_stdev,
                    model_rate=float(
                        collision_probability_mixed(id_bits, density, [1.0])
                    ),
                )
            )
    return CalibrationReport(
        points=tuple(points),
        tolerance=tolerance,
        fidelity=fidelity,
        switch_threshold=switch_threshold,
        model=model,
        trials=trials,
        horizon=horizon,
        window=window,
        base_seed=base_seed,
    )
