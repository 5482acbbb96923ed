"""Windowed flow-level collision sampling.

Partitions a :class:`~repro.flow.streams.FlowScenario`'s horizon into
fixed-width concurrency windows, computes each window's observed
transaction density ``T`` from the streams active in it
(:func:`repro.core.model.effective_density`), and draws collision
outcomes per window from the analytic model instead of replaying
frames:

* transaction count: Poisson with mean ``λ_w · width`` — the same
  arrival law the discrete core integrates event by event;
* per-transaction collision: Bernoulli with probability from Eq. 4
  (``model="eq4"``) or the exact mixed-duration Poisson thinning model
  (:func:`repro.core.model.collision_probability_mixed`,
  ``model="mixed"``, the default — it is exact for the Poisson ground
  truth the discrete core simulates, so calibration divergence is pure
  sampling noise).

Every draw comes from a named :class:`repro.sim.rng.RngRegistry` stream
(``flow.window.<k>``), one per window, derived from the run's root
seed — so windows are statistically independent, results are a pure
function of ``(scenario, seed)``, and escalating one window to frame
fidelity (:mod:`repro.flow.hybrid`) cannot perturb any other window's
draws.  Lint rule FLOW001 enforces this: flow-level sampling code must
not touch ad-hoc ``random.*`` state.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from ..core.model import collision_probability, collision_probability_mixed
from ..obs.metrics import inc
from ..obs.spans import span
from ..sim.rng import RngRegistry
from .streams import FlowScenario

__all__ = [
    "FlowResult",
    "WindowOutcome",
    "WindowSpec",
    "sample_flow",
    "sample_window",
    "window_collision_probability",
    "window_plan",
]

#: Supported collision models (see module docstring).
COLLISION_MODELS: Tuple[str, ...] = ("eq4", "mixed")

#: Knuth's product-of-uniforms Poisson sampler underflows for large
#: means; means above this are split into chunks (a sum of independent
#: Poissons is Poisson in the summed mean).
_POISSON_CHUNK = 500.0


@dataclass(frozen=True)
class WindowSpec:
    """One concurrency window's offered load.

    ``durations``/``weights`` describe the active duration mix
    (rate-weighted); ``density`` is the window's Little's-law ``T``.
    """

    index: int
    t0: float
    t1: float
    arrival_rate: float
    durations: Tuple[float, ...]
    weights: Tuple[float, ...]
    density: float

    @property
    def width(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class WindowOutcome:
    """Sampled (or simulated) outcome of one window."""

    index: int
    fidelity: str
    transactions: int
    collisions: int
    density: float


@dataclass(frozen=True)
class FlowResult:
    """Aggregate outcome of a flow-level (or hybrid) run."""

    transactions: int
    collisions: int
    windows: Tuple[WindowOutcome, ...]

    @property
    def collision_rate(self) -> float:
        if self.transactions == 0:
            return float("nan")
        return self.collisions / self.transactions

    @property
    def frame_windows(self) -> int:
        return sum(1 for w in self.windows if w.fidelity == "frame")

    @property
    def mean_density(self) -> float:
        """Transaction-weighted mean window density."""
        if self.transactions == 0:
            return 0.0
        weighted = sum(w.density * w.transactions for w in self.windows)
        return weighted / self.transactions


def window_plan(scenario: FlowScenario) -> List[WindowSpec]:
    """The scenario's concurrency windows, in time order.

    A stream active for a fraction of a window contributes that
    fraction of its rate (time-averaged offered load); its duration
    enters the mix weighted by the contributed rate.
    """
    plan: List[WindowSpec] = []
    for index in range(scenario.n_windows):
        t0 = index * scenario.window
        t1 = min(t0 + scenario.window, scenario.horizon)
        width = t1 - t0
        rate = 0.0
        durations: List[float] = []
        weights: List[float] = []
        for stream in scenario.streams:
            share = stream.overlap(t0, t1) / width
            if share <= 0:
                continue
            contributed = stream.arrival_rate * share
            if contributed <= 0:
                continue
            rate += contributed
            durations.append(stream.duration)
            weights.append(contributed)
        density = sum(d * w for d, w in zip(durations, weights))
        plan.append(
            WindowSpec(
                index=index,
                t0=t0,
                t1=t1,
                arrival_rate=rate,
                durations=tuple(durations),
                weights=tuple(weights),
                density=density,
            )
        )
    return plan


@lru_cache(maxsize=4096)
def _collision_probability_cached(
    id_bits: int,
    model: str,
    arrival_rate: float,
    durations: Tuple[float, ...],
    weights: Tuple[float, ...],
    density: float,
) -> float:
    if model == "eq4":
        return float(collision_probability(id_bits, max(density, 1.0)))
    return float(
        collision_probability_mixed(
            id_bits,
            arrival_rate,
            list(durations),
            list(weights),
        )
    )


def window_collision_probability(
    id_bits: int, window: WindowSpec, model: str = "mixed"
) -> float:
    """Collision probability of one transaction in ``window``.

    Memoized on the load mix ``(arrival_rate, durations, weights,
    density)`` rather than the window's position: a stationary stream
    offers the same mix in every window, and a calibration sweep
    re-visits the same grid point across replicates, so the mixed
    model's numeric integration runs once per distinct mix instead of
    once per window (``tests/test_flow_sampler.py`` pins equivalence).
    """
    if model not in COLLISION_MODELS:
        raise ValueError(f"unknown collision model {model!r}")
    if window.arrival_rate <= 0:
        return 0.0
    return _collision_probability_cached(
        id_bits,
        model,
        window.arrival_rate,
        window.durations,
        window.weights,
        window.density,
    )


def _poisson_knuth(rng: random.Random, mean: float) -> int:
    if mean <= 0:
        return 0
    limit = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count


def _checked_mean(mean: float) -> float:
    """``mean``, or a ValueError if it is NaN, infinite or negative.

    Knuth's loop never ends on an infinite mean and draws nothing on a
    NaN one, so both are refused before the first draw.
    """
    if not 0.0 <= mean < math.inf:
        raise ValueError(f"Poisson mean must be finite and >= 0, got {mean!r}")
    return mean


def poisson(rng: random.Random, mean: float) -> int:
    """A Poisson draw with the given mean, exact at any scale.

    Chunked Knuth: means past :data:`_POISSON_CHUNK` are sampled as a
    sum of independent bounded-mean Poissons, avoiding ``exp(-mean)``
    underflow while staying an exact sampler.
    """
    total = 0
    remaining = _checked_mean(mean)
    while remaining > _POISSON_CHUNK:
        total += _poisson_knuth(rng, _POISSON_CHUNK)
        remaining -= _POISSON_CHUNK
    return total + _poisson_knuth(rng, remaining)


def sample_window(
    window: WindowSpec,
    id_bits: int,
    rng: random.Random,
    model: str = "mixed",
) -> WindowOutcome:
    """Draw one window's transaction count and collision count.

    Draw order (count, then one Bernoulli per transaction) is part of
    the determinism contract; reordering re-rolls recorded runs.  When
    the bulk reader (:mod:`repro.sim.bulk`) admits the stream, the
    draws run through the vectorised fast path
    (:mod:`repro.flow.fastpath`), which is bit-identical to this loop
    including the stream's final state.
    """
    mean = _checked_mean(window.arrival_rate * window.width)
    fast = fastpath.sample_window_fast(window, id_bits, rng, model)
    if fast is not None:
        inc("flow.fastpath_hits")
        return fast
    n = poisson(rng, mean)
    if n == 0:
        return WindowOutcome(window.index, "flow", 0, 0, window.density)
    p = window_collision_probability(id_bits, window, model)
    draw = rng.random
    collisions = sum(1 for _ in range(n) if draw() < p)
    return WindowOutcome(window.index, "flow", n, collisions, window.density)


def sample_flow(
    scenario: FlowScenario, seed: int, model: str = "mixed"
) -> FlowResult:
    """Pure flow-level run: every window sampled analytically.

    Each window draws from its own derived stream
    (``RngRegistry(seed).stream(f"flow.window.{k}")``), so the result
    is a pure function of ``(scenario, seed, model)`` and individual
    windows can be re-drawn (or escalated to frame fidelity) without
    touching their neighbours.
    """
    registry = RngRegistry(seed)
    outcomes: List[WindowOutcome] = []
    with span("flow.sample"):
        for spec in window_plan(scenario):
            rng = registry.stream(f"flow.window.{spec.index}")
            outcomes.append(sample_window(spec, scenario.id_bits, rng, model))
    return FlowResult(
        transactions=sum(w.transactions for w in outcomes),
        collisions=sum(w.collisions for w in outcomes),
        windows=tuple(outcomes),
    )


# Last, and the module rather than its function: fastpath imports this
# module's window types, so either can be imported first.  Loading it
# with the sampler means forked workers never import it per window.
from . import fastpath  # noqa: E402
