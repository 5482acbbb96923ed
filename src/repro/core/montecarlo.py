"""Monte Carlo validation of the collision models.

A lightweight sampler that needs no radio stack: Poisson transaction
arrivals, per-transaction durations from a caller-supplied sampler,
uniform identifier choice, and the same ground-truth collision criterion
the paper's model uses ("unique with respect to all other transactions
... for the entire duration").  Used to check Eq. 4 and the
mixed-duration extension (:func:`repro.core.model.p_success_mixed`)
against brute-force truth.

A trial generates the whole horizon in one process and runs the batch
kernels :func:`_collision_flags` and :func:`_measured_density` once.
Every arrival has a fresh owner and a full-mesh audience, so whether a
transaction collides depends only on the start and end times of the
transactions sharing its identifier; the kernels compute every flag and
the time-weighted density with a few NumPy sorts and scans instead of
one :class:`~repro.core.transactions.TransactionLog` entry per arrival.
The collision kernel sorts no times: one ``searchsorted`` over the
time-ordered starts gives each arrival's integer reach (how many
arrivals start before it ends), so every overlap test compares arrival
positions, and a stable radix sort of the identifiers groups them.
The result is bit-for-bit identical to the historical
build-list/double/sort pipeline, which the tests keep as their
reference.  Parallelism comes from replicates:
:func:`replicate_collision_rate` fans seeded trials out across a
:class:`repro.exec.TrialRunner`'s workers.

Arrivals with a :class:`FixedDuration` and every identifier are drawn
in bulk (:func:`_poisson_times`, :func:`_draw_identifiers`) through
:mod:`repro.sim.bulk`, bit-identical to the per-draw ``expovariate`` /
``randrange`` loops; under DetSan or on a proxy stream they run those
loops, here, so DetSan books each draw at this module's call sites.
Samplers that draw (:class:`ExponentialDuration`, lambdas) interleave
their draws with the gaps and keep the per-draw loop.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.spans import span
from ..sim.bulk import eligible, seat, words
from ..sim.rng import fallback_stream
from ..sim.trace import TraceRecord
from .identifiers import IdentifierSpace

if TYPE_CHECKING:  # numpy.typing costs import time; annotations only
    from numpy.typing import ArrayLike

__all__ = [
    "ExponentialDuration",
    "FixedDuration",
    "MonteCarloResult",
    "replicate_collision_rate",
    "simulate_collision_rate",
]

DurationSampler = Callable[[random.Random], float]


@dataclass(frozen=True)
class FixedDuration:
    """Constant-duration sampler (the paper's same-length assumption).

    A frozen dataclass rather than a lambda so the sampler has a stable
    canonical form (its field dict) for cache keys.
    """

    seconds: float = 1.0

    def __call__(self, rng: random.Random) -> float:
        return self.seconds


@dataclass(frozen=True)
class ExponentialDuration:
    """Exponentially distributed durations with the given mean."""

    mean: float = 1.0

    def __call__(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean)


@dataclass
class MonteCarloResult:
    """Outcome of one Monte Carlo run."""

    transactions: int
    collision_rate: float
    measured_density: float


# ----------------------------------------------------------------------
# Bulk draws through repro.sim.bulk
# ----------------------------------------------------------------------
#: Most arrivals one bulk chunk draws, so a long horizon never holds
#: its whole word stream at once.
_CHUNK_ARRIVALS = 1 << 18


def _poisson_times(
    rate: float, rng: random.Random, start: float, stop: float
) -> Optional[np.ndarray]:
    """Poisson arrival times in ``[start, stop)``, drawn in bulk.

    Bit-identical to ``time += rng.expovariate(rate)`` repeated until
    ``time >= stop``: the same ``random()`` doubles in the same order
    (:mod:`repro.sim.bulk`); ``math.log`` for every gap (libm, as
    ``expovariate`` uses, never NumPy's SIMD log), with the negation,
    division and sequential ``np.add.accumulate`` rounding like the
    scalar loop; and the stream handed back just past the gap that
    crosses ``stop``.  ``None`` when the bulk gate says no: the caller
    then draws one gap at a time.
    """
    if not (0 < rate < math.inf and math.isfinite(start) and math.isfinite(stop)):
        raise ValueError("bulk arrivals need a finite positive rate and finite bounds")
    reader = seat(rng)
    if reader is None:
        return None
    chunks: List[np.ndarray] = []
    time = start
    while True:
        expected = max(rate * (stop - time), 0.0)
        count = int(min(expected + 4.0 * math.sqrt(expected) + 16.0, _CHUNK_ARRIVALS))
        complements = memoryview(1.0 - reader.doubles(count))
        logs = np.fromiter(map(math.log, complements), np.float64, count)
        gaps = -logs / rate
        gaps[0] += time
        times = np.add.accumulate(gaps)
        crossed = int(np.searchsorted(times, stop))
        if crossed < count:
            reader.redraw(crossed + 1)
            chunks.append(times[:crossed])
            break
        reader.redraw(count)
        chunks.append(times)
        time = float(times[-1])
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _draw_identifiers(space: IdentifierSpace, rng: random.Random, n: int) -> np.ndarray:
    """``n`` uniform identifiers, bit-identical to ``space.sample(rng)`` n times.

    ``randrange(size)`` is ``getrandbits(k)`` with ``k =
    size.bit_length()``, redrawn while ``r >= size``.  A ``k``-bit draw
    takes ``ceil(k / 32)`` words, low word first, the last one shifted
    right by the unused bits.  Each round draws exactly as many
    candidates as identifiers are still missing; the per-draw loop
    would need at least that many, so nothing is overdrawn.  Past the
    bulk gate each identifier is one ``randrange``, here.
    """
    size = space.size
    if not (n and eligible(rng)):
        return np.array([rng.randrange(size) for _ in range(n)], dtype=np.int64)
    bits = size.bit_length()
    per_draw = -(-bits // 32)
    out = np.empty(n, dtype=np.int64)
    filled = 0
    while filled < n:
        need = n - filled
        drawn = words(rng, need * per_draw).reshape(need, per_draw)
        drawn[:, -1] >>= np.uint64(32 * per_draw - bits)
        draws = drawn[:, 0]
        for j in range(1, per_draw):
            draws = draws | (drawn[:, j] << np.uint64(32 * j))
        kept = draws[draws < size]
        out[filled:filled + len(kept)] = kept
        filled += len(kept)
    return out


# ----------------------------------------------------------------------
# The event core
# ----------------------------------------------------------------------
def _generate_arrivals(
    arrival_rate: float,
    duration_sampler: DurationSampler,
    rng: random.Random,
    start: float,
    stop: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Poisson arrivals in ``[start, stop)``: ``(start_times, durations)``.

    Draw order (inter-arrival gap, then duration, repeated) is part of
    the determinism contract — reordering it re-rolls every recorded
    experiment.  A :class:`FixedDuration` draws nothing, so its gaps
    come from :func:`_poisson_times` in bulk, or from the loop below
    when the bulk gate says no; samplers that draw keep the loop.
    """
    fixed = type(duration_sampler) is FixedDuration
    times = _poisson_times(arrival_rate, rng, start, stop) if fixed else None
    if times is not None:
        seconds = duration_sampler.seconds
        if len(times) and not seconds >= 0:
            raise ValueError("duration sampler returned a negative or NaN duration")
        return times, np.full(len(times), seconds, dtype=np.float64)
    starts: List[float] = []
    durations: List[float] = []
    expovariate = rng.expovariate
    time = start
    while True:
        time += expovariate(arrival_rate)
        if time >= stop:
            break
        duration = duration_sampler(rng)
        if not duration >= 0:
            raise ValueError("duration sampler returned a negative or NaN duration")
        starts.append(time)
        durations.append(duration)
    return np.array(starts, dtype=np.float64), np.array(durations, dtype=np.float64)


def _collision_flags(
    starts: ArrayLike, durations: ArrayLike, identifiers: ArrayLike
) -> np.ndarray:
    """One collision flag per arrival: the batch event core.

    ``starts`` must be in arrival order (non-decreasing).  Every arrival
    has a fresh owner and a full-mesh audience, so arrivals ``j < k``
    collide iff they share an identifier and ``j`` is still open when
    ``k`` begins: ``start_j + duration_j > start_k``.  An end at exactly
    a begin's timestamp does not contend.

    No float is sorted.  Starts are sorted already, so one
    ``searchsorted`` gives each arrival's *reach*: the number of
    arrivals that start before it ends.  ``j`` is still open when ``k``
    begins exactly when ``k < reach[j]``, so both overlap tests compare
    integer arrival positions, never times.  A stable sort groups
    arrivals by identifier, keeping arrival order inside a group; it
    runs over the narrowest integer dtype that holds the identifiers,
    which NumPy radix-sorts up to 16 bits.  A transaction collides with
    a later one iff the next same-identifier arrival is within its
    reach, and with an earlier one iff the group's running maximum
    reach passes its own position; reaches are offset by ``n + 1`` per
    group, so one running maximum serves every group.
    """
    begin = np.asarray(starts, dtype=np.float64)
    n = len(begin)
    if n == 0:
        return np.zeros(0, dtype=bool)
    reach = np.searchsorted(
        begin, begin + np.asarray(durations, dtype=np.float64), side="left"
    )
    ident = np.asarray(identifiers)
    key = np.result_type(
        np.min_scalar_type(ident.min()), np.min_scalar_type(ident.max())
    )
    ident = ident.astype(key, copy=False)
    order = np.argsort(ident, kind="stable")
    ident = ident[order]
    reach = reach[order]
    same = ident[1:] == ident[:-1]  # neighbours in one identifier group
    flags = np.zeros(n, dtype=bool)
    flags[:-1] = same & (order[1:] < reach[:-1])
    offset = np.concatenate(([0], np.cumsum(~same))) * (n + 1)
    running = np.maximum.accumulate(reach + offset)
    flags[1:] |= same & (running[:-1] > order[1:] + offset[1:])
    out = np.empty(n, dtype=bool)
    out[order] = flags
    return out


def _measured_density(starts: ArrayLike, durations: ArrayLike) -> float:
    """Time-weighted mean concurrency over ``[0, last event]``.

    Bit-identical to :class:`repro.sim.monitor.TimeWeightedValue` fed
    ``+1`` at each begin and ``-1`` at each end in event order: a stable
    sort of ends-then-begins orders events by time with ends first, and
    ``np.add.accumulate`` sums the area terms sequentially, rounding in
    the same order as the ``+=`` loop.
    """
    begin = np.asarray(starts, dtype=np.float64)
    n = len(begin)
    if n == 0:
        return 0.0
    times = np.concatenate((begin + np.asarray(durations, dtype=np.float64), begin))
    order = np.argsort(times, kind="stable")
    times = times[order]
    level = np.add.accumulate(np.where(order < n, -1.0, 1.0))
    area = np.concatenate(([0.0], level[:-1])) * np.diff(times, prepend=0.0)
    last = float(times[-1])
    return float(np.add.accumulate(area)[-1]) / last if last > 0 else 0.0


# ----------------------------------------------------------------------
# Trace export (observational; see repro.obs)
# ----------------------------------------------------------------------
def _transaction_records(
    starts: Sequence[float],
    durations: Sequence[float],
    identifiers: Sequence[int],
) -> Iterator[TraceRecord]:
    """The run's ``txn.begin`` / ``txn.end`` records, in event order.

    Events sort by ``(time, kind)`` with ends before same-time begins —
    the historical reference pipeline's stable sort — so the exported
    stream is a pure function of the run's arrivals.  Every record
    carries ``"segment": 0``, a constant of the trace format:
    ``repro obs why`` addresses transactions as ``segment:owner``.
    """
    events: List[Tuple[float, int, int]] = []
    for seq in range(len(starts)):
        events.append((starts[seq], 1, seq))
        events.append((starts[seq] + durations[seq], 0, seq))
    events.sort(key=lambda event: (event[0], event[1]))
    for when, kind, seq in events:
        if kind == 1:
            yield TraceRecord(
                when,
                "txn.begin",
                {"segment": 0, "owner": seq, "id": identifiers[seq]},
            )
        else:
            yield TraceRecord(when, "txn.end", {"segment": 0, "owner": seq})


def _collision_records(
    starts: np.ndarray, identifiers: np.ndarray, flags: np.ndarray
) -> Iterator[TraceRecord]:
    """One ``txn.collision`` record per flagged arrival, in arrival order."""
    for k in np.flatnonzero(flags).tolist():
        yield TraceRecord(
            float(starts[k]),
            "txn.collision",
            {"segment": 0, "owner": k, "id": int(identifiers[k])},
        )


def _write_trace(
    path: str,
    starts: np.ndarray,
    durations: np.ndarray,
    identifiers: np.ndarray,
    flags: np.ndarray,
    meta: Dict[str, object],
) -> None:
    """Export the run's transaction stream as a versioned trace at ``path``.

    Begin/end and collision records interleave in ``(time, stream rank,
    position)`` order (see :mod:`repro.obs.merge`), so the bytes are a
    pure function of the run.
    """
    from ..obs.envelope import TraceWriter
    from ..obs.merge import merge_streams

    streams = [
        _transaction_records(
            starts.tolist(), durations.tolist(), identifiers.tolist()
        ),
        _collision_records(starts, identifiers, flags),
    ]
    with TraceWriter(path, meta=meta) as writer:
        for record in merge_streams(streams):  # type: ignore[arg-type]
            writer.write(record)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def _check_run(arrival_rate: float, horizon: float, warmup: float) -> None:
    """Reject a run that could never end or never count, before any draw."""
    if not 0 < arrival_rate < math.inf:
        raise ValueError("arrival_rate must be positive and finite")
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    if math.isnan(warmup):
        raise ValueError("warmup must not be NaN")


def simulate_collision_rate(
    id_bits: int,
    arrival_rate: float,
    duration_sampler: DurationSampler,
    horizon: float = 1000.0,
    rng: Optional[random.Random] = None,
    warmup: float = 0.0,
    seed: Optional[int] = None,
    trace_path: Optional[str] = None,
) -> MonteCarloResult:
    """Ground-truth collision rate under Poisson arrivals.

    Parameters
    ----------
    id_bits:
        Identifier space size ``H``.
    arrival_rate:
        Poisson arrival rate λ (transactions/second), network-wide as
        seen at one point.
    duration_sampler:
        ``rng -> duration``; e.g. :class:`FixedDuration` for the
        paper's same-length assumption, or :class:`ExponentialDuration`
        / a bimodal sampler for the mixed-length extension.
    horizon:
        Simulated seconds of arrivals.
    rng, seed:
        The stream to draw from: ``rng`` if given, else
        ``random.Random(seed)``.
    warmup:
        Transactions starting before this time are excluded from the
        rate (edge effects: early transactions see a half-empty world).
    trace_path:
        Optional file; when given, the run exports its transaction
        stream there as a versioned trace — see :mod:`repro.obs`.
        Observational only: the returned result is bit-identical with
        tracing on or off.

    Each transaction gets a fresh owner id, so same-owner reuse (which
    the ground-truth log exempts) never occurs — matching the model's
    assumption of distinct contending nodes.
    """
    _check_run(arrival_rate, horizon, warmup)
    if rng is None:
        rng = random.Random(seed) if seed is not None else fallback_stream(
            "core.montecarlo"
        )
    space = IdentifierSpace(id_bits)
    with span("core.sample"):
        starts, durations = _generate_arrivals(
            arrival_rate, duration_sampler, rng, 0.0, horizon
        )
        identifiers = _draw_identifiers(space, rng, len(starts))
    with span("core.replay"):
        flags = _collision_flags(starts, durations, identifiers)
        density = _measured_density(starts, durations)

    if trace_path is not None:
        # ``"shards": 1`` is a constant of the trace format.
        meta: Dict[str, object] = {
            "scenario": "montecarlo",
            "id_bits": id_bits,
            "arrival_rate": arrival_rate,
            "duration_sampler": repr(duration_sampler),
            "horizon": horizon,
            "warmup": warmup,
            "seed": seed,
            "shards": 1,
        }
        _write_trace(trace_path, starts, durations, identifiers, flags, meta)

    # Arrivals are time-ordered, so the warmup cut is a prefix.
    first = int(np.searchsorted(starts, warmup))
    tracked = len(starts) - first
    if not tracked:
        return MonteCarloResult(
            transactions=0, collision_rate=float("nan"), measured_density=density
        )
    return MonteCarloResult(
        transactions=tracked,
        collision_rate=int(np.count_nonzero(flags[first:])) / tracked,
        measured_density=density,
    )


def _montecarlo_trial(
    id_bits: int,
    arrival_rate: float,
    duration_sampler: DurationSampler,
    horizon: float,
    warmup: float,
    seed: int,
) -> dict:
    """One seeded Monte Carlo replicate, as a JSON-safe dict."""
    result = simulate_collision_rate(
        id_bits,
        arrival_rate,
        duration_sampler,
        horizon=horizon,
        warmup=warmup,
        seed=seed,
    )
    return {
        "transactions": result.transactions,
        "collision_rate": result.collision_rate,
        "measured_density": result.measured_density,
    }


def replicate_collision_rate(
    id_bits: int,
    arrival_rate: float,
    duration_sampler: DurationSampler,
    trials: int = 4,
    base_seed: int = 0,
    horizon: float = 1000.0,
    warmup: float = 0.0,
    runner=None,
) -> Tuple[float, float, List[MonteCarloResult]]:
    """Replicated Monte Carlo: ``(mean, stddev, results)`` over seeds.

    Replicate ``k`` draws from ``random.Random(derive_seed(base_seed,
    f"trial:{point}:{k}"))`` — the same convention the experiment
    harness uses — and the replicates fan out across the optional
    :class:`repro.exec.TrialRunner`'s workers.  Empty replicates (NaN
    collision rate) are excluded from the aggregate, mirroring
    :func:`repro.experiments.results.aggregate_trials`.  Failed
    replicates are dropped too; if *every* replicate fails, the first
    failure is raised as :class:`repro.exec.ExecError`.
    """
    from .. import __version__
    from ..exec import (
        ExecError,
        TrialRunner,
        TrialSpec,
        canonical_point,
        derive_trial_seed,
        trial_key,
    )

    if trials < 1:
        raise ValueError("need at least one trial")
    _check_run(arrival_rate, horizon, warmup)
    runner = runner if runner is not None else TrialRunner()
    point_params = {
        "id_bits": id_bits,
        "arrival_rate": arrival_rate,
        "duration_sampler": duration_sampler,
        "horizon": horizon,
        "warmup": warmup,
    }
    point = canonical_point(point_params)
    specs = []
    for k in range(trials):
        seed = derive_trial_seed(base_seed, point, k)
        key = None
        if runner.cache is not None:
            key = trial_key(
                "repro.core.montecarlo.simulate_collision_rate",
                dict(point_params),
                seed,
                __version__,
            )
        specs.append(
            TrialSpec(
                fn=_montecarlo_trial,
                kwargs=dict(
                    id_bits=id_bits,
                    arrival_rate=arrival_rate,
                    duration_sampler=duration_sampler,
                    horizon=horizon,
                    warmup=warmup,
                    seed=seed,
                ),
                label=f"montecarlo#{k}",
                cache_key=key,
            )
        )
    outcomes = runner.run(specs)
    results = [
        MonteCarloResult(**outcome.value) for outcome in outcomes if outcome.ok
    ]
    if not results:
        failures = [o.failure for o in outcomes if o.failure is not None]
        detail = failures[0].render() if failures else "no outcomes"
        raise ExecError(f"all {trials} replicates failed; first: {detail}")
    rates = [r.collision_rate for r in results if not math.isnan(r.collision_rate)]
    if not rates:
        return float("nan"), float("nan"), results
    mean = sum(rates) / len(rates)
    if len(rates) > 1:
        var = sum((r - mean) ** 2 for r in rates) / (len(rates) - 1)
        stdev = math.sqrt(var)
    else:
        stdev = 0.0
    return mean, stdev, results
