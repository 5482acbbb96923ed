"""Monte Carlo validation of the collision models.

A lightweight sampler that needs no radio stack: Poisson transaction
arrivals, per-transaction durations from a caller-supplied sampler,
uniform identifier choice, and the same ground-truth collision criterion
the paper's model uses ("unique with respect to all other transactions
... for the entire duration").  Used to check Eq. 4 and the
mixed-duration extension (:func:`repro.core.model.p_success_mixed`)
against brute-force truth.

Two execution strategies share one event core, the batch kernels
:func:`_collision_flags` and :func:`_measured_density`.  Every arrival
has a fresh owner and a full-mesh audience, so whether a transaction
collides depends only on the start and end times of the transactions
sharing its identifier; the kernels compute every flag and the
time-weighted density with a few NumPy sorts and scans instead of one
:class:`~repro.core.transactions.TransactionLog` entry per arrival.

* ``shards=1`` (default) generates the whole horizon in-process and runs
  the kernels once.  It is bit-for-bit identical to the historical
  build-list/double/sort pipeline (kept as
  :func:`_simulate_collision_rate_reference` for equivalence tests and
  benchmarking).
* ``shards=N`` splits ``[0, horizon)`` into ``N`` time segments, each
  generating arrivals from an independent stream seeded with
  ``derive_seed(seed, f"segment:{i}")`` and flagging locally; the
  parent then stitches segment boundaries by matching every carried
  (boundary-crossing) transaction against the prefix of later segments'
  arrivals that begin while it is open, so cross-boundary collisions are
  counted exactly once.  Results are a
  pure function of ``(seed, shards)``; segments fan out across a
  :class:`repro.exec.TrialRunner`'s workers when one is passed.

Arrivals with a :class:`FixedDuration` and every identifier are drawn
in bulk (:func:`_poisson_times`, :func:`_draw_identifiers`) through
:mod:`repro.sim.bulk`, bit-identical to the per-draw ``expovariate`` /
``randrange`` loops; under DetSan or on a proxy stream they run those
loops, here, so DetSan books each draw at this module's call sites.
Samplers that draw (:class:`ExponentialDuration`, lambdas) interleave
their draws with the gaps and keep the per-draw loop.

See ``docs/parallel.md`` for the sharding determinism contract.
"""

from __future__ import annotations

import base64
import math
import pathlib
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.spans import span
from ..sim.bulk import eligible, seat, words
from ..sim.rng import fallback_stream
from ..sim.trace import TraceRecord
from .identifiers import IdentifierSpace
from .transactions import TransactionLog

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
        logs = np.array(list(map(math.log, (1.0 - reader.doubles(count)).tolist())))
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

    A stable sort groups arrivals by identifier, keeping arrival order
    inside a group.  A transaction collides with a later one iff its end
    passes the next same-identifier start, and with an earlier one iff
    the group's running maximum end passes its own start.  The running
    maximum is taken over integer ranks of the times, offset per group,
    so it compares exactly the floats the comparison would.
    """
    begin = np.asarray(starts, dtype=np.float64)
    n = len(begin)
    if n == 0:
        return np.zeros(0, dtype=bool)
    ident = np.asarray(identifiers, dtype=np.int64)
    order = np.argsort(ident, kind="stable")
    ident = ident[order]
    begin = begin[order]
    end = begin + np.asarray(durations, dtype=np.float64)[order]
    same = ident[1:] == ident[:-1]  # neighbours in one identifier group
    flags = np.zeros(n, dtype=bool)
    flags[:-1] = same & (end[:-1] > begin[1:])
    _, ranks = np.unique(np.concatenate((end, begin)), return_inverse=True)
    offset = np.concatenate(([0], np.cumsum(~same))) * (2 * n)
    running = np.maximum.accumulate(ranks[:n] + offset)
    flags[1:] |= same & (running[:-1] > ranks[n + 1:] + offset[1:])
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


def _simulate_collision_rate_reference(
    id_bits: int,
    arrival_rate: float,
    duration_sampler: DurationSampler,
    horizon: float = 1000.0,
    rng: Optional[random.Random] = None,
    warmup: float = 0.0,
) -> MonteCarloResult:
    """The historical build-list/double/sort pipeline, kept verbatim.

    The fast event core must stay bit-identical to this; equivalence
    tests and ``benchmarks/test_micro_throughput.py`` both replay it.
    """
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng = rng if rng is not None else fallback_stream("core.montecarlo")
    space = IdentifierSpace(id_bits)
    log = TransactionLog()

    events = []  # (time, kind, txn_record)
    time = 0.0
    owner = 0
    while True:
        time += rng.expovariate(arrival_rate)
        if time >= horizon:
            break
        duration = duration_sampler(rng)
        if duration < 0:
            raise ValueError("duration sampler returned a negative duration")
        events.append((time, 0, owner, duration))
        owner += 1
    stream = []
    for start, _, who, duration in events:
        stream.append((start, 1, who, duration))
        stream.append((start + duration, 0, who, duration))
    stream.sort(key=lambda e: (e[0], e[1]))

    open_txns = {}
    tracked = []
    for when, kind, who, duration in stream:
        if kind == 1:
            txn = log.begin(owner=who, identifier=space.sample(rng), time=when)
            open_txns[who] = txn
            if when >= warmup:
                tracked.append(txn)
        else:
            txn = open_txns.pop(who, None)
            if txn is not None:
                log.end(txn, when)

    if not tracked:
        return MonteCarloResult(
            transactions=0,
            collision_rate=float("nan"),
            measured_density=log.measured_density(),
        )
    collided = sum(1 for t in tracked if log.collided(t))
    return MonteCarloResult(
        transactions=len(tracked),
        collision_rate=collided / len(tracked),
        measured_density=log.measured_density(),
    )


# ----------------------------------------------------------------------
# Trace export (observational; see repro.obs)
# ----------------------------------------------------------------------
def _segment_records(
    starts: Sequence[float],
    durations: Sequence[float],
    identifiers: Sequence[int],
    segment: int,
) -> Iterator[TraceRecord]:
    """One segment's ``txn.begin`` / ``txn.end`` records, in event order.

    Events sort by ``(time, kind)`` with ends before same-time begins —
    the historical reference pipeline's stable sort — so the exported
    stream is a pure function of the segment's arrivals, independent of
    which worker (or how many) computed it.
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
                {"segment": segment, "owner": seq, "id": identifiers[seq]},
            )
        else:
            yield TraceRecord(
                when, "txn.end", {"segment": segment, "owner": seq}
            )


def _collision_records(segments: Iterable[tuple]) -> Iterator[TraceRecord]:
    """``txn.collision`` records for each ``(starts, identifiers, flagged)`` segment.

    Emitted from the parent's post-stitch flag sets (local flags plus
    cross-boundary ones), in (segment, index) order — which is also
    time order, since segment windows and within-segment starts both
    ascend.
    """
    for index, (starts, identifiers, flagged) in enumerate(segments):
        for k in sorted(flagged):
            yield TraceRecord(
                float(starts[k]),
                "txn.collision",
                {"segment": index, "owner": k, "id": int(identifiers[k])},
            )


def _write_merged_trace(
    spool: pathlib.Path,
    streams: Sequence[object],
    meta: Dict[str, object],
) -> None:
    """Merge record streams into ``<spool>/trace.jsonl``.

    The merged order is keyed ``(time, stream rank, position)`` — see
    :mod:`repro.obs.merge` — so the bytes depend only on the streams'
    contents, never on worker scheduling.  Meta deliberately excludes
    worker configuration: traces from a serial and a multi-worker run
    of the same scenario must be byte-identical, header included.
    """
    from ..obs.envelope import TraceWriter
    from ..obs.merge import merge_streams

    with TraceWriter(spool / "trace.jsonl", meta=meta) as writer:
        for record in merge_streams(streams):  # type: ignore[arg-type]
            writer.write(record)


def _trace_meta(
    id_bits: int,
    arrival_rate: float,
    duration_sampler: DurationSampler,
    horizon: float,
    warmup: float,
    seed: Optional[int],
    shards: int,
) -> Dict[str, object]:
    return {
        "scenario": "montecarlo",
        "id_bits": id_bits,
        "arrival_rate": arrival_rate,
        "duration_sampler": repr(duration_sampler),
        "horizon": horizon,
        "warmup": warmup,
        "seed": seed,
        "shards": shards,
    }


# ----------------------------------------------------------------------
# Horizon sharding
# ----------------------------------------------------------------------
def _pack(values: np.ndarray) -> str:
    """Exact, compact transport form of an array (base64 of its bytes).

    Segments return tens of thousands of timestamps; packing them as
    one string keeps the canonical-JSON transport but makes its cost
    per-array instead of per-element, and IEEE doubles round-trip
    bit-exactly.
    """
    return base64.b64encode(values.tobytes()).decode("ascii")


def _unpack(blob: str, dtype: str, count: int) -> np.ndarray:
    """The first ``count`` values of a packed array, decoding only those."""
    size = np.dtype(dtype).itemsize * count
    return np.frombuffer(base64.b64decode(blob[: -(-size // 3) * 4])[:size], dtype=dtype)


def _id_dtype(id_bits: int) -> str:
    """Packed identifier width: every byte shipped is JSON-encoded twice."""
    return "<u2" if id_bits <= 16 else "<u8"


def _head(segment: Dict[str, object], until: float, id_dtype: str) -> Tuple[np.ndarray, np.ndarray]:
    """Starts and identifiers of a packed segment's arrivals before ``until``.

    Decodes a growing prefix of the start times until it reaches
    ``until``.  The stitch and the warmup cut need only the arrivals
    near a segment's lower cut, so the parent never decodes the bulk of
    a segment.
    """
    n = int(segment["n"])  # type: ignore[call-overload]
    count = 48
    while True:
        starts = _unpack(str(segment["starts"]), "<f8", min(count, n))
        if len(starts) == n or starts[-1] >= until:
            break
        count *= 4
    starts = starts[: np.searchsorted(starts, until)]
    return starts, _unpack(str(segment["identifiers"]), id_dtype, len(starts))


def _segment_bounds(horizon: float, shards: int, index: int) -> Tuple[float, float]:
    """Segment ``index``'s half-open time window ``[lo, hi)``."""
    return (horizon * index) / shards, (horizon * (index + 1)) / shards


def _montecarlo_segment(
    id_bits: int,
    arrival_rate: float,
    duration_sampler: DurationSampler,
    horizon: float,
    shards: int,
    index: int,
    seed: int,
    trace_path: Optional[str] = None,
) -> Dict[str, object]:
    """Generate and locally replay one horizon segment.

    Runs from its own derived stream (``derive_seed(seed,
    f"segment:{index}")``, derived by the caller), so segments are
    independent of each other and of how many workers computed them.
    Returns a JSON-transportable summary: packed start times and
    identifiers, the indices flagged by the *local* replay, the
    boundary-crossing tail, and density aggregates.  Cross-segment
    collisions are the parent's stitching job.

    With ``trace_path`` the segment also streams its begin/end records
    into a trace shard there (see :mod:`repro.obs.envelope`) —
    observational only, and written by whichever process computes the
    segment.
    """
    rng = random.Random(seed)
    lo, hi = _segment_bounds(horizon, shards, index)
    space = IdentifierSpace(id_bits)
    with span("core.sample"):
        begin, lengths = _generate_arrivals(
            arrival_rate, duration_sampler, rng, lo, hi
        )
        ident = _draw_identifiers(space, rng, len(begin))
    with span("core.replay"):
        flagged = np.flatnonzero(_collision_flags(begin, lengths, ident)).tolist()
    end = begin + lengths
    starts = begin.tolist()
    identifiers = ident.tolist()
    if trace_path is not None:
        from ..obs.envelope import write_trace

        write_trace(
            trace_path,
            _segment_records(starts, lengths.tolist(), identifiers, index),
            meta={"segment": index, "shards": shards},
        )
    # Everything O(n) that the parent would otherwise do per segment is
    # done here, where segments run in parallel: the boundary-crossing
    # tail scan and the density aggregates.  Only the (small) tails and
    # the packed arrays the stitch scan needs travel back.
    ends = end.tolist()
    tails = [
        [ends[seq], identifiers[seq], seq]
        for seq in np.flatnonzero(end > hi).tolist()
    ]
    return {
        "n": len(starts),
        "starts": _pack(np.asarray(begin, dtype="<f8")),
        "identifiers": _pack(ident.astype(_id_dtype(id_bits))),
        "flagged": flagged,
        "tails": tails,
        "sum_duration": sum(ends) - sum(starts),
        "max_end": max(ends) if ends else 0.0,
    }


def _stitch_segments(segments: List[Dict[str, object]], cuts: Sequence[float], id_dtype: str) -> None:
    """Flag cross-boundary collisions, mutating segment ``flagged`` sets.

    The boundary-stitch rule: every transaction still open at a cut is
    *carried* into later segments; a carried transaction and a later
    arrival collide iff they share an identifier and the carry is still
    open when the arrival begins (``carry.end > arrival.start`` — an
    end at exactly the begin's timestamp does not contend, matching the
    replay's tie rule).  Both parties are flagged; flags are sets, so a
    transaction already flagged by its local replay is counted exactly
    once.  Owner checks are unnecessary: every transaction has a fresh
    owner, so cross-segment pairs are always distinct nodes.

    Exact by construction: an overlapping pair either begins in the
    same segment (caught by that segment's local replay) or spans the
    cut between their segments (so the earlier one is in the carry set
    when the later one begins).
    """
    live: List[tuple] = []  # (end, identifier, segment, index)
    for seg_index, segment in enumerate(segments):
        if live:
            until = max(carry[0] for carry in live)
            starts, identifiers = _head(segment, until, id_dtype)
        for end, ident, carry_seg, carry_idx in live:
            # Arrivals that begin while the carry is open: a prefix.
            opened = np.searchsorted(starts, end)
            hits = np.flatnonzero(identifiers[:opened] == ident)
            if hits.size:
                segments[carry_seg]["flagged"].add(carry_idx)  # type: ignore[union-attr]
                segment["flagged"].update(hits.tolist())  # type: ignore[union-attr]
        if seg_index + 1 < len(segments):
            next_cut = cuts[seg_index + 1]
            live = [carry for carry in live if carry[0] > next_cut]
            # The segment pre-computed its own boundary-crossing tail
            # (``end > its upper cut``), so extending the carry set is
            # O(tail), not O(segment).
            for end, ident, k in segment["tails"]:  # type: ignore[union-attr]
                live.append((end, ident, seg_index, k))


def _simulate_sharded(
    id_bits: int,
    arrival_rate: float,
    duration_sampler: DurationSampler,
    horizon: float,
    warmup: float,
    seed: int,
    shards: int,
    runner,
    trace_spool: Optional[str] = None,
) -> MonteCarloResult:
    """Sharded trial: fan segments out, stitch boundaries, aggregate."""
    from ..exec import ExecError, TrialRunner, TrialSpec
    from ..exec.keys import segment_seed

    runner = runner if runner is not None else TrialRunner()
    spool: Optional[pathlib.Path] = None
    if trace_spool is not None:
        spool = pathlib.Path(trace_spool)
        spool.mkdir(parents=True, exist_ok=True)
    specs = []
    for index in range(shards):
        kwargs = dict(
            id_bits=id_bits,
            arrival_rate=arrival_rate,
            duration_sampler=duration_sampler,
            horizon=horizon,
            shards=shards,
            index=index,
            seed=segment_seed(seed, index),
        )
        if spool is not None:
            kwargs["trace_path"] = str(spool / f"segment-{index:04d}.jsonl")
        specs.append(
            TrialSpec(
                fn=_montecarlo_segment,
                kwargs=kwargs,
                label=f"segment:{index}",
            )
        )
    outcomes = runner.run(specs)
    failed = [o.failure for o in outcomes if not o.ok]
    if failed:
        raise ExecError(
            f"sharded trial lost {len(failed)}/{shards} segments; "
            f"first: {failed[0].render() if failed[0] else 'unknown'}"
        )
    segments = [
        dict(outcome.value, flagged=set(outcome.value["flagged"]))
        for outcome in outcomes
    ]
    cuts = [(horizon * index) / shards for index in range(shards + 1)]
    id_dtype = _id_dtype(id_bits)
    _stitch_segments(segments, cuts, id_dtype)
    if spool is not None:
        from ..obs.envelope import read_trace

        streams: List[object] = [
            read_trace(spool / f"segment-{index:04d}.jsonl")
            for index in range(shards)
        ]
        streams.append(
            _collision_records(
                [(*_head(s, math.inf, id_dtype), s["flagged"]) for s in segments]
            )
        )
        _write_merged_trace(
            spool,
            streams,
            _trace_meta(
                id_bits,
                arrival_rate,
                duration_sampler,
                horizon,
                warmup,
                seed,
                shards,
            ),
        )

    # Aggregate from the segments' pre-computed sums/maxima — a Python
    # per-transaction loop here would eat the latency the sharding just
    # saved, and even C-level re-sums would redo work the workers
    # already did in parallel.
    tracked = 0
    collided = 0
    duration_sum = 0.0
    last_time = 0.0
    for segment in segments:
        flagged = segment["flagged"]
        if not segment["n"]:
            continue
        duration_sum += segment["sum_duration"]  # type: ignore[operator]
        last_time = max(last_time, segment["max_end"])  # type: ignore[type-var]
        first = len(_head(segment, warmup, id_dtype)[0]) if warmup > 0 else 0
        tracked += segment["n"] - first  # type: ignore[operator]
        if first == 0:
            collided += len(flagged)  # type: ignore[arg-type]
        else:
            collided += sum(1 for k in flagged if k >= first)  # type: ignore[union-attr]
    density = duration_sum / last_time if last_time > 0 else 0.0
    if not tracked:
        return MonteCarloResult(
            transactions=0, collision_rate=float("nan"), measured_density=density
        )
    return MonteCarloResult(
        transactions=tracked,
        collision_rate=collided / tracked,
        measured_density=density,
    )


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
    shards: int = 1,
    seed: Optional[int] = None,
    runner=None,
    trace_spool: Optional[str] = None,
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
    warmup:
        Transactions starting before this time are excluded from the
        rate (edge effects: early transactions see a half-empty world).
    shards:
        Time segments to split the horizon into.  ``1`` replays the
        whole horizon from ``rng`` (or ``random.Random(seed)``),
        bit-identically to every release since the sampler existed.
        ``shards > 1`` requires ``seed`` (per-segment streams are
        derived from it; passing ``rng`` is an error because a shared
        stream cannot be split) and produces results that are a pure
        function of ``(seed, shards)``.
    runner:
        Optional :class:`repro.exec.TrialRunner`; with ``shards > 1``
        segments fan out across its workers.  Worker count never
        changes the result.
    trace_spool:
        Optional directory; when given, the run exports its transaction
        stream as a versioned trace at ``<trace_spool>/trace.jsonl``
        (plus per-segment shards when sharded) — see :mod:`repro.obs`.
        Observational only: the returned result is bit-identical with
        tracing on or off, and the trace bytes are a pure function of
        ``(seed, shards)``, never of worker count.

    Each transaction gets a fresh owner id, so same-owner reuse (which
    the ground-truth log exempts) never occurs — matching the model's
    assumption of distinct contending nodes.
    """
    _check_run(arrival_rate, horizon, warmup)
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if shards > 1:
        if rng is not None:
            raise ValueError(
                "pass seed=..., not rng=, when shards > 1: per-segment "
                "streams are derived from the seed"
            )
        if seed is None:
            raise ValueError("shards > 1 requires seed=")
        return _simulate_sharded(
            id_bits,
            arrival_rate,
            duration_sampler,
            horizon,
            warmup,
            seed,
            shards,
            runner,
            trace_spool=trace_spool,
        )

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

    if trace_spool is not None:
        spool = pathlib.Path(trace_spool)
        spool.mkdir(parents=True, exist_ok=True)
        _write_merged_trace(
            spool,
            [
                _segment_records(
                    starts.tolist(), durations.tolist(), identifiers.tolist(), 0
                ),
                _collision_records(
                    [(starts, identifiers, np.flatnonzero(flags).tolist())]
                ),
            ],
            _trace_meta(
                id_bits, arrival_rate, duration_sampler, horizon, warmup, seed, 1
            ),
        )

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
    shards: int = 1,
) -> dict:
    """One seeded Monte Carlo replicate, as a JSON-safe dict."""
    result = simulate_collision_rate(
        id_bits,
        arrival_rate,
        duration_sampler,
        horizon=horizon,
        warmup=warmup,
        seed=seed,
        shards=shards,
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
    shards: int = 1,
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

    ``shards`` splits each replicate's horizon into derived-seed time
    segments (see :func:`simulate_collision_rate`).  It is folded into
    the canonical point — and therefore into derived seeds and cache
    keys — only when it differs from 1, so ``shards=1`` replays are
    bit-identical to runs recorded before sharding existed.
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
    if shards < 1:
        raise ValueError("shards must be >= 1")
    runner = runner if runner is not None else TrialRunner()
    point_params = {
        "id_bits": id_bits,
        "arrival_rate": arrival_rate,
        "duration_sampler": duration_sampler,
        "horizon": horizon,
        "warmup": warmup,
    }
    if shards != 1:
        point_params["shards"] = shards
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
                    shards=shards,
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
