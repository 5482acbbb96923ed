"""Microbenchmarks: throughput of the core primitives.

Not a paper figure — these time the building blocks so performance
regressions in the simulator or codec are caught: event-queue rate,
fragmentation/reassembly throughput, selector draw rate, the analytic
model's sweep speed, and the Monte Carlo single-trial path (fast event
core vs the pre-optimisation implementation).  The Monte Carlo benchmark publishes ``micro_throughput``
(→ ``micro_throughput.txt`` + ``BENCH_micro_throughput.json``).
"""

import itertools
import random
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.aff.fragmenter import Fragmenter
from repro.aff.reassembler import Reassembler
from repro.aff.wire import FragmentCodec
from repro.core import model
from repro.core.identifiers import IdentifierSpace, ListeningSelector, UniformSelector
from repro.sim.engine import Simulator


def test_event_queue_throughput(benchmark):
    def run():
        sim = Simulator()
        counter = [0]

        def tick():
            counter[0] += 1
            if counter[0] < 10_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return counter[0]

    assert benchmark(run) == 10_000


def test_fragmentation_throughput(benchmark):
    frag = Fragmenter(FragmentCodec(9), mtu_bytes=27)
    payload = bytes(range(256)) * 4  # 1 KiB

    def run():
        plan = frag.fragment(payload, identifier=13)
        return sum(len(frag.codec.encode(f)) for f in plan.fragments)

    assert benchmark(run) > 0


def test_reassembly_throughput(benchmark):
    frag = Fragmenter(FragmentCodec(9), mtu_bytes=27)
    payload = bytes(range(256)) * 4
    fragments = frag.fragment(payload, identifier=13).fragments

    def run():
        reasm = Reassembler()
        out = None
        for f in fragments:
            result = reasm.accept(f, now=0.0)
            if result is not None:
                out = result
        return out

    assert benchmark(run) == payload


def test_codec_decode_throughput(benchmark):
    """Decode a 1 KiB packet's frames at every Figure-4 identifier size."""
    payload = bytes(range(256)) * 4
    cases = []
    for id_bits in (2, 3, 4, 5, 6, 8, 10):
        frag = Fragmenter(FragmentCodec(id_bits), mtu_bytes=27)
        fragments = frag.fragment(payload, identifier=1).fragments
        frames = [frag.codec.encode(f) for f in fragments]
        cases.append((frag.codec, frames, fragments))

    def run():
        return [[codec.decode(f) for f in frames] for codec, frames, _ in cases]

    assert benchmark(run) == [fragments for _, _, fragments in cases]


def test_uniform_selector_rate(benchmark):
    selector = UniformSelector(IdentifierSpace(9), random.Random(1))

    def run():
        return [selector.select() for _ in range(1000)]

    assert len(benchmark(run)) == 1000


def test_listening_selector_rate(benchmark):
    selector = ListeningSelector(
        IdentifierSpace(9), random.Random(1), density_hint=16
    )
    for i in range(64):
        selector.observe(i % 512)

    def run():
        return [selector.select() for _ in range(1000)]

    assert len(benchmark(run)) == 1000


def test_model_sweep_rate(benchmark):
    def run():
        total = 0.0
        for density in (4, 16, 64, 256, 1024):
            _, eff = model.sweep_aff_efficiency(16, density, (1, 48))
            total += float(eff.sum())
        return total

    assert benchmark(run) > 0


# ----------------------------------------------------------------------
# Monte Carlo single-trial throughput: fast event core vs baseline
# ----------------------------------------------------------------------
# Baseline: a frozen replica of the Monte Carlo path as it stood before
# the fast event core landed — dict-backed field-equality Transaction,
# delegating TimeWeightedValue.adjust, and the build-list/double/sort
# replay.  Embedded here (rather than imported) so the current package
# can keep improving without dragging the baseline along with it.

_seed_txn_seq = itertools.count(1)


@dataclass
class _SeedTransaction:
    owner: int
    identifier: int
    start: float
    audience: Optional[frozenset] = None
    end: Optional[float] = None
    uid: int = field(default_factory=lambda: next(_seed_txn_seq))

    @property
    def open(self) -> bool:
        return self.end is None

    def shares_audience(self, other: "_SeedTransaction") -> bool:
        if self.audience is None or other.audience is None:
            return True
        return bool(self.audience & other.audience)


class _SeedTimeWeightedValue:
    def __init__(self, time: float = 0.0, value: float = 0.0):
        self._start = time
        self._last_time = time
        self._value = value
        self._integral = 0.0

    def set(self, time: float, value: float) -> None:
        if time < self._last_time:
            raise ValueError("TimeWeightedValue updates must be time-ordered")
        self._integral += self._value * (time - self._last_time)
        self._last_time = time
        self._value = value

    def adjust(self, time: float, delta: float) -> None:
        self.set(time, self._value + delta)

    def average(self, now: float) -> float:
        integral = self._integral + self._value * (now - self._last_time)
        span = now - self._start
        return integral / span if span > 0 else self._value


class _SeedTransactionLog:
    def __init__(self) -> None:
        self._all: List[_SeedTransaction] = []
        self._open_by_id: Dict[int, List[_SeedTransaction]] = {}
        self._collided: Set[int] = set()
        self._density = _SeedTimeWeightedValue()
        self._last_time = 0.0

    def begin(self, owner, identifier, time, audience=None):
        txn = _SeedTransaction(
            owner=owner,
            identifier=identifier,
            start=time,
            audience=frozenset(audience) if audience is not None else None,
        )
        for peer in self._open_by_id.get(identifier, ()):
            if peer.owner != owner and txn.shares_audience(peer):
                self._collided.add(txn.uid)
                self._collided.add(peer.uid)
        self._all.append(txn)
        self._open_by_id.setdefault(identifier, []).append(txn)
        self._density.adjust(time, +1)
        self._last_time = max(self._last_time, time)
        return txn

    def end(self, txn, time):
        if not txn.open:
            raise ValueError("already ended")
        txn.end = time
        open_list = self._open_by_id.get(txn.identifier, [])
        if txn in open_list:
            open_list.remove(txn)
            if not open_list:
                del self._open_by_id[txn.identifier]
        self._density.adjust(time, -1)
        self._last_time = max(self._last_time, time)

    def collided(self, txn) -> bool:
        return txn.uid in self._collided

    def measured_density(self) -> float:
        return self._density.average(self._last_time)


def _seed_simulate(id_bits, arrival_rate, duration_sampler, horizon, rng, warmup=0.0):
    """The pre-fast-core simulate_collision_rate, verbatim semantics."""
    space = IdentifierSpace(id_bits)
    log = _SeedTransactionLog()
    events = []
    time = 0.0
    owner = 0
    while True:
        time += rng.expovariate(arrival_rate)
        if time >= horizon:
            break
        duration = duration_sampler(rng)
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
    collided = sum(1 for t in tracked if log.collided(t))
    return len(tracked), collided / len(tracked), log.measured_density()


_MC_ID_BITS = 10
_MC_RATE = 12.0
_MC_HORIZON = 2000.0
_MC_SEED = 9


def _best_of(fn, repeats=3):
    """(best_wall_seconds, last_result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = _time.perf_counter()
        result = fn()
        wall = _time.perf_counter() - t0
        if wall < best:
            best = wall
    return best, result


def test_montecarlo_trial_throughput(benchmark, publish):
    """Fast event core vs the pre-change baseline.

    Two measurements on one long-horizon trial (~24k transactions):

    * the frozen pre-optimisation implementation above;
    * the current fast event core (also timed by pytest-benchmark, so
      its mean lands in the BENCH json) — asserted bit-identical to the
      baseline.
    """
    from repro.core.montecarlo import ExponentialDuration, simulate_collision_rate

    sampler = ExponentialDuration(1.0)

    def run_seed():
        return _seed_simulate(
            _MC_ID_BITS, _MC_RATE, sampler, _MC_HORIZON, random.Random(_MC_SEED)
        )

    def run_fast():
        r = simulate_collision_rate(
            _MC_ID_BITS, _MC_RATE, sampler, horizon=_MC_HORIZON, seed=_MC_SEED
        )
        return r.transactions, r.collision_rate, r.measured_density

    seed_wall, seed_result = _best_of(run_seed)
    fast_wall, fast_result = _best_of(run_fast)
    assert fast_result == seed_result, "fast core must be bit-identical"
    speedup = seed_wall / fast_wall

    # pytest-benchmark timing of the fast core, measured properly
    bench_result = benchmark(run_fast)
    assert bench_result == seed_result

    # The table is a pure function of the code; wall times and the
    # speedup go to BENCH_micro_throughput.json only.
    lines = [
        "Monte Carlo single-trial throughput "
        f"(id_bits={_MC_ID_BITS}, rate={_MC_RATE}, horizon={_MC_HORIZON}, "
        f"seed={_MC_SEED}, ~{seed_result[0]} transactions)",
        f"  collision rate      : {seed_result[1]:.6f}",
        f"  measured density    : {seed_result[2]:.6f}",
        "  fast event core     : bit-identical to the pre-change baseline",
        "  wall times, speedup : BENCH_micro_throughput.json",
    ]
    publish(
        "micro_throughput",
        "\n".join(lines),
        metrics={
            "transactions": seed_result[0],
            "collision_rate": seed_result[1],
            "seed_wall": seed_wall,
            "fast_wall": fast_wall,
            "fast_core_speedup": speedup,
        },
    )
    assert speedup >= 1.3, f"fast core speedup {speedup:.2f}x below the 1.3x floor"
