"""Tests for the mixed-duration model extension and its Monte Carlo oracle."""

import heapq
import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.model import (
    collision_probability,
    collision_probability_mixed,
    effective_density,
    p_success,
    p_success_mixed,
)
from repro.core.identifiers import IdentifierSpace
from repro.core.montecarlo import (
    ExponentialDuration,
    FixedDuration,
    _collision_flags,
    _draw_identifiers,
    _generate_arrivals,
    _measured_density,
    _poisson_times,
    _simulate_collision_rate_reference,
    replicate_collision_rate,
    simulate_collision_rate,
)
from repro.core.transactions import TransactionLog


def _replay(starts, durations, identifiers, log, warmup):
    """The heap-plus-TransactionLog event core the batch kernels replaced.

    Kept as the oracle: one merge of the time-ordered arrivals against a
    min-heap of pending ends, ends at a begin's timestamp processed
    first, end ties broken by arrival order.  Returns the transactions
    that started at or after ``warmup``.
    """
    tracked = []
    pending = []  # (end_time, arrival_seq, txn)
    inf = float("inf")
    next_end = inf
    for seq, (when, duration, ident) in enumerate(
        zip(starts, durations, identifiers)
    ):
        while next_end <= when:
            ended = heapq.heappop(pending)
            log.end(ended[2], ended[0])
            next_end = pending[0][0] if pending else inf
        txn = log.begin(seq, ident, when)
        ends_at = when + duration
        heapq.heappush(pending, (ends_at, seq, txn))
        next_end = min(next_end, ends_at)
        if when >= warmup:
            tracked.append(txn)
    while pending:
        ended = heapq.heappop(pending)
        log.end(ended[2], ended[0])
    return tracked


def _oracle(starts, durations, identifiers):
    """``(flags, density)`` from the oracle replay."""
    log = TransactionLog()
    _replay(starts, durations, identifiers, log, warmup=0.0)
    flags = [log.collided(txn) for txn in log.transactions]
    return flags, log.measured_density()


def _per_draw_arrivals(rate, sampler, rng, start, stop):
    """The per-draw arrival loop the bulk kernels replaced, as lists.

    Kept as the oracle: one ``expovariate`` gap, then one duration,
    until the time reaches ``stop``.
    """
    starts, durations = [], []
    time = start
    while True:
        time += rng.expovariate(rate)
        if time >= stop:
            return starts, durations
        starts.append(time)
        durations.append(sampler(rng))


def _per_draw_identifiers(bits, rng, n):
    """The per-draw identifier loop: ``randrange(2**bits)`` ``n`` times."""
    return [rng.randrange(1 << bits) for _ in range(n)]


#: Dyadic times make exact ties (equal starts, an end exactly at a
#: later start) common; the float draws stand in for exponential
#: durations.  Each arrival picks either kind, so runs mix both.
_GAPS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=3.0),
)
_DURATIONS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]),
    st.floats(min_value=0.0, max_value=5.0),
)


@st.composite
def _arrivals(draw, max_size=60):
    """``(starts, durations, identifiers)`` in arrival order."""
    id_bits = draw(st.integers(min_value=0, max_value=3))
    n = draw(st.integers(min_value=0, max_value=max_size))
    time = draw(st.sampled_from([0.0, 0.5, 7.25]))
    starts = []
    for gap in draw(st.lists(_GAPS, min_size=n, max_size=n)):
        time += gap
        starts.append(time)
    durations = draw(st.lists(_DURATIONS, min_size=n, max_size=n))
    identifiers = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << id_bits) - 1),
            min_size=n,
            max_size=n,
        )
    )
    return starts, durations, identifiers


class TestEffectiveDensity:
    def test_littles_law(self):
        assert effective_density(5.0, [1.0]) == pytest.approx(5.0)
        assert effective_density(2.0, [0.5, 1.5]) == pytest.approx(2.0)

    def test_weights(self):
        # E[D] = 0.9*0.1 + 0.1*9.1 = 1.0
        assert effective_density(5.0, [0.1, 9.1], weights=[0.9, 0.1]) == (
            pytest.approx(5.0)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_density(-1.0, [1.0])
        with pytest.raises(ValueError):
            effective_density(1.0, [-0.5])


class TestMixedModel:
    def test_reduces_to_exponential_form_for_single_duration(self):
        # P = exp(-λ·2τ·2^-H) with τ=1, λ=5, H=6
        p = p_success_mixed(6, 5.0, [1.0])
        assert p == pytest.approx(math.exp(-5.0 * 2.0 * 2.0**-6))

    def test_agrees_with_eq4_to_first_order(self):
        """exp(-2T q) vs (1-q)^{2(T-1)} converge as q -> 0."""
        for H in (12, 16, 20):
            mixed = p_success_mixed(H, 8.0, [1.0])
            eq4 = p_success(H, 8)
            assert mixed == pytest.approx(eq4, abs=5e-3)

    def test_probability_bounds(self):
        for H in (0, 1, 4, 16):
            p = p_success_mixed(H, 3.0, [0.2, 1.0, 7.0])
            assert 0.0 <= p <= 1.0

    def test_long_transactions_collide_more(self):
        """P(success | d) falls with d: duration-stratified check."""
        short = p_success_mixed(6, 5.0, [0.1])
        long = p_success_mixed(6, 5.0, [10.0])
        assert long < short

    def test_heavy_tail_lowers_count_weighted_rate(self):
        """Most transactions short + a few very long, same E[D]: the
        count-weighted collision rate drops below the same-length rate —
        the effect Eq. 4's single-T summary cannot express."""
        homogeneous = collision_probability_mixed(6, 5.0, [1.0])
        heavy = collision_probability_mixed(
            6, 5.0, [0.1, 9.1], weights=[0.9, 0.1]
        )
        assert heavy < homogeneous

    def test_validation(self):
        with pytest.raises(ValueError):
            p_success_mixed(-1, 5.0, [1.0])
        with pytest.raises(ValueError):
            p_success_mixed(6, -5.0, [1.0])
        with pytest.raises(ValueError):
            p_success_mixed(6, 5.0, [])
        with pytest.raises(ValueError):
            p_success_mixed(6, 5.0, [-1.0])


class TestMonteCarlo:
    def test_density_matches_littles_law(self):
        mc = simulate_collision_rate(
            8, 5.0, lambda r: 1.0, horizon=500.0, rng=random.Random(1)
        )
        assert mc.measured_density == pytest.approx(5.0, abs=0.4)

    def test_homogeneous_rate_matches_mixed_model(self):
        for H in (4, 6):
            mc = simulate_collision_rate(
                H, 5.0, lambda r: 1.0, horizon=1500.0,
                rng=random.Random(H), warmup=10.0,
            )
            predicted = collision_probability_mixed(H, 5.0, [1.0])
            assert mc.collision_rate == pytest.approx(predicted, abs=0.03)

    def test_homogeneous_rate_near_eq4(self):
        mc = simulate_collision_rate(
            6, 5.0, lambda r: 1.0, horizon=1500.0,
            rng=random.Random(3), warmup=10.0,
        )
        eq4 = float(collision_probability(6, 5))
        assert mc.collision_rate == pytest.approx(eq4, abs=0.05)

    def test_bimodal_matches_mixed_model_not_eq4_direction(self):
        sampler = lambda r: 0.1 if r.random() < 0.9 else 9.1  # noqa: E731
        mc = simulate_collision_rate(
            5, 5.0, sampler, horizon=2000.0, rng=random.Random(4), warmup=20.0
        )
        mixed = collision_probability_mixed(5, 5.0, [0.1, 9.1], weights=[0.9, 0.1])
        assert mc.collision_rate == pytest.approx(mixed, abs=0.04)

    def test_zero_bit_space_always_collides_under_load(self):
        mc = simulate_collision_rate(
            0, 5.0, lambda r: 1.0, horizon=200.0, rng=random.Random(5), warmup=5.0
        )
        assert mc.collision_rate > 0.99

    def test_huge_space_never_collides(self):
        mc = simulate_collision_rate(
            32, 5.0, lambda r: 1.0, horizon=200.0, rng=random.Random(6)
        )
        assert mc.collision_rate == 0.0

    def test_empty_window_gives_nan(self):
        mc = simulate_collision_rate(
            8, 0.001, lambda r: 1.0, horizon=1.0, rng=random.Random(7)
        )
        assert mc.transactions == 0
        assert math.isnan(mc.collision_rate)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_collision_rate(8, 0.0, lambda r: 1.0)
        with pytest.raises(ValueError):
            simulate_collision_rate(8, 1.0, lambda r: 1.0, horizon=0.0)
        with pytest.raises(ValueError):
            simulate_collision_rate(
                8, 1.0, lambda r: -1.0, horizon=10.0, rng=random.Random(8)
            )

    @pytest.mark.parametrize(
        "rate, horizon, warmup",
        [
            (math.nan, 10.0, 0.0),
            (math.inf, 10.0, 0.0),
            (5.0, math.nan, 0.0),
            (5.0, math.inf, 0.0),
            (5.0, 10.0, math.nan),
        ],
    )
    @pytest.mark.parametrize("shards", [1, 2])
    def test_rejects_unbounded_runs_before_any_draw(self, rate, horizon, warmup, shards):
        rng = random.Random(4) if shards == 1 else None
        before = rng.getstate() if rng is not None else None
        with pytest.raises(ValueError):
            simulate_collision_rate(
                6, rate, FixedDuration(1.0), horizon=horizon, warmup=warmup,
                rng=rng, seed=None if shards == 1 else 1, shards=shards,
            )
        if rng is not None:
            assert rng.getstate() == before

    @pytest.mark.parametrize(
        "sampler", [FixedDuration(math.nan), lambda r: math.nan]
    )
    def test_rejects_nan_durations(self, sampler):
        with pytest.raises(ValueError):
            simulate_collision_rate(6, 5.0, sampler, horizon=10.0, seed=1)

    def test_replicate_rejects_unbounded_runs(self):
        with pytest.raises(ValueError):
            replicate_collision_rate(6, math.nan, FixedDuration(1.0), trials=2)


class TestDurationSamplers:
    def test_fixed_duration_is_constant(self):
        sampler = FixedDuration(seconds=2.5)
        assert sampler(random.Random(0)) == 2.5
        assert FixedDuration()(random.Random(0)) == 1.0

    def test_exponential_duration_has_requested_mean(self):
        sampler = ExponentialDuration(mean=3.0)
        rng = random.Random(1)
        draws = [sampler(rng) for _ in range(20000)]
        assert sum(draws) / len(draws) == pytest.approx(3.0, rel=0.05)

    def test_samplers_are_frozen_and_hashable(self):
        # Cache keys and the pool transport rely on the field dict.
        with pytest.raises(Exception):
            FixedDuration().seconds = 2.0
        assert hash(ExponentialDuration(1.0)) == hash(ExponentialDuration(1.0))


class TestFastCoreGoldenPins:
    """The fast event core must stay bit-identical to the historical
    build-list/double/sort pipeline.  Pins were captured from the
    pre-fast-core implementation."""

    EXP_PINS = [
        # (seed, id_bits, rate, horizon, warmup) -> (txns, rate, density)
        ((1, 8, 5.0, 300.0, 0.0),
         (1462, 0.03146374829001368, 4.803748998642257)),
        ((2, 5, 4.0, 500.0, 10.0),
         (1958, 0.2093973442288049, 3.9340352010342317)),
        ((7, 3, 6.0, 200.0, 5.0),
         (1242, 0.7600644122383253, 6.342172165147807)),
    ]
    FIXED_PINS = [
        ((11, 6, 5.0, 400.0, 2.0),
         (1987, 0.14846502264720685, 4.984371369747749)),
        ((12, 6, 5.0, 400.0, 2.0),
         (1972, 0.15517241379310345, 4.95516201844978)),
    ]

    def test_exponential_duration_pins(self):
        for (seed, bits, rate, horizon, warmup), expected in self.EXP_PINS:
            mc = simulate_collision_rate(
                bits, rate, lambda rr: rr.expovariate(1.0),
                horizon=horizon, rng=random.Random(seed), warmup=warmup,
            )
            assert (mc.transactions, mc.collision_rate, mc.measured_density) == (
                expected
            )

    def test_fixed_duration_pins(self):
        for (seed, bits, rate, horizon, warmup), expected in self.FIXED_PINS:
            mc = simulate_collision_rate(
                bits, rate, FixedDuration(1.0),
                horizon=horizon, rng=random.Random(seed), warmup=warmup,
            )
            assert (mc.transactions, mc.collision_rate, mc.measured_density) == (
                expected
            )

    def test_matches_reference_pipeline_exactly(self):
        for seed in (3, 21):
            fast = simulate_collision_rate(
                6, 5.0, ExponentialDuration(1.0),
                horizon=150.0, rng=random.Random(seed), warmup=1.0,
            )
            ref = _simulate_collision_rate_reference(
                6, 5.0, ExponentialDuration(1.0),
                horizon=150.0, rng=random.Random(seed), warmup=1.0,
            )
            assert (fast.transactions, fast.collision_rate,
                    fast.measured_density) == (
                ref.transactions, ref.collision_rate, ref.measured_density
            )

    def test_seed_kwarg_matches_explicit_rng(self):
        by_seed = simulate_collision_rate(
            6, 5.0, FixedDuration(1.0), horizon=100.0, seed=13
        )
        by_rng = simulate_collision_rate(
            6, 5.0, FixedDuration(1.0), horizon=100.0, rng=random.Random(13)
        )
        assert by_seed == by_rng


class TestBatchKernel:
    """``_collision_flags`` / ``_measured_density`` against the replay
    oracle, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(_arrivals())
    @example(([], [], []))  # n = 0
    @example(([3.0], [1.0], [0]))  # n = 1
    @example(([0.0], [0.0], [0]))  # n = 1, zero duration at time 0
    @example(([1.0, 1.0, 1.0], [0.5, 0.5, 0.5], [0, 0, 0]))  # id_bits = 0
    @example(([0.0, 1.0], [1.0, 1.0], [2, 2]))  # end exactly at next start
    @example(([2.0, 2.0], [0.0, 0.0], [1, 1]))  # zero durations, equal starts
    @example(([0.0, 0.5, 2.0], [5.0, 0.25, 0.1], [1, 1, 1]))  # running max
    @example(([0.0, 1.0], [math.nextafter(1.0, 2.0), 1.0], [0, 0]))  # one ulp past
    @example(([0.0, 1.0, 4.0], [3.0, 0.5, 1.0], [3, 3, 3]))  # max ends before
    def test_matches_replay_oracle(self, arrivals):
        starts, durations, identifiers = arrivals
        flags, density = _oracle(starts, durations, identifiers)
        got = _collision_flags(starts, durations, identifiers)
        assert got.dtype == bool
        assert got.tolist() == flags
        assert _measured_density(starts, durations) == density

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), max_size=25),
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), max_size=25),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_equal_starts_from_two_streams(self, a, b, dur_a, dur_b, seed):
        # Two time-ordered streams sharing start values, merged the way
        # frame windows merge them: by start, ties by stream order.
        starts = sorted(a) + sorted(b)
        durations = [dur_a] * len(a) + [dur_b] * len(b)
        orders = [0] * len(a) + [1] * len(b)
        old = sorted(
            zip(starts, orders, durations), key=lambda e: (e[0], e[1])
        )
        merged = np.argsort(np.asarray(starts), kind="stable")
        assert [(starts[k], orders[k], durations[k]) for k in merged] == old
        rng = random.Random(seed)
        identifiers = [rng.randrange(2) for _ in old]
        merged_starts = [e[0] for e in old]
        merged_durations = [e[2] for e in old]
        flags, density = _oracle(merged_starts, merged_durations, identifiers)
        got = _collision_flags(merged_starts, merged_durations, identifiers)
        assert got.tolist() == flags
        assert _measured_density(merged_starts, merged_durations) == density

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=6),
        st.sampled_from([FixedDuration(1.0), ExponentialDuration(1.0)]),
        st.floats(min_value=0.0, max_value=40.0),
    )
    def test_simulate_matches_oracle_pipeline(self, seed, bits, sampler, warmup):
        """``simulate_collision_rate`` == the replay pipeline it replaced,
        warmup cut included."""
        rng = random.Random(seed)
        starts, durations = _per_draw_arrivals(5.0, sampler, rng, 0.0, 30.0)
        identifiers = _per_draw_identifiers(bits, rng, len(starts))
        log = TransactionLog()
        tracked = _replay(starts, durations, identifiers, log, warmup)
        mc = simulate_collision_rate(
            bits, 5.0, sampler, horizon=30.0, seed=seed, warmup=warmup
        )
        assert mc.measured_density == log.measured_density()
        assert mc.transactions == len(tracked)
        if tracked:
            collided = sum(1 for txn in tracked if log.collided(txn))
            assert mc.collision_rate == collided / len(tracked)
        else:
            assert math.isnan(mc.collision_rate)


#: Identifier widths at every word-layout edge: one word, a full word,
#: the first two-word draw, and the widest supported space.
_ID_BITS = [0, 1, 2, 5, 16, 31, 32, 33, 62]


class TestBulkDraws:
    """The bulk kernels against the per-draw loops, values and stream
    end state bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.one_of(
            st.sampled_from([1e-4, 0.05, 1.0, 5.0, 37.5, 400.0]),
            st.floats(min_value=1e-3, max_value=200.0),
        ),
        st.sampled_from([0.0, 0.5, 7.25, 123.456]),
        st.sampled_from([0.0, 1e-3, 0.5, 10.0, 30.0]),
    )
    @example(0, 1e-4, 0.0, 1.0)  # almost surely no arrival
    @example(3, 5.0, 7.25, 0.0)  # empty window: one gap drawn
    def test_poisson_times_match_per_draw_loop(self, seed, rate, start, width):
        plain, bulk = random.Random(seed), random.Random(seed)
        expected, _ = _per_draw_arrivals(
            rate, FixedDuration(1.0), plain, start, start + width
        )
        got = _poisson_times(rate, bulk, start, start + width)
        assert got.dtype == np.float64
        assert got.tolist() == expected
        assert bulk.getstate() == plain.getstate()

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from(_ID_BITS),
        st.integers(min_value=0, max_value=300),
    )
    def test_identifiers_match_per_draw_loop(self, seed, bits, n):
        plain, bulk = random.Random(seed), random.Random(seed)
        expected = _per_draw_identifiers(bits, plain, n)
        got = _draw_identifiers(IdentifierSpace(bits), bulk, n)
        assert got.tolist() == expected
        assert bulk.getstate() == plain.getstate()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([0.01, 2.0, 9.5]),
        st.sampled_from([0.0, 3.5]),
        st.sampled_from(_ID_BITS),
    )
    def test_arrivals_then_identifiers_share_one_stream(self, seed, rate, start, bits):
        """Monte Carlo draws identifiers from the arrivals' stream next,
        so the arrival kernel's end state decides every identifier."""
        plain, bulk = random.Random(seed), random.Random(seed)
        starts, durations = _per_draw_arrivals(
            rate, FixedDuration(0.5), plain, start, start + 20.0
        )
        identifiers = _per_draw_identifiers(bits, plain, len(starts))
        got_starts, got_durations = _generate_arrivals(
            rate, FixedDuration(0.5), bulk, start, start + 20.0
        )
        got_ids = _draw_identifiers(IdentifierSpace(bits), bulk, len(got_starts))
        assert got_starts.tolist() == starts
        assert got_durations.tolist() == durations
        assert got_ids.tolist() == identifiers
        assert bulk.getstate() == plain.getstate()

    def test_chunked_horizon_matches_per_draw_loop(self, monkeypatch):
        import repro.core.montecarlo as mc

        monkeypatch.setattr(mc, "_CHUNK_ARRIVALS", 7)
        for seed in range(5):
            plain, bulk = random.Random(seed), random.Random(seed)
            expected, _ = _per_draw_arrivals(
                3.0, FixedDuration(1.0), plain, 1.0, 40.0
            )
            assert len(expected) > 7 * 5
            assert _poisson_times(3.0, bulk, 1.0, 40.0).tolist() == expected
            assert bulk.getstate() == plain.getstate()

    @pytest.mark.parametrize(
        "rate, start, stop",
        [
            (math.nan, 0.0, 1.0),
            (math.inf, 0.0, 1.0),
            (0.0, 0.0, 1.0),
            (1.0, math.nan, 1.0),
            (1.0, 0.0, math.inf),
        ],
    )
    def test_poisson_times_reject_unbounded_runs(self, rate, start, stop):
        rng = random.Random(1)
        before = rng.getstate()
        with pytest.raises(ValueError):
            _poisson_times(rate, rng, start, stop)
        assert rng.getstate() == before


class TestBulkDrawsUnderSanitizer:
    """Under DetSan the bulk gate says no: the draws go one at a time,
    booked at this module's call sites, and the numbers do not move."""

    def test_fixed_duration_draws_are_booked_per_draw(self):
        from repro.analysis.sanitizer import DetSanContext, sanitizing
        from repro.sim.rng import RngRegistry

        def run():
            return simulate_collision_rate(
                6, 5.0, FixedDuration(1.0), horizon=60.0,
                rng=RngRegistry(5).stream("mc"),
            )

        plain = run()
        with sanitizing(DetSanContext(seed=0)) as san:
            watched = run()
            payloads = san.observations()
        assert watched == plain
        sites = {}
        for payload in payloads:
            sites.update(payload.get("draws", {}).get("mc", {}))
        assert sites and all("core/montecarlo.py" in site for site in sites)
        gaps = sum(n for site, n in sites.items() if site.endswith(":_generate_arrivals"))
        # One gap per arrival plus the one that crosses the horizon, and
        # one booked ``randrange`` per identifier (its rejection redraws
        # stay inside the underlying stream).
        assert gaps == plain.transactions + 1
        assert sum(sites.values()) - gaps == plain.transactions


class TestSharding:
    PIN_SMALL = (949, 0.12539515279241306, 4.561522717310129)
    PIN_LONG = (24063, 0.02169305572871213, 11.909173485859137)

    def _small(self, runner=None, shards=4):
        return simulate_collision_rate(
            6, 5.0, ExponentialDuration(1.0), horizon=200.0,
            warmup=2.0, seed=42, shards=shards, runner=runner,
        )

    def test_sharded_pins(self):
        mc = self._small()
        assert (mc.transactions, mc.collision_rate, mc.measured_density) == (
            self.PIN_SMALL
        )
        long = simulate_collision_rate(
            10, 12.0, ExponentialDuration(1.0), horizon=2000.0, seed=9, shards=4
        )
        assert (long.transactions, long.collision_rate,
                long.measured_density) == self.PIN_LONG

    def test_deterministic_across_worker_counts_and_repeats(self):
        from repro.exec import TrialRunner

        baseline = self._small()
        for workers in (1, 3):
            assert self._small(runner=TrialRunner(workers=workers)) == baseline
        assert self._small() == baseline

    def test_stitch_matches_brute_force_oracle(self):
        """Sharded collision counts equal O(n^2) overlap ground truth."""
        from repro.exec.keys import segment_seed

        bits, rate, horizon = 5, 4.0, 60.0
        samplers = (ExponentialDuration(1.0), FixedDuration(1.0))
        for seed, shards, sampler in itertools.product((1, 2, 3), (2, 3, 5), samplers):
            txns = []
            for i in range(shards):
                lo = (horizon * i) / shards
                hi = (horizon * (i + 1)) / shards
                rng = random.Random(segment_seed(seed, i))
                starts, durations = _per_draw_arrivals(
                    rate, sampler, rng, lo, hi
                )
                idents = _per_draw_identifiers(bits, rng, len(starts))
                txns += [
                    (starts[k], starts[k] + durations[k], idents[k])
                    for k in range(len(starts))
                ]
            collided = set()
            for a in range(len(txns)):
                for b in range(a + 1, len(txns)):
                    sa, ea, ia = txns[a]
                    sb, eb, ib = txns[b]
                    if ia == ib and sa < eb and sb < ea:
                        collided.add(a)
                        collided.add(b)

            mc = simulate_collision_rate(
                bits, rate, sampler,
                horizon=horizon, seed=seed, shards=shards,
            )
            assert mc.transactions == len(txns)
            assert round(mc.collision_rate * mc.transactions) == len(collided)

    def test_stitch_end_at_later_start_does_not_contend(self):
        from repro.core.montecarlo import _id_dtype, _pack, _stitch_segments

        def segment(starts, identifiers, tails):
            return {
                "n": len(starts),
                "starts": _pack(np.asarray(starts, dtype="<f8")),
                "identifiers": _pack(np.asarray(identifiers, dtype=_id_dtype(6))),
                "flagged": set(),
                "tails": tails,
            }

        # Segment 0's arrival with id 5 is open over [9, 12) and the
        # one with id 7 over [3, 25): both carry across the cut at 10,
        # and only the second across the cut at 20.
        segments = [
            segment([3.0, 9.0], [7, 5], [[25.0, 7, 0], [12.0, 5, 1]]),
            segment([11.0, 12.0, 12.5], [5, 5, 7], []),
            segment([24.0, 25.0], [7, 7], []),
        ]
        _stitch_segments(segments, [0.0, 10.0, 20.0, 30.0], _id_dtype(6))
        assert [sorted(seg["flagged"]) for seg in segments] == [[0, 1], [0, 2], [0]]

    @pytest.mark.parametrize("bits", [0, 5, 16, 17, 62])
    def test_segment_transport_round_trips_arrivals(self, bits):
        from repro.core.montecarlo import _head, _id_dtype, _montecarlo_segment

        sampler = ExponentialDuration(1.0)
        value = _montecarlo_segment(bits, 5.0, sampler, 40.0, 2, 1, seed=77)
        segment = json.loads(json.dumps(value))
        rng = random.Random(77)
        starts, _ = _per_draw_arrivals(5.0, sampler, rng, 20.0, 40.0)
        identifiers = _per_draw_identifiers(bits, rng, len(starts))
        packed_starts, packed_ids = _head(segment, math.inf, _id_dtype(bits))
        assert packed_starts.tolist() == starts
        assert packed_ids.tolist() == identifiers
        # Every prefix decodes to exactly the arrivals before the cut.
        for k in range(len(starts) + 1):
            until = starts[k] if k < len(starts) else math.inf
            head_starts, head_ids = _head(segment, until, _id_dtype(bits))
            assert head_starts.tolist() == starts[:k]
            assert head_ids.tolist() == identifiers[:k]

    def test_warmup_excludes_early_transactions(self):
        full = simulate_collision_rate(
            6, 5.0, ExponentialDuration(1.0), horizon=100.0, seed=8, shards=2
        )
        warmed = simulate_collision_rate(
            6, 5.0, ExponentialDuration(1.0), horizon=100.0, seed=8,
            shards=2, warmup=50.0,
        )
        assert 0 < warmed.transactions < full.transactions

    def test_empty_segments_give_nan(self):
        mc = simulate_collision_rate(
            8, 0.0001, FixedDuration(1.0), horizon=1.0, seed=1, shards=2
        )
        assert mc.transactions == 0
        assert math.isnan(mc.collision_rate)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_collision_rate(6, 5.0, FixedDuration(1.0), shards=0)
        with pytest.raises(ValueError):  # shards>1 needs a seed
            simulate_collision_rate(6, 5.0, FixedDuration(1.0), shards=2)
        with pytest.raises(ValueError):  # rng cannot be split into segments
            simulate_collision_rate(
                6, 5.0, FixedDuration(1.0), shards=2, seed=1,
                rng=random.Random(1),
            )

    def test_sharded_failure_surfaces_as_exec_error(self):
        from repro.exec import ExecError

        with pytest.raises(ExecError):
            # A negative-duration sampler fails inside every segment.
            simulate_collision_rate(
                6, 5.0, FixedDuration(-1.0), horizon=10.0, seed=1, shards=2
            )


class TestReplication:
    def test_shards_one_is_the_classic_point(self):
        """shards=1 must not perturb derived seeds or recorded results."""
        classic = replicate_collision_rate(
            6, 5.0, ExponentialDuration(1.0), trials=2, horizon=50.0
        )
        explicit = replicate_collision_rate(
            6, 5.0, ExponentialDuration(1.0), trials=2, horizon=50.0, shards=1
        )
        assert classic == explicit

    def test_sharded_replication_is_deterministic(self):
        first = replicate_collision_rate(
            6, 5.0, ExponentialDuration(1.0), trials=2, horizon=60.0, shards=3
        )
        second = replicate_collision_rate(
            6, 5.0, ExponentialDuration(1.0), trials=2, horizon=60.0, shards=3
        )
        assert first == second
        assert not math.isnan(first[0])

    def test_all_replicates_failing_raises(self, monkeypatch):
        from repro.core import montecarlo
        from repro.exec import ExecError, TrialRunner

        def failing_trial(**kwargs):
            raise RuntimeError(f"replicate seed {kwargs['seed']} lost")

        monkeypatch.setattr(montecarlo, "_montecarlo_trial", failing_trial)
        with pytest.raises(ExecError, match="all 3 replicates failed.*lost"):
            replicate_collision_rate(
                6, 5.0, ExponentialDuration(1.0), trials=3, horizon=20.0,
                runner=TrialRunner(workers=1),
            )

    def test_partial_failure_drops_failed_replicates(self, monkeypatch):
        from repro.core import montecarlo
        from repro.exec import TrialRunner

        real = montecarlo._montecarlo_trial
        calls = []

        def flaky_trial(**kwargs):
            calls.append(kwargs["seed"])
            if len(calls) == 1:
                raise RuntimeError("first replicate lost")
            return real(**kwargs)

        monkeypatch.setattr(montecarlo, "_montecarlo_trial", flaky_trial)
        mean, _, results = replicate_collision_rate(
            6, 5.0, ExponentialDuration(1.0), trials=3, horizon=20.0,
            runner=TrialRunner(workers=1),
        )
        assert len(results) == 2
        assert not math.isnan(mean)

    def test_validation(self):
        with pytest.raises(ValueError):
            replicate_collision_rate(
                6, 5.0, ExponentialDuration(1.0), trials=0
            )
        with pytest.raises(ValueError):
            replicate_collision_rate(
                6, 5.0, ExponentialDuration(1.0), trials=1, shards=0
            )
