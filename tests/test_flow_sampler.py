"""The windowed flow-level collision sampler.

The load-bearing property (ISSUE 7 satellite): across the Figure-4
grid the flow sampler's mean collision rate converges to the analytic
model it draws from — Eq. 4 (`collision_probability`) under
``model="eq4"``, the exact mixed-duration Poisson model under
``model="mixed"`` — within a few standard errors.  Determinism and
window accounting are pinned alongside.
"""

import math
import random
from contextlib import nullcontext

import pytest

from repro.analysis.sanitizer.runtime import sanitizing
from repro.core.model import collision_probability, collision_probability_mixed
from repro.flow.fastpath import pure_sampling
from repro.flow.sampler import (
    WindowSpec,
    poisson,
    sample_flow,
    sample_window,
    window_collision_probability,
    window_plan,
)
from repro.flow.streams import FlowScenario, TransactionStream, figure4_scenario

FIG4_BITS = (2, 3, 5, 8)
FIG4_DENSITIES = (2.0, 5.0, 16.0)


def _tolerance(p: float, n: int) -> float:
    """Four standard errors of a Bernoulli mean, floored for tiny p."""
    return max(4.0 * math.sqrt(p * (1.0 - p) / max(n, 1)), 0.01)


class TestWindowPlan:
    def test_stationary_stream_fills_every_window(self):
        scenario = figure4_scenario(5, 5.0, horizon=100.0, window=10.0)
        plan = window_plan(scenario)
        assert len(plan) == 10
        for spec in plan:
            assert spec.arrival_rate == pytest.approx(5.0)
            assert spec.density == pytest.approx(5.0)

    def test_partial_overlap_scales_rate(self):
        streams = (
            TransactionStream("base", 2.0, 1.0),
            TransactionStream("burst", 10.0, 1.0, start=5.0, stop=10.0),
        )
        scenario = FlowScenario(5, 20.0, 10.0, streams)
        first, second = window_plan(scenario)
        # Burst active half of window 0: contributes half its rate.
        assert first.arrival_rate == pytest.approx(2.0 + 5.0)
        assert second.arrival_rate == pytest.approx(2.0)
        assert first.density == pytest.approx(7.0)

    def test_density_uses_effective_density_mix(self):
        streams = (
            TransactionStream("short", 4.0, 0.5),
            TransactionStream("long", 1.0, 4.0),
        )
        scenario = FlowScenario(5, 10.0, 10.0, streams)
        (spec,) = window_plan(scenario)
        assert spec.density == pytest.approx(4.0 * 0.5 + 1.0 * 4.0)


class TestPoisson:
    def test_zero_mean(self):
        assert poisson(random.Random(1), 0.0) == 0

    def test_rejects_negative_mean(self):
        with pytest.raises(ValueError):
            poisson(random.Random(1), -1.0)

    def test_large_mean_within_bounds(self):
        # Chunked sampling must not underflow; mean 20k, sd ~141.
        rng = random.Random(7)
        draw = poisson(rng, 20_000.0)
        assert abs(draw - 20_000) < 1_000

    def test_mean_converges(self):
        rng = random.Random(3)
        draws = [poisson(rng, 12.5) for _ in range(2_000)]
        assert sum(draws) / len(draws) == pytest.approx(12.5, rel=0.05)


class _NoDraws(random.Random):
    """A stream that fails the test on its first draw."""

    def random(self):
        raise AssertionError("drew from the stream before rejecting the mean")


#: Means Knuth's loop cannot sample: on NaN it draws once and returns
#: 0, on an infinite mean it never returns, a negative one is meaningless.
BAD_MEANS = pytest.mark.parametrize(
    "mean", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"]
)


class TestBadMeanRejected:
    """A NaN, infinite or negative mean fails before the first draw."""

    @BAD_MEANS
    def test_poisson(self, mean):
        with pytest.raises(ValueError, match="Poisson mean must be finite"):
            poisson(_NoDraws(1), mean)

    @BAD_MEANS
    @pytest.mark.parametrize("path", ["fast", "pure", "sanitizer"])
    def test_sample_window(self, mean, path):
        window = WindowSpec(0, 0.0, 1.0, mean, (0.05,), (mean,), 0.05 * mean)
        # The fast path only takes a plain random.Random; the scalar
        # paths get a stream that fails on its first draw.
        rng = random.Random(1) if path == "fast" else _NoDraws(1)
        before = rng.getstate()
        mode = {
            "fast": nullcontext(),
            "pure": pure_sampling(),
            "sanitizer": sanitizing(),
        }[path]
        with mode, pytest.raises(ValueError, match="Poisson mean must be finite"):
            sample_window(window, 10, rng)
        assert rng.getstate() == before


class TestSamplerDeterminism:
    def test_same_seed_same_result(self):
        scenario = figure4_scenario(4, 5.0, horizon=100.0, window=10.0)
        assert sample_flow(scenario, 42) == sample_flow(scenario, 42)

    def test_different_seeds_differ(self):
        scenario = figure4_scenario(4, 5.0, horizon=100.0, window=10.0)
        assert sample_flow(scenario, 1) != sample_flow(scenario, 2)

    def test_windows_partition_totals(self):
        scenario = figure4_scenario(4, 5.0, horizon=100.0, window=10.0)
        result = sample_flow(scenario, 9)
        assert result.transactions == sum(
            w.transactions for w in result.windows
        )
        assert result.collisions == sum(w.collisions for w in result.windows)
        assert all(w.fidelity == "flow" for w in result.windows)


class TestEq4Convergence:
    """Satellite: flow mean collision rate -> Eq. 4 across the grid."""

    @pytest.mark.parametrize("id_bits", FIG4_BITS)
    @pytest.mark.parametrize("density", FIG4_DENSITIES)
    def test_flow_rate_matches_eq4(self, id_bits, density):
        scenario = figure4_scenario(
            id_bits, density, horizon=400.0, window=25.0
        )
        result = sample_flow(scenario, seed=100 * id_bits + int(density))
        expected = float(collision_probability(id_bits, density))
        # Under model="eq4" every transaction is a Bernoulli(expected)
        # draw, so the mean must sit within sampling noise of Eq. 4.
        eq4 = sample_flow(
            scenario, seed=100 * id_bits + int(density), model="eq4"
        )
        assert eq4.collision_rate == pytest.approx(
            expected, abs=_tolerance(expected, eq4.transactions)
        )
        # The default mixed model converges to its own (exact) target.
        mixed_expected = collision_probability_mixed(id_bits, density, [1.0])
        assert result.collision_rate == pytest.approx(
            mixed_expected, abs=_tolerance(mixed_expected, result.transactions)
        )

    def test_transaction_count_matches_offered_load(self):
        scenario = figure4_scenario(8, 5.0, horizon=400.0, window=25.0)
        result = sample_flow(scenario, 5)
        # Poisson(2000) within five standard deviations.
        assert abs(result.transactions - 2000) < 5 * math.sqrt(2000)


class TestWindowCollisionProbability:
    def test_eq4_clamps_subunit_density(self):
        scenario = figure4_scenario(4, 0.25, horizon=10.0, window=10.0)
        (spec,) = window_plan(scenario)
        # Density below 1 means no expected contention; Eq. 4's domain
        # starts at T=1 where collisions are impossible.
        assert window_collision_probability(4, spec, model="eq4") == 0.0

    def test_unknown_model_rejected(self):
        scenario = figure4_scenario(4, 5.0, horizon=10.0, window=10.0)
        (spec,) = window_plan(scenario)
        with pytest.raises(ValueError):
            window_collision_probability(4, spec, model="exact")

    def test_idle_window_draws_nothing(self):
        stream = TransactionStream("late", 5.0, 1.0, start=50.0)
        scenario = FlowScenario(4, 100.0, 10.0, (stream,))
        plan = window_plan(scenario)
        outcome = sample_window(plan[0], 4, random.Random(1))
        assert outcome.transactions == 0 and outcome.collisions == 0


class TestMemoization:
    """`window_collision_probability` memoizes on the load mix.

    ISSUE 8 satellite: windows sharing (rate, durations, weights,
    density) — every window of a stationary scenario, every replicate
    of a calibration grid point — must compute the mixed model's
    numeric integration once, and the memoized value must equal the
    direct model evaluation exactly.
    """

    def setup_method(self):
        from repro.flow.sampler import _collision_probability_cached

        _collision_probability_cached.cache_clear()

    def test_equivalent_windows_share_one_computation(self):
        from repro.flow.sampler import _collision_probability_cached

        scenario = figure4_scenario(5, 5.0, horizon=100.0, window=10.0)
        plan = window_plan(scenario)
        assert len(plan) == 10
        values = {
            window_collision_probability(5, spec, model="mixed")
            for spec in plan
        }
        assert len(values) == 1  # stationary load: one distinct mix
        info = _collision_probability_cached.cache_info()
        assert info.misses == 1
        assert info.hits == len(plan) - 1

    def test_memoized_value_equals_direct_model(self):
        for density in FIG4_DENSITIES:
            scenario = figure4_scenario(5, density, horizon=50.0, window=10.0)
            spec = window_plan(scenario)[0]
            expected = collision_probability_mixed(
                5, spec.arrival_rate, list(spec.durations), list(spec.weights)
            )
            # Twice: the miss and the hit must both equal the model.
            assert window_collision_probability(5, spec) == expected
            assert window_collision_probability(5, spec) == expected

    def test_eq4_memoized_value_equals_direct_model(self):
        scenario = figure4_scenario(4, 5.0, horizon=50.0, window=10.0)
        spec = window_plan(scenario)[0]
        expected = collision_probability(4, max(spec.density, 1.0))
        assert window_collision_probability(4, spec, model="eq4") == expected
        assert window_collision_probability(4, spec, model="eq4") == expected

    def test_distinct_mixes_do_not_collide(self):
        light = window_plan(figure4_scenario(5, 2.0, horizon=10.0, window=10.0))[0]
        heavy = window_plan(figure4_scenario(5, 16.0, horizon=10.0, window=10.0))[0]
        assert window_collision_probability(5, light) != (
            window_collision_probability(5, heavy)
        )
