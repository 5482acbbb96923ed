"""The vectorised sampling fast path is bit-identical to the scalar loop.

Three facts make the NumPy generator exact (see the module docstring
of :mod:`repro.flow.fastpath`); each is pinned here directly, and then
the end-to-end guarantee — same outcomes *and* same final stream state
as the scalar loop — is checked on real windows, on every branch of
the uniform tape, along with every eligibility gate that makes the
fast path step aside.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow import fastpath
from repro.flow.fastpath import (
    HAVE_NUMPY,
    _BLOCK,
    _MIN_FAST_MEAN,
    fastpath_stats,
    pure_sampling,
    sample_window_fast,
)
from repro.flow.sampler import WindowSpec, sample_window

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")

if HAVE_NUMPY:
    import numpy as np


def big_window(mean=8192.0, width=10.0, index=0):
    """A window whose expected draw count clears the fast-path gate."""
    rate = mean / width
    return WindowSpec(
        index=index,
        t0=index * width,
        t1=(index + 1) * width,
        arrival_rate=rate,
        durations=(0.05,),
        weights=(rate,),
        density=rate * 0.05,
    )


@needs_numpy
class TestTransplantFacts:
    def test_random_sample_matches_random_random(self):
        # Fact 1: both fold the same two MT19937 words into one double.
        rng = random.Random(123)
        state = rng.getstate()
        rs = np.random.RandomState(0)
        rs.set_state(
            ("MT19937", np.asarray(state[1][:-1], dtype=np.uint32), state[1][-1])
        )
        vector = rs.random_sample(1000)
        scalars = [rng.random() for _ in range(1000)]
        assert vector.tolist() == scalars

    def test_cumprod_matches_sequential_product(self):
        # Fact 2: cumprod rounds exactly like the scalar running product.
        rng = random.Random(7)
        draws = np.asarray([rng.random() for _ in range(5000)])
        running = []
        product = 1.0
        for value in draws.tolist():
            product *= value
            running.append(product)
        assert np.cumprod(draws).tolist() == running
        assert np.multiply.accumulate(draws).tolist() == running

    def test_generator_matches_random_random(self):
        # Fact 1 for the generator the fast path seats each stream in,
        # read through ``random(out=...)`` in uneven blocks as the tape
        # reads it.
        rng = random.Random(321)
        source = fastpath._seat(rng.getstate()[1])
        tape = np.empty(1000)
        for lo, hi in ((0, 1), (1, 624), (624, 625), (625, 1000)):
            source.random(out=tape[lo:hi])
        assert tape.tolist() == [rng.random() for _ in range(1000)]

    def test_raw_advance_matches_scalar_draws(self):
        # Fact 3's fallback: two raw words per double put the generator
        # exactly where that many scalar draws put the stream.
        rng = random.Random(11)
        source = fastpath._seat(rng.getstate()[1])
        source.bit_generator.random_raw(2 * 1500, output=False)
        for _ in range(1500):
            rng.random()
        inner = source.bit_generator.state["state"]
        assert (*inner["key"].tolist(), inner["pos"]) == rng.getstate()[1]

    def test_final_state_equals_scalar_advance(self):
        # Fact 3: write-back leaves the stream exactly where the same
        # number of scalar draws would have.
        fast = random.Random(99)
        pure = random.Random(99)
        window = big_window()
        outcome = sample_window_fast(window, 10, fast)
        assert outcome is not None
        with pure_sampling():
            sample_window(window, 10, pure)
        assert fast.getstate() == pure.getstate()
        # The streams keep agreeing on every draw afterwards.
        assert [fast.random() for _ in range(10)] == [
            pure.random() for _ in range(10)
        ]


@needs_numpy
class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**31])
    @pytest.mark.parametrize("mean", [4096.0, 8192.0, 100_000.0])
    def test_outcome_and_state_match_pure(self, seed, mean):
        window = big_window(mean=mean)
        fast_rng = random.Random(seed)
        pure_rng = random.Random(seed)
        fast = sample_window(window, 10, fast_rng)
        with pure_sampling():
            pure = sample_window(window, 10, pure_rng)
        assert fast == pure
        assert fast_rng.getstate() == pure_rng.getstate()

    def test_chunked_means_cross_poisson_chunks(self):
        # Means past _POISSON_CHUNK exercise the chunk loop; the draw
        # sequence must still be the scalar one.
        window = big_window(mean=1750.0 * 3)
        fast_rng = random.Random(5)
        pure_rng = random.Random(5)
        assert sample_window(window, 8, fast_rng) == _pure(window, 8, pure_rng)
        assert fast_rng.getstate() == pure_rng.getstate()

    def test_eq4_model_matches(self):
        window = big_window()
        fast_rng = random.Random(3)
        pure_rng = random.Random(3)
        fast = sample_window(window, 10, fast_rng, model="eq4")
        with pure_sampling():
            pure = sample_window(window, 10, pure_rng, model="eq4")
        assert fast == pure
        assert fast_rng.getstate() == pure_rng.getstate()

    def test_bad_model_raises_with_stream_advanced(self):
        window = big_window()
        fast_rng = random.Random(17)
        pure_rng = random.Random(17)
        with pytest.raises(ValueError):
            sample_window(window, 10, fast_rng, model="nope")
        with pure_sampling(), pytest.raises(ValueError):
            sample_window(window, 10, pure_rng, model="nope")
        # Both paths left the stream past the Poisson draws.
        assert fast_rng.getstate() == pure_rng.getstate()


def exact_window(mean):
    """A window whose ``arrival_rate * width`` is exactly ``mean``."""
    return big_window(mean=mean, width=1.0)


def assert_matches_pure(window, seed, model="mixed"):
    fast_rng = random.Random(seed)
    pure_rng = random.Random(seed)
    fast = sample_window(window, 10, fast_rng, model=model)
    with pure_sampling():
        pure = sample_window(window, 10, pure_rng, model=model)
    assert fast == pure
    assert fast_rng.getstate() == pure_rng.getstate()
    return fast


@pytest.fixture
def seat_calls(monkeypatch):
    """The state words ``fastpath._seat`` is called with in the test."""
    calls = []
    seat = fastpath._seat
    monkeypatch.setattr(
        fastpath, "_seat", lambda keys: calls.append(keys) or seat(keys)
    )
    return calls


@needs_numpy
class TestTapeBranches:
    """Each way the tape can end a window, against the scalar loop."""

    def test_n_exceeds_one_bernoulli_block(self):
        mean = 1.1 * 2**20
        outcome = assert_matches_pure(exact_window(mean), 6)
        assert outcome.transactions > 16 * _BLOCK

    def test_knuth_chunk_straddles_a_refill(self):
        # The Poisson phase alone reads more than one block, so some
        # chunk's probe runs past the end of the first refill and the
        # unread tail moves to the front of the tape.
        assert_matches_pure(exact_window(1.5 * _BLOCK), 9)

    def test_overdraw_seats_the_initial_state_again(self, seat_calls):
        # Seed 830 draws n three sigma under the mean, so the tape ends
        # past the window's last draw and the end state is rebuilt.
        assert_matches_pure(exact_window(_MIN_FAST_MEAN), 830)
        assert len(seat_calls) == 2

    def test_tape_ending_on_the_last_draw_reads_the_generator(self, seat_calls):
        assert_matches_pure(exact_window(_MIN_FAST_MEAN), 0)
        assert len(seat_calls) == 1

    @pytest.mark.parametrize("mean", [520.0, 3 * _MIN_FAST_MEAN])
    def test_probe_misses_double_the_probe(self, mean, monkeypatch):
        # A one-draw probe misses on every chunk, so each stop is found
        # only after the probe has doubled past it.  On the small window
        # a doubled probe outgrows the whole tape, which then grows.
        monkeypatch.setattr(fastpath, "_MIN_FAST_MEAN", 1e-9)
        monkeypatch.setattr(fastpath, "_CHUNK_PROBE", 1)
        monkeypatch.setattr(fastpath, "_probe", lambda mean: 1)
        for seed in range(8):
            assert_matches_pure(exact_window(mean), seed)

    def test_mean_exactly_at_the_gate(self):
        window = exact_window(_MIN_FAST_MEAN)
        assert window.arrival_rate * window.width == _MIN_FAST_MEAN
        assert sample_window_fast(window, 10, random.Random(2)) is not None
        assert_matches_pure(window, 2)

    @pytest.mark.parametrize("mean", [0.4, 3.0, 40.0, 499.5, 500.0, 1000.5])
    def test_small_means_below_the_gate(self, mean, monkeypatch):
        # The gate is a cost decision only: with it lowered, tiny means
        # (n == 0 included, a budget under one probe) still match.
        monkeypatch.setattr(fastpath, "_MIN_FAST_MEAN", 1e-9)
        counts = []
        for seed in range(8):
            assert sample_window_fast(exact_window(mean), 10, random.Random(seed))
            counts.append(assert_matches_pure(exact_window(mean), seed).transactions)
        assert mean > 1.0 or 0 in counts

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        mean=st.floats(min_value=_MIN_FAST_MEAN, max_value=150_000.0),
        model=st.sampled_from(["mixed", "eq4"]),
    )
    def test_sweep_seeds_and_means(self, seed, mean, model):
        assert_matches_pure(exact_window(mean), seed, model=model)


def _pure(window, id_bits, rng):
    with pure_sampling():
        return sample_window(window, id_bits, rng)


class TestEligibilityGates:
    @needs_numpy
    def test_small_mean_uses_scalar_path(self):
        window = big_window(mean=_MIN_FAST_MEAN / 2)
        assert sample_window_fast(window, 10, random.Random(0)) is None

    @needs_numpy
    def test_pure_sampling_forces_scalar(self):
        with pure_sampling():
            assert sample_window_fast(big_window(), 10, random.Random(0)) is None
            assert fastpath_stats()["forced_pure"]
        assert not fastpath_stats()["forced_pure"]

    @needs_numpy
    def test_subclassed_rng_is_ineligible(self):
        class Counting(random.Random):
            calls = 0

            def random(self):
                type(self).calls += 1
                return super().random()

        rng = Counting(0)
        assert sample_window_fast(big_window(), 10, rng) is None
        # The scalar fallback keeps drawing through the override.
        sample_window(big_window(), 10, rng)
        assert Counting.calls > 0

    @needs_numpy
    def test_sanitizer_forces_scalar(self):
        from repro.analysis.sanitizer.runtime import sanitizing

        with sanitizing():
            assert fastpath_stats()["sanitizer"]
            assert sample_window_fast(big_window(), 10, random.Random(0)) is None
        assert not fastpath_stats()["sanitizer"]

    def test_sample_window_agrees_under_sanitizer(self):
        # DetSan runs must still produce the same numbers as plain
        # runs — the sanitizer only changes *how* draws happen.
        from repro.analysis.sanitizer.runtime import sanitizing

        window = big_window()
        plain = sample_window(window, 10, random.Random(8))
        with sanitizing():
            sanitized = sample_window(window, 10, random.Random(8))
        assert sanitized == plain
