"""Golden-value regression tests.

The reproduction's selling point is bit-for-bit determinism; these tests
pin exact seeded outputs of the main pipelines so any unintended
behavioural change — a reordered RNG draw, a changed tie-break, a codec
tweak — fails loudly rather than silently shifting every published
number.

If a change is *intentional* (a bug fix that legitimately alters
results), update the constants here and note it in EXPERIMENTS.md.
"""

import dataclasses

import pytest

from repro.core import model
from repro.exec import canonical_point, derive_trial_seed
from repro.experiments.harness import CollisionTrialConfig, replicate, run_collision_trial
from repro.radio.channel import BernoulliChannel


class TestAnalyticGoldenValues:
    """Closed forms: these must never drift at all."""

    def test_eq4_values(self):
        assert float(model.p_success(9, 16)) == pytest.approx(
            0.9430357887310378, abs=1e-15
        )
        assert float(model.p_success(4, 5)) == pytest.approx(
            (15 / 16) ** 8, abs=1e-15
        )

    def test_figure1_optima(self):
        assert model.optimal_identifier_bits(16, 16) == (
            9,
            pytest.approx(0.6035429047878642, abs=1e-12),
        )
        assert model.optimal_identifier_bits(16, 256)[0] == 13
        assert model.optimal_identifier_bits(16, 65536)[0] == 22
        assert model.optimal_identifier_bits(128, 16)[0] == 12

    def test_crossover_value(self):
        assert model.crossover_density(16, 16) == pytest.approx(529.7, abs=1.0)

    def test_lifetime_gains(self):
        assert model.network_lifetime_gain(16, 32, 16) == pytest.approx(
            1.8106, abs=1e-3
        )

    def test_mixed_model_value(self):
        assert model.p_success_mixed(6, 5.0, [1.0]) == pytest.approx(
            0.8553453273074225, abs=1e-12
        )


class TestSimulationGoldenValues:
    """Seeded end-to-end runs: pin the exact counters.

    These encode the whole stack's determinism — kernel ordering, RNG
    stream derivation, MAC timing, codec layout, reassembly semantics.
    """

    @pytest.fixture(scope="class")
    def trial(self):
        return run_collision_trial(
            CollisionTrialConfig(
                id_bits=4, n_senders=5, duration=10.0, selector="uniform", seed=7
            )
        )

    def test_traffic_counters(self, trial):
        assert trial.packets_offered == 356
        assert trial.received_unique == 356

    def test_collision_counters(self, trial):
        assert trial.would_be_lost == 113
        assert trial.received_aff == 243

    def test_density(self, trial):
        assert trial.measured_density == pytest.approx(4.6679, abs=1e-3)

    def test_listening_variant(self):
        result = run_collision_trial(
            CollisionTrialConfig(
                id_bits=4, n_senders=5, duration=10.0, selector="listening", seed=7
            )
        )
        assert result.would_be_lost == 46
        assert result.received_unique == 356

    # Full TrialResult pins for the medium and driver paths the Figure-4
    # grid does not exercise: RF collisions, a lossy channel, a
    # duty-cycled listener and receiver collision notifications.
    @pytest.mark.parametrize(
        "overrides, expected",
        [
            pytest.param(
                dict(selector="uniform", rf_collisions=True),
                dict(
                    received_unique=72, received_aff=55, would_be_lost=71,
                    collision_loss_rate=0.9861111111111112,
                    e2e_loss_rate=0.2361111111111111,
                    measured_density=4.667884469914174, packets_offered=356,
                    ground_truth_collision_rate=0.36235955056179775,
                    frames_delivered=3930, frames_dropped_rf=4970,
                    frames_dropped_channel=0,
                ),
                id="rf_collisions",
            ),
            pytest.param(
                dict(
                    selector="uniform",
                    channel_factory=lambda sender, receiver: BernoulliChannel(0.1),
                ),
                dict(
                    received_unique=195, received_aff=138, would_be_lost=181,
                    collision_loss_rate=0.9282051282051282,
                    e2e_loss_rate=0.2923076923076923,
                    measured_density=4.667884469914174, packets_offered=356,
                    ground_truth_collision_rate=0.36235955056179775,
                    frames_delivered=8020, frames_dropped_rf=0,
                    frames_dropped_channel=880,
                ),
                id="bernoulli_channel",
            ),
            pytest.param(
                dict(selector="listening", listen_duty_cycle=0.5),
                dict(
                    received_unique=356, received_aff=281, would_be_lost=75,
                    collision_loss_rate=0.21067415730337077,
                    e2e_loss_rate=0.21067415730337077,
                    measured_density=4.667884469914174, packets_offered=356,
                    ground_truth_collision_rate=0.23595505617977527,
                    frames_delivered=8900, frames_dropped_rf=0,
                    frames_dropped_channel=0,
                ),
                id="listen_duty_cycle",
            ),
            pytest.param(
                dict(selector="listening", notify_collisions=True),
                dict(
                    received_unique=356, received_aff=297, would_be_lost=59,
                    collision_loss_rate=0.16573033707865167,
                    e2e_loss_rate=0.16573033707865167,
                    measured_density=4.667884469914174, packets_offered=356,
                    ground_truth_collision_rate=0.16573033707865167,
                    frames_delivered=9675, frames_dropped_rf=0,
                    frames_dropped_channel=0,
                ),
                id="notify_collisions",
            ),
        ],
    )
    def test_trial_result_pins(self, overrides, expected):
        config = CollisionTrialConfig(
            id_bits=4, n_senders=5, duration=10.0, seed=7, **overrides
        )
        result = run_collision_trial(config)
        assert result.config is config
        observed = {
            f.name: getattr(result, f.name)
            for f in dataclasses.fields(result)
            if f.name != "config"
        }
        assert observed == expected

    def test_observability_changes_no_result_bit(self, trial):
        """Tracing and span profiling are observational only.

        The same seeded trial run with a live TraceRecorder on the
        medium *and* a span profiler active must reproduce every golden
        counter exactly — observability must never perturb a simulated
        result.
        """
        from repro.obs.spans import SpanProfiler, profiling
        from repro.sim.trace import TraceRecorder

        recorder = TraceRecorder()
        profiler = SpanProfiler()
        with profiling(profiler):
            observed = run_collision_trial(
                CollisionTrialConfig(
                    id_bits=4, n_senders=5, duration=10.0,
                    selector="uniform", seed=7,
                ),
                recorder=recorder,
            )
        assert observed.packets_offered == trial.packets_offered == 356
        assert observed.received_unique == trial.received_unique
        assert observed.would_be_lost == trial.would_be_lost == 113
        assert observed.received_aff == trial.received_aff == 243
        assert observed.measured_density == trial.measured_density
        # ... and both instruments actually observed the run.
        assert recorder.recorded_counts()["frame.tx"] > 0
        assert any(name.startswith("radio.") for name, _ in profiler.top(50))


class TestTrialSeedDerivation:
    """Pin the replicate-seed convention itself.

    Replicate ``k`` of a grid point runs with
    ``derive_seed(base_seed, f"trial:{point}:{k}")`` where ``point`` is
    the canonical JSON of the point's parameters (the former additive
    ``base_seed + 1000*k`` convention aliased across points and base
    seeds).  These integers are part of the published-results contract:
    a drift here re-rolls every replicated experiment.
    """

    def test_simple_point_seeds(self):
        point = canonical_point({"a": 1})
        assert point == '{"a":1}'
        assert derive_trial_seed(0, point, 0) == 6542360885815430476
        assert derive_trial_seed(0, point, 1) == 674222218145868809

    def test_seeds_depend_on_point_base_seed_and_k(self):
        point_a = canonical_point({"a": 1})
        point_b = canonical_point({"a": 2})
        assert derive_trial_seed(0, point_a, 0) != derive_trial_seed(0, point_b, 0)
        assert derive_trial_seed(0, point_a, 0) != derive_trial_seed(1, point_a, 0)
        assert derive_trial_seed(0, point_a, 0) != derive_trial_seed(0, point_a, 1)

    def test_replicate_pins_derived_seeds_and_mean(self):
        config = CollisionTrialConfig(
            id_bits=4, n_senders=3, duration=5.0, selector="uniform", seed=7
        )
        mean, stdev, results = replicate(config, trials=2)
        assert [r.config.seed for r in results] == [
            3034131586988643165,
            14558277552572621749,
        ]
        assert mean == pytest.approx(0.20833333333333331, abs=1e-12)
        assert stdev == pytest.approx(0.032736425054932766, abs=1e-12)
