"""Tests for the collision-trial harness (short runs)."""

import pytest

from repro.experiments.harness import (
    CollisionTrialConfig,
    replicate,
    run_collision_trial,
)
from repro.topology.graphs import Star


def quick(**kwargs):
    defaults = dict(id_bits=5, n_senders=3, duration=5.0, seed=1)
    defaults.update(kwargs)
    return CollisionTrialConfig(**defaults)


class TestConfig:
    def test_paper_defaults(self):
        config = CollisionTrialConfig()
        assert config.n_senders == 5
        assert config.packet_bytes == 80
        assert config.duration == 120.0
        assert config.mtu_bytes == 27

    def test_invalid_selector_rejected(self):
        with pytest.raises(ValueError):
            CollisionTrialConfig(selector="psychic")

    def test_need_a_sender(self):
        with pytest.raises(ValueError):
            CollisionTrialConfig(n_senders=0)

    # Each of these used to misbehave inside the trial: inf duration or
    # bitrate hangs, a NaN timeout never evicts, a zero host link
    # divides by zero.  The config must refuse them up front.
    @pytest.mark.parametrize(
        "field", ["duration", "bitrate", "host_link_bitrate", "reassembly_timeout"]
    )
    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
    def test_timing_fields_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            CollisionTrialConfig(**{field: value})

    @pytest.mark.parametrize("value", [-0.1, 1.5, float("nan")])
    def test_listen_duty_cycle_must_be_a_fraction(self, value):
        with pytest.raises(ValueError, match="listen_duty_cycle"):
            CollisionTrialConfig(listen_duty_cycle=value)

    def test_host_gap_positive(self):
        assert CollisionTrialConfig().host_gap > 0


class TestSingleTrial:
    def test_trial_produces_traffic_and_measurements(self):
        result = run_collision_trial(quick())
        assert result.packets_offered > 0
        assert result.received_unique > 0
        assert 0.0 <= result.collision_loss_rate <= 1.0
        assert result.measured_density > 1.0

    def test_determinism_same_seed_same_result(self):
        a = run_collision_trial(quick(seed=42))
        b = run_collision_trial(quick(seed=42))
        assert a.collision_loss_rate == b.collision_loss_rate
        assert a.received_unique == b.received_unique
        assert a.packets_offered == b.packets_offered

    def test_different_seeds_differ(self):
        a = run_collision_trial(quick(seed=1, id_bits=3))
        b = run_collision_trial(quick(seed=2, id_bits=3))
        # Counts virtually never coincide exactly across seeds.
        assert (a.would_be_lost, a.received_unique) != (
            b.would_be_lost,
            b.received_unique,
        )

    def test_more_identifier_bits_fewer_collisions(self):
        small = run_collision_trial(quick(id_bits=2, duration=10.0))
        large = run_collision_trial(quick(id_bits=12, duration=10.0))
        assert large.collision_loss_rate < small.collision_loss_rate

    def test_oracle_never_collides(self):
        result = run_collision_trial(quick(selector="oracle", id_bits=4))
        assert result.collision_loss_rate == 0.0
        assert result.ground_truth_collision_rate == 0.0

    def test_listening_beats_uniform(self):
        uniform = run_collision_trial(quick(id_bits=4, duration=15.0))
        listening = run_collision_trial(
            quick(id_bits=4, duration=15.0, selector="listening")
        )
        assert listening.collision_loss_rate < uniform.collision_loss_rate

    def test_custom_topology_factory(self):
        result = run_collision_trial(
            quick(topology_factory=lambda n: Star(hub=n, leaves=range(n)))
        )
        assert result.received_unique > 0

    def test_e2e_loss_at_least_would_be_never_negative(self):
        result = run_collision_trial(quick(id_bits=3, duration=10.0))
        assert 0.0 <= result.e2e_loss_rate <= 1.0


class TestReplicate:
    def test_replicate_aggregates(self):
        mean, sd, results = replicate(quick(), trials=3)
        assert len(results) == 3
        assert 0.0 <= mean <= 1.0
        assert sd >= 0.0

    def test_trials_use_distinct_seeds(self):
        _, _, results = replicate(quick(id_bits=3), trials=3)
        rates = {r.would_be_lost for r in results}
        assert len(rates) > 1

    def test_replicate_deterministic(self):
        m1, s1, _ = replicate(quick(), trials=2)
        m2, s2, _ = replicate(quick(), trials=2)
        assert m1 == m2 and s1 == s2

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            replicate(quick(), trials=0)
