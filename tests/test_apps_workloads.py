"""Unit tests for traffic generators."""

import hashlib
import random

import pytest

from repro.aff.driver import AffDriver
from repro.apps.workloads import (
    BurstySender,
    ContinuousStreamSender,
    PeriodicSender,
    PoissonSender,
    random_payload,
)
from repro.core.identifiers import IdentifierSpace, UniformSelector
from repro.radio.medium import BroadcastMedium
from repro.radio.radio import Radio
from repro.sim.engine import Simulator
from repro.topology.graphs import FullMesh

NAN = float("nan")
INF = float("inf")


def build(n=2, id_bits=12):
    sim = Simulator()
    medium = BroadcastMedium(sim, FullMesh(range(n)), rf_collisions=False)
    drivers = [
        AffDriver(
            Radio(medium, node),
            UniformSelector(IdentifierSpace(id_bits), random.Random(node)),
        )
        for node in range(n)
    ]
    return sim, drivers


class TestRandomPayload:
    def test_size_and_determinism(self):
        rng = random.Random(1)
        p = random_payload(rng, 80)
        assert len(p) == 80
        assert random_payload(random.Random(1), 80) == p


class TestContinuousStreamSender:
    def test_saturates_until_deadline(self):
        sim, drivers = build()
        sender = ContinuousStreamSender(
            sim, drivers[0], node_id=0, packet_bytes=80, duration=5.0,
            rng=random.Random(1),
        )
        sender.start()
        sim.run(until=6.0)
        assert sender.packets_offered > 10
        assert drivers[0].stats.packets_sent == sender.packets_offered

    def test_backpressure_keeps_queue_bounded(self):
        sim, drivers = build()
        sender = ContinuousStreamSender(
            sim, drivers[0], node_id=0, packet_bytes=80, duration=5.0,
            rng=random.Random(2),
        )
        sender.start()
        max_depth = [0]

        def sample():
            max_depth[0] = max(max_depth[0], drivers[0].radio.mac.queue_depth)
            sim.schedule(0.01, sample)

        sim.schedule(0.01, sample)
        sim.run(until=5.0)
        # One packet's worth of fragments at most (5 for 80 bytes).
        assert max_depth[0] <= 5

    def test_stops_at_deadline(self):
        sim, drivers = build()
        sender = ContinuousStreamSender(
            sim, drivers[0], node_id=0, packet_bytes=80, duration=2.0,
            rng=random.Random(3),
        )
        sender.start()
        sim.run(until=10.0)
        count = sender.packets_offered
        sim.run(until=20.0)
        assert sender.packets_offered == count

    def test_stagger_delays_first_packet(self):
        sim, drivers = build()
        sender = ContinuousStreamSender(
            sim, drivers[0], node_id=0, packet_bytes=80, duration=5.0,
            rng=random.Random(4), stagger=2.0,
        )
        sender.start()
        first_tx = []
        drivers[0].radio.add_tx_listener(
            lambda f: first_tx.append(sim.now) if not first_tx else None
        )
        sim.run(until=5.0)
        assert first_tx[0] <= 2.0 + 0.1
        assert sender.packets_offered > 0


class TestPeriodicSender:
    def test_rate_matches_interval(self):
        sim, drivers = build()
        sender = PeriodicSender(
            sim, drivers[0], node_id=0, packet_bytes=10, duration=60.0,
            rng=random.Random(1), interval=2.0,
        )
        sender.start()
        sim.run(until=61.0)
        assert sender.packets_offered == pytest.approx(30, abs=2)

    def test_jitter_varies_gaps(self):
        sim, drivers = build()
        times = []
        drivers[0].radio.add_tx_listener(lambda f: times.append(sim.now))
        sender = PeriodicSender(
            sim, drivers[0], node_id=0, packet_bytes=4, duration=60.0,
            rng=random.Random(2), interval=1.0, jitter=0.5,
        )
        sender.start()
        sim.run(until=30.0)
        # With 4-byte packets each send is 2 frames (intro+data); sample
        # intro times (every other frame).
        intro_times = times[::2]
        gaps = {round(b - a, 6) for a, b in zip(intro_times, intro_times[1:])}
        assert len(gaps) > 1  # not a fixed period

    def test_invalid_parameters(self):
        sim, drivers = build()
        with pytest.raises(ValueError):
            PeriodicSender(sim, drivers[0], node_id=0, packet_bytes=1,
                           duration=1.0, interval=0.0)
        with pytest.raises(ValueError):
            PeriodicSender(sim, drivers[0], node_id=0, packet_bytes=1,
                           duration=1.0, jitter=-1.0)


class TestPoissonSender:
    def test_mean_rate(self):
        sim, drivers = build()
        sender = PoissonSender(
            sim, drivers[0], node_id=0, packet_bytes=10, duration=200.0,
            rng=random.Random(3), rate=2.0,
        )
        sender.start()
        sim.run(until=201.0)
        assert sender.packets_offered == pytest.approx(400, rel=0.15)

    def test_invalid_rate(self):
        sim, drivers = build()
        with pytest.raises(ValueError):
            PoissonSender(sim, drivers[0], node_id=0, packet_bytes=1,
                          duration=1.0, rate=0.0)


class TestBurstySender:
    def test_traffic_arrives_in_bursts(self):
        sim, drivers = build()
        times = []
        drivers[0].radio.add_tx_listener(lambda f: times.append(sim.now))
        sender = BurstySender(
            sim, drivers[0], node_id=0, packet_bytes=4, duration=200.0,
            rng=random.Random(5), mean_on=2.0, mean_off=15.0,
            burst_interval=0.1,
        )
        sender.start()
        sim.run(until=201.0)
        assert sender.bursts >= 3
        assert sender.packets_offered > 10
        # Inter-send gaps are bimodal: many tiny intra-burst gaps and a
        # few long inter-burst silences.
        intro_times = times[::2]  # 4-byte packets = 2 frames each
        gaps = [b - a for a, b in zip(intro_times, intro_times[1:])]
        small = sum(1 for g in gaps if g < 1.0)
        large = sum(1 for g in gaps if g > 5.0)
        assert small > 5 and large >= 2

    def test_mean_rate_below_continuous(self):
        """OFF periods dominate: a bursty sensor sends far less than one
        reporting at the burst interval continuously."""
        sim, drivers = build()
        sender = BurstySender(
            sim, drivers[0], node_id=0, packet_bytes=4, duration=100.0,
            rng=random.Random(6), mean_on=1.0, mean_off=20.0,
            burst_interval=0.1,
        )
        sender.start()
        sim.run(until=101.0)
        continuous_equivalent = 100.0 / 0.1
        assert sender.packets_offered < continuous_equivalent / 5

    def test_stops_at_deadline(self):
        sim, drivers = build()
        sender = BurstySender(
            sim, drivers[0], node_id=0, packet_bytes=4, duration=30.0,
            rng=random.Random(7),
        )
        sender.start()
        sim.run(until=200.0)
        count = sender.packets_offered
        sim.run(until=400.0)
        assert sender.packets_offered == count

    def test_invalid_parameters(self):
        sim, drivers = build()
        with pytest.raises(ValueError):
            BurstySender(sim, drivers[0], node_id=0, packet_bytes=1,
                         duration=1.0, mean_on=0.0)
        with pytest.raises(ValueError):
            BurstySender(sim, drivers[0], node_id=0, packet_bytes=1,
                         duration=1.0, burst_interval=0.0)


class TestValidation:
    def test_negative_packet_bytes_rejected(self):
        sim, drivers = build()
        with pytest.raises(ValueError):
            ContinuousStreamSender(sim, drivers[0], node_id=0,
                                   packet_bytes=-1, duration=1.0)

    def test_zero_duration_rejected(self):
        sim, drivers = build()
        with pytest.raises(ValueError):
            ContinuousStreamSender(sim, drivers[0], node_id=0,
                                   packet_bytes=1, duration=0.0)

    # ``now >= nan`` is never true, so a NaN duration used to run forever;
    # constructing the sender must reject it before any simulation.
    @pytest.mark.parametrize(
        "sender_cls",
        [ContinuousStreamSender, PeriodicSender, PoissonSender, BurstySender],
    )
    def test_nan_duration_rejected(self, sender_cls):
        sim, drivers = build()
        with pytest.raises(ValueError):
            sender_cls(sim, drivers[0], node_id=0, packet_bytes=1,
                       duration=float("nan"))

    # A NaN or infinite timing parameter either hangs the run (an
    # infinite rate wakes at zero delay forever), fails mid-run, never
    # sends, or silently acts as zero; the constructor must reject it.
    @pytest.mark.parametrize(
        "sender_cls, option, value",
        [
            pytest.param(sender_cls, option, NAN, id=f"{sender_cls.__name__}-{option}")
            for sender_cls, option in [
                (PeriodicSender, "interval"),
                (PoissonSender, "rate"),
                (BurstySender, "mean_on"),
                (BurstySender, "mean_off"),
                (BurstySender, "burst_interval"),
                (PeriodicSender, "jitter"),
                (ContinuousStreamSender, "stagger"),
            ]
        ]
        + [
            pytest.param(sender_cls, option, value,
                         id=f"{sender_cls.__name__}-{option}-{value}")
            for sender_cls, option, value in [
                (PeriodicSender, "interval", INF),
                (PoissonSender, "rate", INF),
                (BurstySender, "mean_on", INF),
                (BurstySender, "mean_off", INF),
                (BurstySender, "burst_interval", INF),
                (PeriodicSender, "jitter", INF),
                (ContinuousStreamSender, "stagger", INF),
                (ContinuousStreamSender, "stagger", -1.0),
            ]
        ],
    )
    def test_nan_timing_rejected(self, sender_cls, option, value):
        sim, drivers = build()
        with pytest.raises(ValueError):
            sender_cls(sim, drivers[0], node_id=0, packet_bytes=1,
                       duration=1.0, **{option: value})


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _run_pinned(make_sender, duration):
    """Run one sender per node on a 3-node mesh, recording every send.

    Returns the send count, a digest of the ``(node, time, payload size)``
    timeline, the per-sender offered counts, the events fired and a
    digest of every sender's RNG end state.
    """
    sim, drivers = build(n=3)
    sends = []
    senders = []
    for node, driver in enumerate(drivers):
        def recording(packet, _node=node, _send=driver.send):
            sends.append((_node, sim.now, len(packet.payload)))
            return _send(packet)

        driver.send = recording
        sender = make_sender(sim, driver, node, duration)
        sender.start()
        senders.append(sender)
    sim.run(until=duration + 1.0)
    return (
        len(sends),
        _digest(sends),
        [s.packets_offered for s in senders],
        sim.events_processed,
        _digest([s.rng.getstate() for s in senders]),
    )


def _sender(cls, packet_bytes, **options):
    def make(sim, driver, node, duration):
        return cls(sim, driver, node_id=node, packet_bytes=packet_bytes,
                   duration=duration, rng=random.Random(100 + node), **options)

    return make


class TestSenderSchedules:
    """Pins each sender's exact send timeline, event count and RNG end
    state, so any rewrite of the senders must keep the event sequence."""

    @pytest.mark.parametrize(
        "make_sender, duration, expected",
        [
            pytest.param(
                _sender(ContinuousStreamSender, 80), 3.0,
                (331, '42f0fe30958b9e33', [111, 109, 111], 4304, '716ac2cbdc55003a'),
                id="continuous-default-stagger",
            ),
            pytest.param(
                _sender(ContinuousStreamSender, 80, stagger=0.0), 3.0,
                (336, '36b6ee33728609b5', [112, 112, 112], 4365, '24062b519de79a0f'),
                id="continuous-no-stagger",
            ),
            pytest.param(
                _sender(PeriodicSender, 10, interval=0.5), 20.0,
                (120, 'e7517c3b799ac805', [40, 40, 40], 726, '87905b045d510645'),
                id="periodic",
            ),
            pytest.param(
                _sender(PeriodicSender, 10, interval=0.5, jitter=0.25), 20.0,
                (97, '33c2eb6ba24edfe0', [32, 32, 33], 588, 'b56b0da58e1c77c4'),
                id="periodic-jitter",
            ),
            pytest.param(
                _sender(PoissonSender, 10, rate=3.0), 20.0,
                (191, 'c4c8ea158792b8b4', [65, 60, 66], 1152, '19727259d41c74d5'),
                id="poisson",
            ),
            pytest.param(
                _sender(BurstySender, 4, mean_on=1.0, mean_off=3.0,
                        burst_interval=0.1), 30.0,
                (265, 'a75348700a5e6d2f', [78, 99, 88], 1627, '55b75a14e1721ef4'),
                id="bursty",
            ),
        ],
    )
    def test_schedule_pinned(self, make_sender, duration, expected):
        assert _run_pinned(make_sender, duration) == expected
