"""Unit tests for the instrumented receiver (the paper's methodology)."""

import math
import random

import pytest

from repro.aff.driver import AffDriver
from repro.aff.instrumented import InstrumentedReceiver
from repro.aff.wire import FragmentCodec, IntroFragment
from repro.core.identifiers import IdentifierSpace, UniformSelector
from repro.experiments.harness import CollisionTrialConfig, run_collision_trial
from repro.net.packets import Packet
from repro.obs.metrics import collecting
from repro.radio.frame import Frame
from repro.radio.medium import BroadcastMedium
from repro.radio.radio import Radio
from repro.sim.engine import Simulator
from repro.topology.graphs import FullMesh


class _FixedSelector(UniformSelector):
    """Selector that returns a scripted sequence of identifiers."""

    def __init__(self, space, sequence):
        super().__init__(space, random.Random(0))
        self._sequence = list(sequence)

    def select(self):
        self.selections += 1
        return self._sequence.pop(0)


def build(n_senders=2, id_bits=8, sequences=None, bitrate=1000.0):
    sim = Simulator()
    medium = BroadcastMedium(
        sim, FullMesh(range(n_senders + 1)), bitrate=bitrate, rf_collisions=False
    )
    receiver = InstrumentedReceiver(
        Radio(medium, n_senders), id_bits=id_bits, reassembly_timeout=30.0
    )
    drivers = []
    for node in range(n_senders):
        space = IdentifierSpace(id_bits)
        if sequences is not None:
            selector = _FixedSelector(space, sequences[node])
        else:
            selector = UniformSelector(space, random.Random(node))
        drivers.append(AffDriver(Radio(medium, node), selector))
    return sim, drivers, receiver


class TestUniqueDelivery:
    def test_counts_complete_packets(self):
        sim, drivers, receiver = build(sequences=[[1], [2]])
        drivers[0].send(Packet(payload=b"A" * 60, origin=0))
        drivers[1].send(Packet(payload=b"B" * 60, origin=1))
        sim.run()
        assert receiver.counts.received_unique == 2
        assert receiver.counts.would_be_lost == 0
        assert receiver.counts.received_aff == 2
        assert receiver.collision_loss_rate() == 0.0

    def test_no_packets_rate_is_nan(self):
        sim, drivers, receiver = build()
        sim.run()
        assert math.isnan(receiver.collision_loss_rate())


class TestCollisionDetection:
    def test_forced_identifier_collision_detected(self):
        """Both senders scripted onto identifier 5 concurrently: the
        instrumented receiver must flag both packets as would-be-lost."""
        sim, drivers, receiver = build(sequences=[[5], [5]])
        drivers[0].send(Packet(payload=b"A" * 60, origin=0))
        drivers[1].send(Packet(payload=b"B" * 60, origin=1))
        sim.run()
        assert receiver.counts.received_unique == 2
        assert receiver.counts.would_be_lost == 2
        assert receiver.collision_loss_rate() == 1.0
        # End-to-end: the real reassembler delivers at most one of them.
        assert receiver.counts.received_aff <= 1
        assert receiver.e2e_loss_rate() >= 0.5

    def test_sequential_reuse_not_flagged(self):
        """Same identifier used at different times is RETRI working as
        intended, not a collision."""
        sim, drivers, receiver = build(sequences=[[5], [5]])
        drivers[0].send(Packet(payload=b"A" * 60, origin=0))
        sim.run()
        drivers[1].send(Packet(payload=b"B" * 60, origin=1))
        sim.run()
        assert receiver.counts.received_unique == 2
        assert receiver.counts.would_be_lost == 0
        assert receiver.counts.received_aff == 2

    def test_would_be_received_complement(self):
        sim, drivers, receiver = build(sequences=[[5, 1], [5, 2]])
        for _ in range(2):
            drivers[0].send(Packet(payload=b"A" * 60, origin=0))
            drivers[1].send(Packet(payload=b"B" * 60, origin=1))
        sim.run()
        counts = receiver.counts
        assert counts.would_be_received == counts.received_unique - counts.would_be_lost

    def test_uninstrumented_frames_ignored(self):
        sim, drivers, receiver = build()
        from repro.radio.frame import Frame

        drivers[0].radio.send(Frame(payload=b"\x00" * 5, origin=0))
        sim.run()
        assert receiver.uninstrumented_frames == 1
        assert receiver.counts.received_unique == 0


class TestGroundTruthIsolation:
    def test_aff_pipeline_consumes_only_wire_fragments(self):
        """The AFF reassembler sees exactly the decoded wire fragments —
        one per frame — and nothing from the instrumentation channel."""
        sim, drivers, receiver = build(sequences=[[5], [5]])
        drivers[0].send(Packet(payload=b"A" * 60, origin=0))
        drivers[1].send(Packet(payload=b"B" * 60, origin=1))
        sim.run()
        # 60-byte payloads at 22 bytes/fragment: intro + 3 data = 4 frames
        # per packet, 8 total.
        assert receiver.reassembler.stats.fragments_accepted == 8
        # And its conflict counters prove the collision surfaced on the
        # wire alone (no ground truth needed to detect it).
        stats = receiver.reassembler.stats
        assert stats.span_conflicts + stats.intro_conflicts >= 1


class TestReceiverMetrics:
    """Only the receiver reassembles in the testbed, so it alone books
    the ``aff.*`` receive metrics, the collision-width histogram too."""

    def test_collision_width_histogram_counts_receiver_conflicts(self):
        with collecting() as registry:
            sim, drivers, receiver = build(sequences=[[5], [5]])
            drivers[0].send(Packet(payload=b"A" * 60, origin=0))
            drivers[1].send(Packet(payload=b"B" * 60, origin=1))
            sim.run()
        stats = receiver.reassembler.stats
        conflicts = stats.intro_conflicts + stats.span_conflicts
        assert conflicts >= 1
        edges, buckets = registry.histogram("aff.id_collision_bits")
        assert edges == (4, 8, 12, 16)
        assert buckets == [0, conflicts, 0, 0, 0]
        assert registry.counter("aff.id_collisions") == conflicts
        assert receiver.notifications_sent == 0

    def test_trial_metrics_describe_the_receiver(self):
        config = CollisionTrialConfig(id_bits=4, duration=3.0, seed=2)
        with collecting() as registry:
            result = run_collision_trial(config)
        _, buckets = registry.histogram("aff.id_collision_bits")
        assert sum(buckets) == registry.counter("aff.id_collisions") > 0
        # Every fragment aired reaches the one receiver exactly once.
        assert registry.counter("aff.fragments_rx") == registry.counter(
            "aff.fragments_tx"
        )
        assert registry.counter("aff.packets_delivered") == result.received_aff


class TestStaleOpenPackets:
    """An open packet idle for longer than the timeout stops counting as
    a collision partner; one idle for exactly the timeout still counts."""

    @staticmethod
    def _arrive(sim, receiver, at, packet, identifier, index, count=2):
        payload = FragmentCodec(8).encode_intro(
            IntroFragment(identifier=identifier, total_length=10, checksum=0)
        )
        frame = Frame(
            payload=payload,
            origin=0,
            ground_truth={
                "packet": packet,
                "identifier": identifier,
                "count": count,
                "index": index,
            },
        )
        sim.schedule_at(at, receiver.radio._deliver, frame)

    @pytest.mark.parametrize("at, lost", [(31.0, 0), (30.5, 1)])
    def test_timeout_boundary(self, at, lost):
        sim, _drivers, receiver = build()
        # "older" is past the timeout at both times, so eviction runs.
        self._arrive(sim, receiver, 0.0, "older", 3, 0)
        self._arrive(sim, receiver, 0.5, "stale", 5, 0)
        self._arrive(sim, receiver, at, "fresh", 5, 0)
        self._arrive(sim, receiver, at, "fresh", 5, 1)
        sim.run()
        assert receiver.counts.received_unique == 1
        assert receiver.counts.would_be_lost == lost

    def test_survivor_of_a_scan_still_expires(self):
        sim, _drivers, receiver = build()
        self._arrive(sim, receiver, 0.0, "old", 5, 0)
        self._arrive(sim, receiver, 10.0, "survivor", 7, 0)
        # At 31 s "old" is evicted and "survivor" (10 s) is kept ...
        self._arrive(sim, receiver, 31.0, "single", 9, 0, count=1)
        # ... and at 41 s "survivor" is stale too, so it is no partner.
        self._arrive(sim, receiver, 41.0, "late", 7, 0)
        self._arrive(sim, receiver, 41.0, "late", 7, 1)
        sim.run()
        assert receiver.counts.received_unique == 2
        assert receiver.counts.would_be_lost == 0
