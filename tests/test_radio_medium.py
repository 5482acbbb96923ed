"""Unit tests for the broadcast medium."""

import hashlib
import random

import pytest

from repro.experiments.harness import CollisionTrialConfig, run_collision_trial
from repro.obs.envelope import TraceWriter, _record_line
from repro.radio.channel import BernoulliChannel
from repro.radio.frame import Frame
from repro.radio.mac import AlohaMac
from repro.radio.medium import BroadcastMedium
from repro.radio.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.trace import NullRecorder, TraceRecorder
from repro.topology.graphs import ExplicitGraph, FullMesh, Line


def build(topology, **kwargs):
    sim = Simulator()
    medium = BroadcastMedium(sim, topology, **kwargs)
    return sim, medium


class TestDelivery:
    def test_broadcast_reaches_all_neighbors(self):
        sim, medium = build(FullMesh(range(4)))
        radios = {i: Radio(medium, i) for i in range(4)}
        received = {i: [] for i in range(4)}
        for i, radio in radios.items():
            radio.set_receive_handler(lambda f, i=i: received[i].append(f))
        radios[0].send(Frame(payload=b"hello", origin=0))
        sim.run()
        assert received[0] == []  # no loopback
        assert all(len(received[i]) == 1 for i in (1, 2, 3))

    def test_delivery_respects_topology(self):
        sim, medium = build(Line(3))
        radios = {i: Radio(medium, i) for i in range(3)}
        received = {i: [] for i in range(3)}
        for i, radio in radios.items():
            radio.set_receive_handler(lambda f, i=i: received[i].append(f))
        radios[0].send(Frame(payload=b"x", origin=0))
        sim.run()
        assert len(received[1]) == 1
        assert received[2] == []

    def test_airtime_is_bits_over_bitrate(self):
        sim, medium = build(FullMesh(range(2)), bitrate=1000.0)
        frame = Frame(payload=b"\x00" * 10, origin=0)  # 80 bits
        assert medium.airtime(frame) == pytest.approx(0.08)

    def test_delivery_happens_at_end_of_frame(self):
        sim, medium = build(FullMesh(range(2)), bitrate=1000.0)
        Radio(medium, 0)
        rx = Radio(medium, 1)
        arrival = []
        rx.set_receive_handler(lambda f: arrival.append(sim.now))
        medium.radio_for(0).send(Frame(payload=b"\x00" * 10, origin=0))
        sim.run()
        assert arrival == [pytest.approx(0.08)]

    def test_node_without_radio_counts_out_of_range(self):
        sim, medium = build(FullMesh(range(3)))
        Radio(medium, 0)
        Radio(medium, 1)  # node 2 has no radio attached
        medium.radio_for(0).send(Frame(payload=b"x", origin=0))
        sim.run()
        assert medium.stats.out_of_range == 1
        assert medium.stats.deliveries == 1

    def test_detach_stops_delivery(self):
        sim, medium = build(FullMesh(range(2)))
        tx = Radio(medium, 0)
        rx = Radio(medium, 1)
        got = []
        rx.set_receive_handler(got.append)
        rx.shutdown()
        tx.send(Frame(payload=b"x", origin=0))
        sim.run()
        assert got == []

    def test_audience_snapshot_at_transmit_time(self):
        """A node joining mid-flight must not hear a frame already in the air."""
        topo = FullMesh(range(2))
        sim, medium = build(topo, bitrate=100.0)
        tx = Radio(medium, 0)
        Radio(medium, 1)
        tx.send(Frame(payload=b"\x00" * 10, origin=0))  # 0.8 s airtime
        # Node 2 joins while the frame is flying.
        def join():
            topo.add_node(2)
            Radio(medium, 2)
        sim.schedule(0.4, join)
        sim.run()
        assert medium.stats.deliveries == 1  # only node 1


class TestRfCollisions:
    def test_overlapping_frames_corrupt_each_other(self):
        sim, medium = build(FullMesh(range(3)), bitrate=100.0, rf_collisions=True)
        a, b = Radio(medium, 0), Radio(medium, 1)
        rx = Radio(medium, 2)
        got = []
        rx.set_receive_handler(got.append)
        a.send(Frame(payload=b"\x00" * 10, origin=0))
        b.send(Frame(payload=b"\x00" * 10, origin=1))
        sim.run()
        assert got == []
        assert medium.stats.rf_collision_drops >= 2

    def test_rf_collisions_disabled_delivers_both(self):
        sim, medium = build(FullMesh(range(3)), bitrate=100.0, rf_collisions=False)
        a, b = Radio(medium, 0), Radio(medium, 1)
        rx = Radio(medium, 2)
        got = []
        rx.set_receive_handler(got.append)
        a.send(Frame(payload=b"\x00" * 10, origin=0))
        b.send(Frame(payload=b"\x00" * 10, origin=1))
        sim.run()
        assert len(got) == 2

    def test_hidden_terminal_collision(self):
        """Senders out of each other's range still collide at a shared receiver."""
        topo = ExplicitGraph(edges=[(0, 2), (1, 2)])  # 0 and 1 hidden
        sim, medium = build(topo, bitrate=100.0, rf_collisions=True)
        a, b = Radio(medium, 0), Radio(medium, 1)
        rx = Radio(medium, 2)
        got = []
        rx.set_receive_handler(got.append)
        a.send(Frame(payload=b"\x00" * 10, origin=0))
        b.send(Frame(payload=b"\x00" * 10, origin=1))
        sim.run()
        assert got == []

    def test_non_overlapping_frames_both_deliver(self):
        sim, medium = build(FullMesh(range(3)), bitrate=100.0, rf_collisions=True)
        a, b = Radio(medium, 0), Radio(medium, 1)
        rx = Radio(medium, 2)
        got = []
        rx.set_receive_handler(got.append)
        a.send(Frame(payload=b"\x00" * 10, origin=0))
        sim.schedule(2.0, b.send, Frame(payload=b"\x00" * 10, origin=1))
        sim.run()
        assert len(got) == 2

    def test_half_duplex_transmitter_misses_frames(self):
        """A radio transmitting cannot simultaneously receive."""
        sim, medium = build(FullMesh(range(2)), bitrate=100.0, rf_collisions=True)
        a, b = Radio(medium, 0), Radio(medium, 1)
        got_a, got_b = [], []
        a.set_receive_handler(got_a.append)
        b.set_receive_handler(got_b.append)
        a.send(Frame(payload=b"\x00" * 10, origin=0))
        b.send(Frame(payload=b"\x00" * 10, origin=1))
        sim.run()
        assert got_a == [] and got_b == []


class TestChannels:
    def test_total_loss_channel_drops_all(self):
        sim, medium = build(
            FullMesh(range(2)),
            channel_factory=lambda s, r: BernoulliChannel(1.0),
            rng=random.Random(0),
        )
        tx, rx = Radio(medium, 0), Radio(medium, 1)
        got = []
        rx.set_receive_handler(got.append)
        tx.send(Frame(payload=b"x", origin=0))
        sim.run()
        assert got == []
        assert medium.stats.channel_drops == 1

    def test_channel_instances_cached_per_link(self):
        created = []

        def factory(s, r):
            chan = BernoulliChannel(0.0)
            created.append((s, r))
            return chan

        sim, medium = build(FullMesh(range(2)), channel_factory=factory)
        tx, rx = Radio(medium, 0), Radio(medium, 1)
        rx.set_receive_handler(lambda f: None)
        tx.send(Frame(payload=b"x", origin=0))
        sim.run()
        tx.send(Frame(payload=b"y", origin=0))
        sim.run()
        assert created == [(0, 1)]


class TestCarrierSense:
    def test_busy_during_neighbor_transmission(self):
        sim, medium = build(FullMesh(range(2)), bitrate=100.0)
        tx = Radio(medium, 0)
        Radio(medium, 1)
        tx.send(Frame(payload=b"\x00" * 10, origin=0))  # 0.8 s
        states = []
        sim.schedule(0.4, lambda: states.append(medium.busy_at(1)))
        sim.schedule(1.5, lambda: states.append(medium.busy_at(1)))
        sim.run()
        assert states == [True, False]

    def test_not_busy_when_transmitter_out_of_range(self):
        topo = ExplicitGraph(edges=[(0, 1)], nodes=[2])
        sim, medium = build(topo, bitrate=100.0)
        tx = Radio(medium, 0)
        Radio(medium, 1)
        Radio(medium, 2)
        tx.send(Frame(payload=b"\x00" * 10, origin=0))
        states = []
        sim.schedule(0.4, lambda: states.append(medium.busy_at(2)))
        sim.run()
        assert states == [False]


class TestTracing:
    def test_tx_rx_records(self):
        recorder = TraceRecorder()
        sim, medium = build(FullMesh(range(2)), recorder=recorder)
        tx, rx = Radio(medium, 0), Radio(medium, 1)
        rx.set_receive_handler(lambda f: None)
        tx.send(Frame(payload=b"x", origin=0))
        sim.run()
        assert recorder.count("frame.tx") == 1
        assert recorder.count("frame.rx") == 1


#: sha256 of a full TraceRecorder's record lines (the trace file's line
#: form) for the 2 s Figure-4 trials below.  Frame records carry no AFF
#: identifier and these trials have no RF collisions, so the uniform
#: and listening selectors put the same frames on the air.  Frame
#: ``seq`` counts transmissions on the trial's medium.
FIG4_RECORD_SHA256 = "4940b55e040a5cd8973e3f90c567305b38f2ba6d24cc9c40ea1285ff59442173"


def _trial_under_recorders(config):
    """The trial's result and ``emitted_counts()`` items per recorder."""
    recorders = [
        NullRecorder(),
        TraceRecorder(),
        TraceRecorder(categories={"frame.tx"}),
    ]
    outcomes = [
        (run_collision_trial(config, recorder=recorder),
         list(recorder.emitted_counts().items()))
        for recorder in recorders
    ]
    return recorders, outcomes


class TestFrameNumbering:
    """Frame ``seq`` counts transmissions on one medium, so a trial's
    records do not depend on what ran earlier in the process."""

    def test_same_trial_twice_records_identical_lines(self):
        config = CollisionTrialConfig(
            id_bits=6, n_senders=5, duration=2.0, selector="listening", seed=0
        )
        runs = []
        for _ in range(2):
            recorder = TraceRecorder()
            run_collision_trial(config, recorder=recorder)
            runs.append([_record_line(record) for record in recorder])
        assert runs[0] and runs[0] == runs[1]


class TestRecorderEquivalence:
    """A recorder that keeps no records is charged once per frame; one
    that keeps records gets every record.  Neither changes the run, and
    the counters (including the order categories first appear in) are
    the same either way."""

    @pytest.mark.parametrize("selector", ["uniform", "listening"])
    def test_figure_4_trial(self, selector, tmp_path):
        config = CollisionTrialConfig(
            id_bits=6, n_senders=5, duration=2.0, selector=selector, seed=0
        )
        recorders, outcomes = _trial_under_recorders(config)
        null, full, filtered = recorders
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0][0] == run_collision_trial(config)
        assert null.emitted_counts()["frame.rx"] > 0
        lines = "".join(_record_line(record) + "\n" for record in full)
        digest = hashlib.sha256(lines.encode()).hexdigest()
        assert digest == FIG4_RECORD_SHA256
        assert filtered.records == full.select("frame.tx")
        assert len(null) == 0

        # A streaming writer is a recorder that keeps records too.
        path = tmp_path / "trial.jsonl"
        with TraceWriter(path) as writer:
            assert run_collision_trial(config, recorder=writer) == outcomes[0][0]
        written = path.read_text().splitlines(keepends=True)[1:-1]
        assert hashlib.sha256("".join(written).encode()).hexdigest() == digest

    def test_drop_after_a_delivery_keeps_counter_order(self):
        # Receiver 2's link always drops: one fan-out delivers to 1,
        # drops at 2, delivers to 3.
        counts = []
        for recorder in (NullRecorder(), TraceRecorder()):
            sim, medium = build(
                FullMesh(range(4)),
                recorder=recorder,
                channel_factory=lambda sender, receiver: BernoulliChannel(
                    1.0 if receiver == 2 else 0.0
                ),
            )
            radios = [Radio(medium, i) for i in range(4)]
            radios[0].send(Frame(payload=b"hello", origin=0))
            sim.run()
            counts.append(list(recorder.emitted_counts().items()))
        assert counts[0] == counts[1]
        assert counts[1] == [("frame.tx", 1), ("frame.rx", 2), ("frame.drop", 1)]

    def test_drops_between_deliveries_keep_counter_order(self):
        # RF collisions and a lossy channel interleave drops with
        # deliveries inside one frame's fan-out.
        config = CollisionTrialConfig(
            id_bits=6, n_senders=3, duration=2.0, seed=3, rf_collisions=True,
            channel_factory=lambda sender, receiver: BernoulliChannel(0.1),
        )
        _recorders, outcomes = _trial_under_recorders(config)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        result = outcomes[0][0]
        assert result.received_unique > 0
        assert result.frames_dropped_rf > 0
        assert result.frames_dropped_channel > 0
        assert result.frames_delivered > 0
