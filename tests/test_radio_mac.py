"""Unit tests for MAC strategies."""

import random

import pytest

from repro.radio.frame import Frame
from repro.radio.mac import AlohaMac, CsmaMac, SlottedMac
from repro.radio.medium import BroadcastMedium
from repro.radio.radio import Radio
from repro.sim.engine import Simulator
from repro.topology.graphs import FullMesh


def setup(n=2, mac_factory=None, bitrate=100.0, rf_collisions=False):
    sim = Simulator()
    medium = BroadcastMedium(
        sim, FullMesh(range(n)), bitrate=bitrate, rf_collisions=rf_collisions
    )
    radios = {
        i: Radio(medium, i, mac=(mac_factory() if mac_factory else AlohaMac()))
        for i in range(n)
    }
    return sim, medium, radios


def frame(origin, size=10):
    return Frame(payload=b"\x00" * size, origin=origin)


class TestAloha:
    def test_own_frames_serialize(self):
        sim, medium, radios = setup()
        tx = radios[0]
        arrivals = []
        radios[1].set_receive_handler(lambda f: arrivals.append(sim.now))
        tx.send(frame(0))  # 0.8 s each
        tx.send(frame(0))
        sim.run()
        assert arrivals == [pytest.approx(0.8), pytest.approx(1.6)]

    def test_gap_spaces_frames(self):
        sim, medium, radios = setup(mac_factory=lambda: AlohaMac(gap=0.5))
        tx = radios[0]
        arrivals = []
        radios[1].set_receive_handler(lambda f: arrivals.append(sim.now))
        tx.send(frame(0))
        tx.send(frame(0))
        sim.run()
        assert arrivals == [pytest.approx(1.3), pytest.approx(2.6)]

    def test_queue_depth_visible(self):
        sim, medium, radios = setup()
        tx = radios[0]
        tx.send(frame(0))
        tx.send(frame(0))
        tx.send(frame(0))
        # first is in the air after spawn; remaining queue holds 2
        assert tx.mac.queue_depth >= 2
        sim.run()
        assert tx.mac.queue_depth == 0

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            AlohaMac(gap=-1.0)


@pytest.mark.parametrize(
    "mac_factory",
    [AlohaMac, lambda: AlohaMac(gap=0.5), lambda: SlottedMac(slot=1.0),
     lambda: CsmaMac(backoff_max=0.2, rng=random.Random(1))],
    ids=["aloha", "aloha-gap", "slotted", "csma"],
)
class TestDrainHook:
    def test_fires_once_at_the_pop_that_empties_the_queue(self, mac_factory):
        sim, medium, radios = setup(mac_factory=mac_factory)
        tx = radios[0]
        starts, drains = [], []
        tx.add_tx_listener(lambda f: starts.append(sim.now))
        for _ in range(3):
            tx.send(frame(0))
        tx.mac.on_drain(lambda: drains.append((sim.now, tx.mac.queue_depth)))
        sim.run()
        assert len(starts) == 3
        assert drains == [(starts[-1], 0)]

    def test_one_pending_callback_at_a_time(self, mac_factory):
        sim, medium, radios = setup(mac_factory=mac_factory)
        mac = radios[0].mac
        mac.on_drain(lambda: None)
        with pytest.raises(RuntimeError):
            mac.on_drain(lambda: None)


class TestSlotted:
    def test_transmissions_start_on_slot_boundaries(self):
        sim, medium, radios = setup(mac_factory=lambda: SlottedMac(slot=1.0))
        tx = radios[0]
        starts = []
        tx.add_tx_listener(lambda f: starts.append(sim.now))
        sim.schedule(0.3, tx.send, frame(0))
        sim.run()
        assert starts == [pytest.approx(1.0)]

    def test_send_exactly_on_boundary_goes_immediately(self):
        sim, medium, radios = setup(mac_factory=lambda: SlottedMac(slot=1.0))
        tx = radios[0]
        starts = []
        tx.add_tx_listener(lambda f: starts.append(sim.now))
        sim.schedule(2.0, tx.send, frame(0))
        sim.run()
        assert starts == [pytest.approx(2.0)]

    def test_invalid_slot_rejected(self):
        with pytest.raises(ValueError):
            SlottedMac(slot=0.0)


class TestCsma:
    def test_defers_while_channel_busy(self):
        sim, medium, radios = setup(
            n=3,
            mac_factory=lambda: CsmaMac(
                backoff_max=0.05, max_attempts=100, rng=random.Random(1)
            ),
            bitrate=100.0,
            rf_collisions=True,
        )
        a, b = radios[0], radios[1]
        rx = radios[2]
        got = []
        rx.set_receive_handler(lambda f: got.append((f.origin, sim.now)))
        a.send(frame(0))  # occupies [0, 0.8)
        sim.schedule(0.1, b.send, frame(1))  # must defer past 0.8
        sim.run()
        assert len(got) == 2
        b_arrival = [t for origin, t in got if origin == 1][0]
        assert b_arrival > 1.6 - 0.8  # started after a's frame ended

    def test_backoffs_counted(self):
        sim, medium, radios = setup(
            n=2,
            mac_factory=lambda: CsmaMac(backoff_max=0.05, rng=random.Random(2)),
            bitrate=100.0,
        )
        a, b = radios[0], radios[1]
        a.send(frame(0))
        sim.schedule(0.1, b.send, frame(1))
        sim.run()
        assert b.mac.backoffs_taken >= 1

    def test_gives_up_after_max_attempts(self):
        """A persistently busy channel must not starve the sender forever."""
        sim, medium, radios = setup(
            n=2,
            mac_factory=lambda: CsmaMac(
                backoff_max=0.01, max_attempts=3, rng=random.Random(3)
            ),
            bitrate=1000.0,
        )
        a, b = radios[0], radios[1]
        # Saturate the air from a.
        for _ in range(100):
            a.send(frame(0))
        sim.schedule(0.001, b.send, frame(1))
        sim.run()
        assert b.frames_sent == 1  # transmitted despite busy air

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CsmaMac(backoff_max=0.0)
        with pytest.raises(ValueError):
            CsmaMac(max_attempts=0)


class TestBinding:
    def test_mac_cannot_be_shared_between_radios(self):
        sim = Simulator()
        medium = BroadcastMedium(sim, FullMesh(range(2)))
        mac = AlohaMac()
        Radio(medium, 0, mac=mac)
        with pytest.raises(RuntimeError):
            Radio(medium, 1, mac=mac)
