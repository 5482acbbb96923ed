"""Integration-style unit tests for the AFF driver over the radio."""

import dataclasses
import random

import pytest

from repro.aff.driver import AffDriver
from repro.aff.wire import (
    FragmentCodec,
    IntroFragment,
    MalformedFragmentError,
    NotifyFragment,
)
from repro.core.identifiers import IdentifierSpace, ListeningSelector, UniformSelector
from repro.core.transactions import TransactionLog
from repro.net.packets import BitBudget, Packet
from repro.radio.frame import Frame
from repro.radio.medium import BroadcastMedium
from repro.radio.radio import Radio
from repro.sim.engine import Simulator
from repro.topology.graphs import FullMesh


def build_pair(id_bits=8, listening=False, seed=0, n=2):
    sim = Simulator()
    medium = BroadcastMedium(sim, FullMesh(range(n)), rf_collisions=False)
    drivers = []
    delivered = []
    for node in range(n):
        radio = Radio(medium, node)
        space = IdentifierSpace(id_bits)
        rng = random.Random(seed * 100 + node)
        selector = (
            ListeningSelector(space, rng) if listening else UniformSelector(space, rng)
        )
        driver = AffDriver(
            radio,
            selector,
            listening=listening,
            deliver=(lambda p, node=node: delivered.append((node, p))),
        )
        drivers.append(driver)
    return sim, drivers, delivered


class TestEndToEnd:
    def test_packet_travels_node0_to_node1(self):
        sim, drivers, delivered = build_pair()
        payload = b"temperature=23.5C" * 4
        drivers[0].send(Packet(payload=payload, origin=0))
        sim.run()
        assert (1, payload) in delivered

    def test_large_packet_fragments_and_reassembles(self):
        sim, drivers, delivered = build_pair()
        payload = bytes(i % 251 for i in range(5000))
        drivers[0].send(Packet(payload=payload, origin=0))
        sim.run()
        assert (1, payload) in delivered

    def test_many_packets_all_delivered(self):
        sim, drivers, delivered = build_pair(id_bits=16)
        payloads = [bytes([i]) * 40 for i in range(20)]
        for p in payloads:
            drivers[0].send(Packet(payload=p, origin=0))
        sim.run()
        received = [p for node, p in delivered if node == 1]
        assert received == payloads

    def test_bidirectional_traffic(self):
        sim, drivers, delivered = build_pair(id_bits=16)
        drivers[0].send(Packet(payload=b"ping" * 10, origin=0))
        drivers[1].send(Packet(payload=b"pong" * 10, origin=1))
        sim.run()
        assert (1, b"ping" * 10) in delivered
        assert (0, b"pong" * 10) in delivered

    def test_send_returns_identifier_in_space(self):
        sim, drivers, _ = build_pair(id_bits=4)
        identifier = drivers[0].send(Packet(payload=b"x" * 10, origin=0))
        assert 0 <= identifier < 16


class TestAccounting:
    def test_budget_charges_headers_and_payload(self):
        sim, drivers, _ = build_pair()
        payload = b"\x00" * 80
        drivers[0].send(Packet(payload=payload, origin=0))
        sim.run()
        budget = drivers[0].budget
        assert budget.transmitted("payload") == 8 * 80
        assert budget.transmitted("header") > 0

    def test_total_bits_match_encoded_frames_exactly(self):
        """The ledger must equal the bits that actually crossed the air
        (bit-packing padding included, booked as header)."""
        sim, drivers, _ = build_pair()
        payload = b"\x00" * 80
        identifier = drivers[0].send(Packet(payload=payload, origin=0))
        sim.run()
        budget = drivers[0].budget
        plan = drivers[0].fragmenter.fragment(payload, identifier)
        on_air_bits = sum(
            8 * len(drivers[0].codec.encode(f)) for f in plan.fragments
        )
        assert drivers[0].radio.frames_sent == 5
        assert budget.total_transmitted == on_air_bits

    def test_stats_counters(self):
        sim, drivers, _ = build_pair()
        drivers[0].send(Packet(payload=b"\x00" * 80, origin=0))
        sim.run()
        assert drivers[0].stats.packets_sent == 1
        assert drivers[0].stats.fragments_sent == 5


class TestTransactionLogIntegration:
    def test_transactions_open_and_close(self):
        sim = Simulator()
        medium = BroadcastMedium(sim, FullMesh(range(2)), rf_collisions=False)
        log = TransactionLog()
        radio = Radio(medium, 0)
        driver = AffDriver(
            radio, UniformSelector(IdentifierSpace(8), random.Random(1)), txn_log=log
        )
        Radio(medium, 1)  # listener exists so transmission has an audience
        driver.send(Packet(payload=b"\x00" * 80, origin=0))
        assert log.open_count() == 1
        sim.run()
        assert log.open_count() == 0
        assert log.total == 1

    def test_transaction_spans_whole_fragment_train(self):
        sim = Simulator()
        medium = BroadcastMedium(
            sim, FullMesh(range(2)), bitrate=1000.0, rf_collisions=False
        )
        log = TransactionLog()
        driver = AffDriver(
            Radio(medium, 0),
            UniformSelector(IdentifierSpace(8), random.Random(1)),
            txn_log=log,
        )
        Radio(medium, 1)
        driver.send(Packet(payload=b"\x00" * 80, origin=0))
        sim.run()
        txn = log.transactions[0]
        # Encoded frames are 6 + 27 + 27 + 27 + 19 bytes = 848 bits; at
        # 1000 bps the transaction must span at least their total airtime.
        plan = driver.fragmenter.fragment(b"\x00" * 80, 0)
        on_air_bits = sum(8 * len(driver.codec.encode(f)) for f in plan.fragments)
        assert txn.end - txn.start >= on_air_bits / 1000 - 1e-9


class TestListening:
    def test_listening_driver_observes_overheard_intros(self):
        sim, drivers, _ = build_pair(id_bits=8, listening=True, n=3)
        identifier = drivers[0].send(Packet(payload=b"\x00" * 40, origin=0))
        sim.run()
        # Drivers 1 and 2 overheard the introduction.
        for driver in drivers[1:]:
            assert identifier in list(driver.selector._heard)

    def test_listening_selector_avoids_active_identifier(self):
        sim, drivers, _ = build_pair(id_bits=4, listening=True, n=2)
        identifier = drivers[0].send(Packet(payload=b"\x00" * 40, origin=0))
        sim.run()
        # Driver 1 heard it; its next selections must avoid that identifier
        # while it is within the avoidance window.
        picks = {drivers[1].selector.select() for _ in range(50)}
        assert identifier not in picks

    def test_malformed_frames_counted_not_fatal(self):
        sim, drivers, _ = build_pair()
        from repro.radio.frame import Frame

        drivers[0].radio.send(Frame(payload=b"\xff" * 3, origin=0))
        sim.run()
        assert drivers[1].stats.malformed_frames == 1


class _RecordingRandom(random.Random):
    """A ``random.Random`` that keeps every ``random()`` draw."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def random(self):
        value = super().random()
        self.draws.append(value)
        return value


class TestReassemblyConsumers:
    """A driver reassembles only when something reads the result: a
    ``deliver`` callback, or notification-driving conflict detection."""

    CASES = [(False, 1.0), (True, 1.0), (True, 0.5)]

    @staticmethod
    def _overhear(listening, duty_cycle, **consumer):
        """Three send-only nodes stream to a fourth, which sends too."""
        sim = Simulator()
        medium = BroadcastMedium(sim, FullMesh(range(4)), rf_collisions=False)
        senders = [
            AffDriver(
                Radio(medium, node),
                UniformSelector(IdentifierSpace(4), random.Random(node)),
            )
            for node in range(3)
        ]
        space = IdentifierSpace(4)
        selector = (
            ListeningSelector(space, random.Random(9))
            if listening
            else UniformSelector(space, random.Random(9))
        )
        observed = []
        real_observe = selector.observe

        def observe(identifier):
            observed.append(identifier)
            real_observe(identifier)

        selector.observe = observe
        driver = AffDriver(
            Radio(medium, 3),
            selector,
            listening=listening,
            listen_duty_cycle=duty_cycle,
            listen_rng=_RecordingRandom(5),
            **consumer,
        )
        payloads = random.Random(7)
        for i in range(24):
            origin = i % 3
            packet = Packet(payload=payloads.randbytes(60), origin=origin)
            sim.schedule(0.001 * i, senders[origin].send, packet)
        picks = []
        for i in range(4):
            packet = Packet(payload=b"own" * 10, origin=3)
            sim.schedule(0.1 + 0.1 * i, lambda p=packet: picks.append(driver.send(p)))
        sim.run()
        assert driver.radio.frames_received > 0
        return driver, observed, picks

    @pytest.mark.parametrize("listening, duty_cycle", CASES)
    def test_send_only_driver_never_reassembles(self, listening, duty_cycle):
        driver, _, _ = self._overhear(listening, duty_cycle)
        assert driver.reassembler.stats.fragments_accepted == 0

    @pytest.mark.parametrize("listening, duty_cycle", CASES)
    def test_listening_unchanged_by_skipping_reassembly(self, listening, duty_cycle):
        delivered = []
        quiet, quiet_seen, quiet_picks = self._overhear(listening, duty_cycle)
        loud, loud_seen, loud_picks = self._overhear(
            listening, duty_cycle, deliver=delivered.append
        )
        assert loud.reassembler.stats.fragments_accepted > 0
        assert delivered
        assert quiet_seen == loud_seen
        assert quiet._listen_rng.draws == loud._listen_rng.draws
        assert quiet_picks == loud_picks
        if listening:
            assert quiet_seen
        if duty_cycle < 1.0:
            assert 0 < len(quiet_seen) < len(quiet._listen_rng.draws)

    def test_notifying_driver_reassembles_and_notifies(self):
        driver, _, _ = self._overhear(False, 1.0, notify_collisions=True)
        stats = driver.reassembler.stats
        assert stats.fragments_accepted > 0
        assert stats.intro_conflicts + stats.span_conflicts > 0
        assert driver.stats.notifications_sent == (
            stats.intro_conflicts + stats.span_conflicts
        )


class TestDecodeOnce:
    """Every receiver of one transmission shares one decode of its frame."""

    @pytest.fixture
    def decode_calls(self, monkeypatch):
        calls = []
        real = FragmentCodec.decode

        def counting(codec, data):
            calls.append(codec.id_bits)
            return real(codec, data)

        monkeypatch.setattr(FragmentCodec, "decode", counting)
        return calls

    @staticmethod
    def _mesh(id_bits_per_node):
        sim = Simulator()
        medium = BroadcastMedium(
            sim, FullMesh(range(len(id_bits_per_node))), rf_collisions=False
        )
        delivered = []
        drivers = [
            AffDriver(
                Radio(medium, node),
                UniformSelector(IdentifierSpace(bits), random.Random(node)),
                deliver=(lambda p, node=node: delivered.append(node)),
            )
            for node, bits in enumerate(id_bits_per_node)
        ]
        return sim, medium, drivers, delivered

    def test_one_decode_per_transmission(self, decode_calls):
        sim, medium, drivers, delivered = self._mesh([8] * 5)
        drivers[0].send(Packet(payload=b"reading" * 6, origin=0))
        sim.run()
        assert sorted(delivered) == [1, 2, 3, 4]
        assert medium.stats.deliveries == 4 * medium.stats.frames_sent
        assert len(decode_calls) == medium.stats.frames_sent

    def test_two_identifier_sizes_decode_once_each(self, decode_calls):
        sim, medium, drivers, _ = self._mesh([8, 8, 8, 4, 4])
        wide, narrow = FragmentCodec(8), FragmentCodec(4)
        payload = wide.encode_intro(
            IntroFragment(identifier=0xA5, total_length=30, checksum=0x1234)
        )
        drivers[0].radio.send(Frame(payload=payload, origin=0))
        sim.run()
        assert decode_calls == [8, 4]
        # Each width still sees its own parse of the same bytes, whatever
        # width the frame's memo last held.
        frame = Frame(payload=payload, origin=0)
        for codec in (wide, narrow, narrow, wide):
            assert codec.decode_frame(frame) == codec.decode(payload)

    def test_malformed_frame_counted_at_every_receiver(self, decode_calls):
        sim, medium, drivers, _ = self._mesh([8] * 5)
        drivers[0].radio.send(Frame(payload=b"\xff" * 3, origin=0))
        sim.run()
        assert [d.stats.malformed_frames for d in drivers] == [0, 1, 1, 1, 1]
        assert len(decode_calls) == 4

    def test_malformed_frame_is_never_memoised(self):
        codec = FragmentCodec(8)
        frame = Frame(payload=b"\xff" * 3, origin=0)
        for _ in range(2):
            with pytest.raises(MalformedFragmentError):
                codec.decode_frame(frame)
        assert frame.decoded is None

    def test_memo_slot_outside_frame_identity(self):
        codec = FragmentCodec(8)
        payload = codec.encode_notify(NotifyFragment(identifier=9))
        decoded = Frame(payload=payload, origin=2, seq=77)
        fresh = Frame(payload=payload, origin=2, seq=77)
        assert codec.decode_frame(decoded) == NotifyFragment(identifier=9)
        assert decoded.decoded is not None
        assert decoded == fresh
        assert repr(decoded) == repr(fresh)
        slot = {f.name: f for f in dataclasses.fields(Frame)}["decoded"]
        assert not (slot.init or slot.repr or slot.compare)
