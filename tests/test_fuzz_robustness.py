"""Adversarial robustness: garbage on the air must never crash or corrupt.

Sensor radios deliver noise, truncated frames, and other protocols'
traffic.  The decoders must reject bad input with the documented
exceptions only, and — the paper's core safety property — a reassembler
must never deliver a payload that no sender actually sent, no matter how
fragments interleave.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aff.driver import AffDriver
from repro.aff.fragmenter import Fragmenter
from repro.aff.reassembler import Reassembler
from repro.aff.static_frag import StaticCodec
from repro.aff.wire import FragmentCodec, MalformedFragmentError
from repro.core.identifiers import IdentifierSpace, UniformSelector
from repro.net.packets import Packet
from repro.radio.frame import Frame
from repro.radio.medium import BroadcastMedium
from repro.radio.radio import Radio
from repro.sim.engine import Simulator
from repro.topology.graphs import FullMesh


class TestDecoderFuzz:
    @given(data=st.binary(max_size=64), id_bits=st.integers(min_value=0, max_value=32))
    def test_aff_decode_never_crashes(self, data, id_bits):
        codec = FragmentCodec(id_bits)
        try:
            fragment = codec.decode(data)
        except MalformedFragmentError:
            return
        # Anything that parses must re-encode to a decodable fragment.
        assert codec.decode(codec.encode(fragment)) == fragment

    @given(data=st.binary(max_size=64), addr_bits=st.integers(min_value=1, max_value=48))
    def test_static_decode_never_crashes(self, data, addr_bits):
        codec = StaticCodec(addr_bits)
        try:
            fragment = codec.decode(data)
        except ValueError:
            return
        assert codec.decode(codec.encode(fragment)) == fragment

    @given(
        data=st.binary(min_size=1, max_size=40),
        id_bits=st.integers(min_value=0, max_value=16),
    )
    def test_reassembler_survives_garbage_that_happens_to_parse(self, data, id_bits):
        codec = FragmentCodec(id_bits)
        reasm = Reassembler()
        try:
            fragment = codec.decode(data)
        except MalformedFragmentError:
            return
        reasm.accept(fragment, now=0.0)  # must not raise


class TestNeverFabricatesPayloads:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_packets=st.integers(min_value=2, max_value=8),
        id_bits=st.integers(min_value=0, max_value=3),
    )
    def test_interleaved_collisions_never_deliver_unsent_payloads(
        self, seed, n_packets, id_bits
    ):
        """Tiny identifier spaces force heavy collisions; shuffle all
        fragments together; everything delivered must be an exact sent
        payload."""
        rng = random.Random(seed)
        frag = Fragmenter(FragmentCodec(id_bits), mtu_bytes=27)
        sent = []
        fragments = []
        for _ in range(n_packets):
            payload = rng.randbytes(rng.randrange(1, 120))
            sent.append(payload)
            identifier = rng.randrange(max(1, 1 << id_bits))
            fragments.extend(frag.fragment(payload, identifier).fragments)
        rng.shuffle(fragments)
        reasm = Reassembler()
        delivered = []
        for fragment in fragments:
            out = reasm.accept(fragment, now=0.0)
            if out is not None:
                delivered.append(out)
        sent_set = set(sent)
        for payload in delivered:
            assert payload in sent_set

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_full_stack_random_traffic_integrity(self, seed):
        """End-to-end with real radios: random senders, tiny id space,
        everything delivered anywhere must have been sent by someone."""
        rng = random.Random(seed)
        sim = Simulator()
        medium = BroadcastMedium(sim, FullMesh(range(3)), rf_collisions=False)
        sent = set()
        delivered = []
        drivers = []
        for node in range(3):
            radio = Radio(medium, node)
            drivers.append(
                AffDriver(
                    radio,
                    UniformSelector(IdentifierSpace(2), random.Random(seed + node)),
                    deliver=delivered.append,
                    reassembly_timeout=1.0,
                )
            )
        for i in range(10):
            node = rng.randrange(3)
            payload = rng.randbytes(rng.randrange(1, 90))
            sent.add(payload)
            sim.schedule(
                i * rng.uniform(0.0, 0.05),
                drivers[node].send,
                Packet(payload=payload, origin=node),
            )
        sim.run(until=10.0)
        for payload in delivered:
            assert payload in sent


class TestHostileFrames:
    def test_driver_ignores_foreign_protocol_frames(self):
        sim = Simulator()
        medium = BroadcastMedium(sim, FullMesh(range(2)), rf_collisions=False)
        tx = Radio(medium, 0)
        delivered = []
        AffDriver(
            Radio(medium, 1),
            UniformSelector(IdentifierSpace(8), random.Random(1)),
            deliver=delivered.append,
        )
        rng = random.Random(2)
        for _ in range(50):
            tx.send(Frame(payload=rng.randbytes(rng.randrange(1, 27)), origin=0))
        sim.run()
        # Some garbage may coincidentally parse; none may crash, and
        # nothing real was sent, so nothing may be delivered.
        assert delivered == []

    def test_truncated_replay_of_valid_frame(self):
        sim = Simulator()
        medium = BroadcastMedium(sim, FullMesh(range(2)), rf_collisions=False)
        sender = AffDriver(
            Radio(medium, 0), UniformSelector(IdentifierSpace(8), random.Random(3))
        )
        receiver = AffDriver(
            Radio(medium, 1), UniformSelector(IdentifierSpace(8), random.Random(4))
        )
        identifier = sender.send(Packet(payload=b"legit" * 10, origin=0))
        sim.run()
        # Replay a truncated copy of a legitimate data fragment.
        plan = sender.fragmenter.fragment(b"legit" * 10, identifier)
        valid = sender.codec.encode(plan.fragments[1])
        sender.radio.send(
            Frame(payload=valid[: len(valid) // 3], origin=0)
        )
        sim.run()
        # Either malformed (counted) or parsed-but-harmless; never a crash.
        assert receiver.stats.malformed_frames >= 0
