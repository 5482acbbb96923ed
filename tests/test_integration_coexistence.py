"""Cross-protocol coexistence: different stacks sharing one medium.

A real deployment's air is not monoculture — fragmentation traffic,
flood alarms, and interest readings share the spectrum.  Every decoder
therefore regularly receives frames of *other* protocols (which look
like line noise to it).  These tests run mixed protocol populations on
one broadcast medium and assert mutual tolerance: each protocol keeps
delivering its own traffic exactly, and foreign frames are dropped or
ignored, never crash, never fabricate deliveries.
"""

import random

import pytest

from repro.aff.driver import AffDriver
from repro.apps.flooding import FloodNode
from repro.apps.interest import InterestSink, InterestSource
from repro.core.identifiers import IdentifierSpace, UniformSelector
from repro.net.packets import Packet
from repro.radio.medium import BroadcastMedium
from repro.radio.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.topology.graphs import FullMesh


class TestAffPlusFlooding:
    def test_both_protocols_deliver_amid_each_other(self):
        rngs = RngRegistry(77)
        sim = Simulator()
        # Nodes 0-1 run AFF; nodes 2-4 run flooding; all share the air.
        medium = BroadcastMedium(sim, FullMesh(range(5)), rf_collisions=False,
                                 rng=rngs.stream("m"))

        aff_delivered = []
        aff_tx = AffDriver(
            Radio(medium, 0, max_frame_bytes=64),
            UniformSelector(IdentifierSpace(10), rngs.stream("aff0")),
        )
        aff_rx = AffDriver(
            Radio(medium, 1, max_frame_bytes=64),
            UniformSelector(IdentifierSpace(10), rngs.stream("aff1")),
            deliver=aff_delivered.append,
        )

        flood_delivered = {n: [] for n in (2, 3, 4)}
        flood_nodes = {}
        for n in (2, 3, 4):
            flood_nodes[n] = FloodNode(
                sim,
                Radio(medium, n, max_frame_bytes=64),
                UniformSelector(IdentifierSpace(10), rngs.stream(f"fl{n}")),
                deliver=(lambda p, n=n: flood_delivered[n].append(p)),
                rng=rngs.stream(f"fwd{n}"),
            )

        aff_payloads = [bytes([i]) * 50 for i in range(8)]
        for i, p in enumerate(aff_payloads):
            sim.schedule(i * 0.3, aff_tx.send, Packet(payload=p, origin=0))
        for i in range(6):
            sim.schedule(0.15 + i * 0.4, flood_nodes[2].originate,
                         b"alarm-%d" % i)
        sim.run(until=10.0)

        # AFF delivered everything it sent, exactly.
        assert aff_delivered == aff_payloads
        # Floods reached the other flooding nodes.
        for n in (3, 4):
            assert len(flood_delivered[n]) == 6
        # Foreign frames were dropped, not fabricated: flood nodes never
        # delivered AFF payloads and vice versa.
        for payloads in flood_delivered.values():
            assert all(p.startswith(b"alarm-") for p in payloads)
        assert all(p in aff_payloads for p in aff_delivered)

    def test_foreign_frames_counted_as_malformed_or_ignored(self):
        rngs = RngRegistry(78)
        sim = Simulator()
        medium = BroadcastMedium(sim, FullMesh(range(2)), rf_collisions=False,
                                 rng=rngs.stream("m"))
        flood = FloodNode(
            sim,
            Radio(medium, 0, max_frame_bytes=64),
            UniformSelector(IdentifierSpace(8), rngs.stream("f")),
        )
        delivered = []
        aff = AffDriver(
            Radio(medium, 1, max_frame_bytes=64),
            UniformSelector(IdentifierSpace(8), rngs.stream("a")),
            deliver=delivered.append,
        )
        for i in range(20):
            flood.originate(bytes([i]) * 10)
        sim.run()
        # The AFF driver saw 20 foreign frames; none delivered anything.
        assert aff.radio.frames_received == 20
        assert delivered == []


class TestInterestPlusAff:
    def test_interest_loop_unharmed_by_fragmentation_traffic(self):
        rngs = RngRegistry(79)
        sim = Simulator()
        medium = BroadcastMedium(sim, FullMesh(range(4)), rf_collisions=False,
                                 rng=rngs.stream("m"))
        # Node 0: interest source; node 1: sink; nodes 2-3: AFF chatter.
        source = InterestSource(
            sim,
            Radio(medium, 0),
            UniformSelector(IdentifierSpace(8), rngs.stream("src")),
            rng=rngs.stream("srcrng"),
            base_interval=0.5,
        )
        sink = InterestSink(sim, Radio(medium, 1), id_bits=8)
        chatter_tx = AffDriver(
            Radio(medium, 2),
            UniformSelector(IdentifierSpace(8), rngs.stream("c2")),
        )
        AffDriver(
            Radio(medium, 3),
            UniformSelector(IdentifierSpace(8), rngs.stream("c3")),
        )
        source.start()
        for i in range(10):
            sim.schedule(i * 0.7, chatter_tx.send,
                         Packet(payload=bytes([i]) * 30, origin=2))
        sim.run(until=20.0)
        assert source.stats.readings_sent > 10
        assert source.stats.reinforcements_received > 0
        # All reinforcements were genuine (sink-initiated), not noise.
        assert (
            source.stats.reinforcements_correct
            + source.stats.reinforcements_misdirected
            == source.stats.reinforcements_received
        )
