"""Unit tests for radio frames and bit accounting."""

import pytest

from repro.radio.frame import Frame, RPC_MAX_FRAME_BYTES
from repro.radio.medium import BroadcastMedium
from repro.sim.engine import Simulator
from repro.topology.graphs import FullMesh


class TestFrame:
    def test_sizes(self):
        f = Frame(payload=b"\x00" * 10, origin=1)
        assert f.size_bytes == 10
        assert f.size_bits == 80

    def test_default_split_counts_everything_as_header(self):
        f = Frame(payload=b"ab", origin=0)
        assert f.header_bits == 16
        assert f.payload_bits == 0

    def test_explicit_split_must_sum(self):
        f = Frame(payload=b"abcd", origin=0, header_bits=12, payload_bits=20)
        assert f.header_bits + f.payload_bits == f.size_bits

    def test_inconsistent_split_rejected(self):
        with pytest.raises(ValueError):
            Frame(payload=b"abcd", origin=0, header_bits=10, payload_bits=10)

    def test_seq_unique(self):
        # Numbers are per medium, stamped at transmit (0 until sent).
        sim = Simulator()
        medium = BroadcastMedium(sim, FullMesh(range(2)))
        a = Frame(payload=b"", origin=0)
        b = Frame(payload=b"", origin=0)
        assert a.seq == b.seq == 0
        medium.transmit(b)
        medium.transmit(a)
        assert (a.seq, b.seq) == (2, 1)

    def test_rpc_limit_constant(self):
        assert RPC_MAX_FRAME_BYTES == 27

    def test_ground_truth_is_opaque(self):
        f = Frame(payload=b"x", origin=3, ground_truth={"packet": (3, 1)})
        assert f.ground_truth["packet"] == (3, 1)
