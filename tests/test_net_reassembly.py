"""Unit and property tests for the generic reassembly buffer."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.reassembly import PartialPacket, ReassemblyBuffer, ReassemblyStats


class TestPartialPacket:
    def test_contiguous_completion(self):
        p = PartialPacket(total_length=10)
        p.add_span(0, b"01234")
        assert not p.is_complete()
        p.add_span(5, b"56789")
        assert p.is_complete()
        assert p.assemble() == b"0123456789"

    def test_out_of_order_spans(self):
        p = PartialPacket(total_length=6)
        p.add_span(3, b"def")
        p.add_span(0, b"abc")
        assert p.is_complete()
        assert p.assemble() == b"abcdef"

    def test_gap_prevents_completion(self):
        p = PartialPacket(total_length=10)
        p.add_span(0, b"ab")
        p.add_span(5, b"fghij")
        assert not p.is_complete()

    def test_unknown_length_never_complete(self):
        p = PartialPacket()
        p.add_span(0, b"data")
        assert not p.is_complete()

    def test_duplicate_identical_span_accepted(self):
        p = PartialPacket(total_length=4)
        assert p.add_span(0, b"ab")
        assert p.add_span(0, b"ab")
        p.add_span(2, b"cd")
        assert p.assemble() == b"abcd"

    def test_conflicting_same_offset_rejected(self):
        p = PartialPacket(total_length=4)
        assert p.add_span(0, b"ab")
        assert not p.add_span(0, b"XY")

    def test_overlapping_agreeing_spans_accepted(self):
        p = PartialPacket(total_length=6)
        assert p.add_span(0, b"abcd")
        assert p.add_span(2, b"cdef")
        assert p.is_complete()
        assert p.assemble() == b"abcdef"

    def test_overlapping_disagreeing_spans_rejected(self):
        p = PartialPacket(total_length=6)
        assert p.add_span(0, b"abcd")
        assert not p.add_span(2, b"XXef")

    def test_zero_length_packet_completes_immediately(self):
        p = PartialPacket(total_length=0)
        assert p.is_complete()
        assert p.assemble() == b""

    def test_assemble_without_length_raises(self):
        with pytest.raises(ValueError):
            PartialPacket().assemble()

    def test_span_past_total_length_truncated_on_assemble(self):
        p = PartialPacket(total_length=3)
        p.add_span(0, b"abcdef")
        assert p.assemble() == b"abc"

    def test_bytes_held(self):
        p = PartialPacket(total_length=10)
        p.add_span(0, b"ab")
        p.add_span(5, b"xyz")
        assert p.bytes_held() == 5

    @given(
        payload=st.binary(min_size=1, max_size=200),
        chunk=st.integers(min_value=1, max_value=50),
        seed=st.integers(),
    )
    def test_any_permutation_of_chunks_reassembles(self, payload, chunk, seed):
        import random

        spans = [
            (off, payload[off : off + chunk]) for off in range(0, len(payload), chunk)
        ]
        random.Random(seed).shuffle(spans)
        p = PartialPacket(total_length=len(payload))
        for off, data in spans:
            assert p.add_span(off, data)
        assert p.is_complete()
        assert p.assemble() == payload


class TestReassemblyBuffer:
    def test_get_or_create_and_complete(self):
        buf: ReassemblyBuffer[int] = ReassemblyBuffer()
        entry = buf.get_or_create(7, now=0.0)
        entry.total_length = 2
        entry.add_span(0, b"ab")
        assert 7 in buf
        done = buf.complete(7)
        assert done.assemble() == b"ab"
        assert 7 not in buf
        assert buf.stats.completed == 1

    def test_timeout_eviction(self):
        buf: ReassemblyBuffer[int] = ReassemblyBuffer(timeout=5.0)
        buf.get_or_create(1, now=0.0)
        buf.get_or_create(2, now=3.0)
        evicted = buf.evict_stale(now=6.0)
        assert evicted == 1
        assert 1 not in buf
        assert 2 in buf

    def test_touch_refreshes_staleness(self):
        buf: ReassemblyBuffer[int] = ReassemblyBuffer(timeout=5.0)
        buf.get_or_create(1, now=0.0)
        buf.get_or_create(1, now=4.0)  # touch
        assert buf.evict_stale(now=8.0) == 0

    def test_max_entries_evicts_lru(self):
        buf: ReassemblyBuffer[int] = ReassemblyBuffer(max_entries=2)
        buf.get_or_create(1, now=0.0)
        buf.get_or_create(2, now=1.0)
        buf.get_or_create(3, now=2.0)  # evicts key 1
        assert 1 not in buf
        assert 2 in buf and 3 in buf

    def test_drop_counts_as_eviction(self):
        buf: ReassemblyBuffer[int] = ReassemblyBuffer()
        buf.get_or_create(1, now=0.0)
        buf.drop(1)
        assert buf.stats.evicted == 1
        buf.drop(99)  # absent key: no-op
        assert buf.stats.evicted == 1

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ReassemblyBuffer(timeout=0)
        with pytest.raises(ValueError):
            ReassemblyBuffer(max_entries=0)

    def test_peek_does_not_create(self):
        buf: ReassemblyBuffer[int] = ReassemblyBuffer()
        assert buf.peek(5) is None
        assert len(buf) == 0


class _FullScanOracle:
    """The buffer's eviction semantics with a full scan on every call."""

    def __init__(self, timeout, max_entries):
        self.timeout = timeout
        self.max_entries = max_entries
        self.last_update = {}  # key -> last_update, in buffer dict order
        self.stats = ReassemblyStats()

    def get_or_create(self, key, now):
        if key not in self.last_update:
            if len(self.last_update) >= self.max_entries:
                victim = min(self.last_update, key=self.last_update.__getitem__)
                del self.last_update[victim]
                self.stats.evicted += 1
            self.stats.started += 1
        self.last_update[key] = now

    def complete(self, key):
        del self.last_update[key]
        self.stats.completed += 1

    def drop(self, key):
        if self.last_update.pop(key, None) is not None:
            self.stats.evicted += 1

    def evict_stale(self, now):
        stale = [
            key
            for key, last in self.last_update.items()
            if now - last > self.timeout
        ]
        for key in stale:
            del self.last_update[key]
        self.stats.evicted += len(stale)
        return len(stale)


# Dyadic steps against an integer timeout: idle times land exactly on
# the timeout often, so a ``>=``-for-``>`` slip changes what is evicted.
_STEPS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5])
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["get", "get", "complete", "drop", "evict"]),
        st.integers(0, 5),
        _STEPS,
    ),
    max_size=60,
)


class TestEvictionAgainstFullScan:
    """``evict_stale`` skips its scan via a lower bound on ``last_update``;
    every op sequence must evict exactly what a full scan evicts."""

    def _check(self, ops, monotone, max_entries):
        buf: ReassemblyBuffer[int] = ReassemblyBuffer(
            timeout=2.0, max_entries=max_entries
        )
        oracle = _FullScanOracle(timeout=2.0, max_entries=max_entries)
        now = 0.0
        for op, key, step in ops:
            # Non-monotone runs draw absolute times, as a caller relying
            # on ``Reassembler.accept``'s default ``now=0.0`` would.
            now = now + step if monotone else 2 * step
            if op == "get":
                buf.get_or_create(key, now)
                oracle.get_or_create(key, now)
            elif op == "complete" and key in oracle.last_update:
                buf.complete(key)
                oracle.complete(key)
            elif op == "drop":
                buf.drop(key)
                oracle.drop(key)
            elif op == "evict":
                evicted = buf.evict_stale(now)
                assert evicted == oracle.evict_stale(now)
                if evicted:
                    # A call that evicted has scanned, so the bound must
                    # be tight again; a stale bound would send every later
                    # call through a full scan.
                    assert buf._oldest == min(
                        oracle.last_update.values(), default=math.inf
                    )
            assert list(buf.keys()) == list(oracle.last_update)
            assert {k: buf.peek(k).last_update for k in buf.keys()} == (
                oracle.last_update
            )
            assert buf.stats == oracle.stats
            assert buf._oldest <= min(oracle.last_update.values(), default=math.inf)

    @settings(max_examples=300, deadline=None)
    @given(ops=_OPS, max_entries=st.integers(1, 4))
    def test_monotone_now_matches_full_scan(self, ops, max_entries):
        self._check(ops, monotone=True, max_entries=max_entries)

    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS, max_entries=st.integers(1, 4))
    def test_any_now_matches_full_scan(self, ops, max_entries):
        self._check(ops, monotone=False, max_entries=max_entries)
