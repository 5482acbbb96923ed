"""Unit and property tests for checksum algorithms."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.checksum import (
    checksum_by_name,
    crc16_ccitt,
    fletcher16,
    internet_checksum,
)

ALL_ALGOS = [fletcher16, crc16_ccitt, internet_checksum]


class TestKnownValues:
    def test_fletcher16_known_vector(self):
        # "abcde" -> 0xC8F0 (classic Fletcher-16 test vector)
        assert fletcher16(b"abcde") == 0xC8F0

    def test_fletcher16_abcdef(self):
        assert fletcher16(b"abcdef") == 0x2057

    def test_crc16_ccitt_known_vector(self):
        # CRC-16/CCITT-FALSE("123456789") = 0x29B1
        assert crc16_ccitt(b"123456789") == 0x29B1

    def test_crc16_empty(self):
        assert crc16_ccitt(b"") == 0xFFFF

    def test_internet_checksum_rfc1071_example(self):
        # RFC 1071 example words: 0x0001 0xf203 0xf4f5 0xf6f7 -> sum 0xddf2
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == (~0xDDF2) & 0xFFFF

    def test_internet_checksum_odd_length_pads(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")


class TestProperties:
    @pytest.mark.parametrize("algo", ALL_ALGOS)
    @given(data=st.binary(max_size=200))
    def test_range_is_16_bit(self, algo, data):
        assert 0 <= algo(data) <= 0xFFFF

    @pytest.mark.parametrize("algo", ALL_ALGOS)
    @given(data=st.binary(min_size=1, max_size=100), index=st.integers(min_value=0))
    def test_single_byte_change_detected(self, algo, data, index):
        index %= len(data)
        corrupted = bytearray(data)
        corrupted[index] ^= 0x5A
        assert algo(bytes(corrupted)) != algo(data)

    def test_fletcher_is_position_sensitive(self):
        """Reordering blocks changes the sum (unlike a plain byte sum)."""
        a = b"hello world"
        b = b"world hello"
        assert fletcher16(a) != fletcher16(b)

    @given(data=st.binary(max_size=60))
    def test_algorithms_disagree_rarely_but_exist_independently(self, data):
        """The three algorithms are genuinely different functions."""
        # On at least one canonical input they must all differ pairwise.
        probe = b"123456789"
        values = {fletcher16(probe), crc16_ccitt(probe), internet_checksum(probe)}
        assert len(values) == 3
        # And each is a pure function of its input.
        for algo in ALL_ALGOS:
            assert algo(data) == algo(bytes(data))

    def test_deterministic(self):
        data = b"sensor reading 42"
        for algo in ALL_ALGOS:
            assert algo(data) == algo(data)


def _loop_fletcher16(data: bytes) -> int:
    """The byte-at-a-time Fletcher-16: the oracle for the closed form."""
    c0 = 0
    c1 = 0
    for byte in data:
        c0 = (c0 + byte) % 255
        c1 = (c1 + c0) % 255
    return (c1 << 8) | c0


class TestFletcherMatchesLoopOracle:
    @given(st.binary(max_size=4096))
    def test_random_bytes(self, data):
        assert fletcher16(data) == _loop_fletcher16(data)

    @given(st.integers(min_value=0, max_value=2048), st.binary(max_size=8))
    def test_runs_of_0xff(self, run, tail):
        # 0xFF is 0 modulo 255: a run of them leaves c0 still and
        # grows c1 by c0 each byte.
        data = tail + b"\xff" * run + tail
        assert fletcher16(data) == _loop_fletcher16(data)

    @pytest.mark.parametrize("size", [0, 1, 254, 255, 256, 4095, 65535, 65536])
    def test_lengths_up_to_64_kib(self, size):
        for fill in (b"\x00", b"\xff", b"\x80"):
            data = fill * size
            assert fletcher16(data) == _loop_fletcher16(data)
        patterned = bytes(range(256)) * (size // 256) + bytes(range(size % 256))
        assert fletcher16(patterned) == _loop_fletcher16(patterned)

    @given(st.binary(min_size=1, max_size=32))
    def test_bytearray_and_memoryview_inputs(self, data):
        want = _loop_fletcher16(data)
        assert fletcher16(bytearray(data)) == want
        assert fletcher16(memoryview(data)) == want


class TestLookup:
    def test_lookup_all_names(self):
        assert checksum_by_name("fletcher16") is fletcher16
        assert checksum_by_name("crc16") is crc16_ccitt
        assert checksum_by_name("crc16_ccitt") is crc16_ccitt
        assert checksum_by_name("internet") is internet_checksum

    def test_unknown_name_lists_valid(self):
        with pytest.raises(KeyError, match="fletcher16"):
            checksum_by_name("md5")
