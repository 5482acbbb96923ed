"""Unit, property and differential tests for MSB-first bit packing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.aff import wire
from repro.aff.wire import FragmentCodec, MalformedFragmentError
from repro.util.bits import BitReader, BitWriter, BitstreamError

from .wire_oracle import OracleCodec


class TestBitWriter:
    def test_single_byte(self):
        w = BitWriter()
        w.write(0xAB, 8)
        assert w.getvalue() == b"\xab"

    def test_msb_first_packing(self):
        w = BitWriter()
        w.write(0b1, 1)
        w.write(0b0000000, 7)
        assert w.getvalue() == b"\x80"

    def test_cross_byte_value(self):
        w = BitWriter()
        w.write(0b101, 3)
        w.write(0b111111111, 9)  # 3+9 = 12 bits
        # 1011 1111 1111 0000
        assert w.getvalue() == bytes([0b10111111, 0b11110000])

    def test_final_partial_byte_zero_padded(self):
        w = BitWriter()
        w.write(0b11, 2)
        assert w.getvalue() == bytes([0b11000000])

    def test_bits_written_counter(self):
        w = BitWriter()
        w.write(5, 3)
        w.write_bytes(b"ab")
        assert w.bits_written == 19

    def test_oversized_value_rejected(self):
        with pytest.raises(BitstreamError):
            BitWriter().write(4, 2)

    def test_negative_value_rejected(self):
        with pytest.raises(BitstreamError):
            BitWriter().write(-1, 8)

    def test_zero_bits_writes_nothing(self):
        w = BitWriter()
        w.write(0, 0)
        assert w.getvalue() == b""

    @pytest.mark.parametrize("bits", [8, 62, 63, 64, 65, 128])
    def test_oversized_value_rejected_at_every_width(self, bits):
        with pytest.raises(BitstreamError):
            BitWriter().write(1 << bits, bits)
        with pytest.raises(BitstreamError):
            BitWriter().write((1 << (bits + 6)) | 1, bits)

    def test_wide_oversized_value_not_silently_truncated(self):
        # 1 << 70 used to pass the fit check and emit 64 zero bits.
        with pytest.raises(BitstreamError):
            BitWriter().write(1 << 70, 64)

    def test_value_filling_a_wide_field_accepted(self):
        w = BitWriter().write((1 << 64) - 1, 64)
        assert w.getvalue() == b"\xff" * 8

    def test_write_bytes_keeps_bit_alignment(self):
        w = BitWriter().write(0b1, 1).write_bytes(b"\xff\x00").write(0, 7)
        assert w.getvalue() == bytes([0xFF, 0x80, 0x00])
        assert w.bits_written == 24

    def test_chaining(self):
        out = BitWriter().write(1, 1).write(0, 1).write(3, 2).getvalue()
        assert out == bytes([0b10110000])


class TestBitReader:
    def test_read_back_single_values(self):
        data = BitWriter().write(0b101, 3).write(0x1234, 16).getvalue()
        r = BitReader(data)
        assert r.read(3) == 0b101
        assert r.read(16) == 0x1234

    def test_bits_remaining(self):
        r = BitReader(b"\xff\xff")
        assert r.bits_remaining == 16
        r.read(5)
        assert r.bits_remaining == 11

    def test_read_past_end_raises(self):
        r = BitReader(b"\xff")
        r.read(8)
        with pytest.raises(BitstreamError):
            r.read(1)

    def test_read_bytes(self):
        data = BitWriter().write(0b1, 1).write_bytes(b"hi").getvalue()
        r = BitReader(data)
        assert r.read(1) == 1
        assert r.read_bytes(2) == b"hi"

    def test_read_zero_bits(self):
        r = BitReader(b"\x00")
        assert r.read(0) == 0


class TestRoundTrip:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=48), st.randoms()),
            min_size=1,
            max_size=20,
        )
    )
    def test_arbitrary_field_sequences_round_trip(self, specs):
        fields = []
        w = BitWriter()
        for bits, rnd in specs:
            value = rnd.randrange(1 << bits)
            fields.append((value, bits))
            w.write(value, bits)
        r = BitReader(w.getvalue())
        for value, bits in fields:
            assert r.read(bits) == value

    @given(st.binary(min_size=0, max_size=100), st.integers(min_value=0, max_value=15))
    def test_bytes_round_trip_at_any_bit_offset(self, payload, offset_bits):
        w = BitWriter()
        w.write(0, offset_bits)
        w.write_bytes(payload)
        r = BitReader(w.getvalue())
        r.read(offset_bits)
        assert r.read_bytes(len(payload)) == payload

    @given(st.integers(min_value=0, max_value=2**62 - 1))
    def test_wide_values_round_trip(self, value):
        w = BitWriter().write(value, 62)
        assert BitReader(w.getvalue()).read(62) == value


# ----------------------------------------------------------------------
# Differential tests: the word-level reader against a bit-at-a-time oracle
# ----------------------------------------------------------------------
class _ChunkReader:
    """The bit-chunk reader the word-level :class:`BitReader` replaced.

    Kept verbatim as an oracle: it walks the input a byte-chunk at a
    time and builds ``read_bytes`` from one ``read(8)`` per byte.
    """

    def __init__(self, data):
        self._data = data
        self._bit_pos = 0

    @property
    def bits_remaining(self):
        return 8 * len(self._data) - self._bit_pos

    def read(self, bits):
        if bits < 0:
            raise BitstreamError("bit count must be >= 0")
        if bits > self.bits_remaining:
            raise BitstreamError(
                f"read of {bits} bits with only {self.bits_remaining} remaining"
            )
        value = 0
        remaining = bits
        while remaining > 0:
            byte_index, bit_offset = divmod(self._bit_pos, 8)
            available = 8 - bit_offset
            take = min(available, remaining)
            chunk = self._data[byte_index]
            chunk >>= available - take
            chunk &= (1 << take) - 1
            value = (value << take) | chunk
            self._bit_pos += take
            remaining -= take
        return value

    def read_bytes(self, count):
        return bytes(self.read(8) for _ in range(count))


def _outcome(reader, op, arg):
    """``("ok", value)`` or ``("error", None)`` for one reader call."""
    try:
        return "ok", getattr(reader, op)(arg)
    except BitstreamError:
        return "error", None


_READ_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("read"),
            st.one_of(
                st.integers(min_value=0, max_value=16),
                st.integers(min_value=0, max_value=200),
                st.sampled_from([0, 63, 64, 65, 127, 128, 129]),
            ),
        ),
        st.tuples(st.just("read_bytes"), st.integers(min_value=0, max_value=12)),
    ),
    max_size=30,
)


class TestReaderMatchesChunkOracle:
    @given(st.binary(max_size=40), _READ_OPS)
    def test_read_sequences(self, data, ops):
        new, old = BitReader(data), _ChunkReader(data)
        for op, arg in ops:
            got, want = _outcome(new, op, arg), _outcome(old, op, arg)
            assert got == want
            if got[0] == "error":
                # A failed read is the end of a well-formed parse.
                break
            assert new.bits_remaining == old.bits_remaining

    @given(st.binary(max_size=24), st.integers(min_value=0, max_value=26))
    def test_reads_at_every_bit_offset(self, data, count):
        for offset in range(8 * len(data) + 1):
            for width in (0, 1, 7, 9, 64, 65):
                new, old = BitReader(data), _ChunkReader(data)
                new.read(offset)
                old.read(offset)
                assert _outcome(new, "read", width) == _outcome(old, "read", width)
            new, old = BitReader(data), _ChunkReader(data)
            new.read(offset)
            old.read(offset)
            got = _outcome(new, "read_bytes", count)
            assert got == _outcome(old, "read_bytes", count)
            if got[0] == "ok":
                assert isinstance(got[1], bytes)
                assert new.bits_remaining == old.bits_remaining

    @given(
        st.binary(max_size=16),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=7),
    )
    def test_reads_past_the_end_raise_in_both(self, data, extra, skip):
        skip = min(skip, 8 * len(data))
        for reader in (BitReader(data), _ChunkReader(data)):
            with pytest.raises(BitstreamError):
                reader.read(8 * len(data) + extra)
            reader.read(skip)
            with pytest.raises(BitstreamError):
                reader.read_bytes(len(data) + 1)

    def test_negative_widths_rejected_by_both(self):
        for reader in (BitReader(b"\x00"), _ChunkReader(b"\x00")):
            with pytest.raises(BitstreamError):
                reader.read(-1)


#: the identifier sizes Figure 4 sweeps
_FIG4_ID_BITS = (2, 3, 4, 5, 6, 8, 10)


def _decode(codec, frame):
    try:
        return "ok", codec.decode(frame)
    except MalformedFragmentError:
        return "malformed", None


def _oracle_decode(codec, frame):
    return _decode(OracleCodec(codec.id_bits, reader=_ChunkReader), frame)


@st.composite
def _frames(draw):
    """Random bytes, or a valid encoding truncated or bit-flipped."""
    id_bits = draw(st.sampled_from(_FIG4_ID_BITS))
    codec = FragmentCodec(id_bits)
    identifier = draw(st.integers(min_value=0, max_value=(1 << id_bits) - 1))
    kind = draw(st.sampled_from(["random", "intro", "data", "notify"]))
    if kind == "random":
        return codec, draw(st.binary(max_size=27))
    if kind == "intro":
        fragment = wire.IntroFragment(
            identifier=identifier,
            total_length=draw(st.integers(min_value=0, max_value=0xFFFF)),
            checksum=draw(st.integers(min_value=0, max_value=0xFFFF)),
        )
    elif kind == "data":
        fragment = wire.DataFragment(
            identifier=identifier,
            offset=draw(st.integers(min_value=0, max_value=0xFFFF)),
            payload=draw(st.binary(max_size=22)),
        )
    else:
        fragment = wire.NotifyFragment(identifier=identifier)
    frame = bytearray(codec.encode(fragment))
    frame = frame[: draw(st.integers(min_value=0, max_value=len(frame)))]
    if frame and draw(st.booleans()):
        frame[draw(st.integers(0, len(frame) - 1))] ^= 1 << draw(st.integers(0, 7))
    return codec, bytes(frame)


class TestCodecDecodeMatchesChunkOracle:
    @given(_frames())
    def test_fuzzed_frames_decode_alike(self, case):
        codec, frame = case
        assert _decode(codec, frame) == _oracle_decode(codec, frame)

    @pytest.mark.parametrize("id_bits", _FIG4_ID_BITS)
    def test_valid_frames_round_trip_at_every_figure_4_width(self, id_bits):
        codec = FragmentCodec(id_bits)
        top = (1 << id_bits) - 1
        for fragment in (
            wire.IntroFragment(identifier=top, total_length=80, checksum=0xBEEF),
            wire.DataFragment(identifier=top, offset=54, payload=bytes(range(22))),
            wire.NotifyFragment(identifier=top),
        ):
            frame = codec.encode(fragment)
            assert _decode(codec, frame) == ("ok", fragment)
            assert _oracle_decode(codec, frame) == ("ok", fragment)
