"""The one-integer fragment codec against the bit-stream codec it replaced.

:class:`~tests.wire_oracle.OracleCodec` writes and reads field by field
through ``BitWriter``/``BitReader``.  Over every identifier size the
codec accepts (0-62 bits) and all three fragment kinds, the two must
produce the same bytes, decode the same fragments, and raise
:class:`MalformedFragmentError` on exactly the same inputs: every
truncated prefix of a valid frame and every frame of the unknown kind.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.aff.wire import (
    DataFragment,
    FragmentCodec,
    IntroFragment,
    MalformedFragmentError,
    NotifyFragment,
)

from .wire_oracle import OracleCodec

_ID_BITS = st.integers(min_value=0, max_value=62)


def _decoded(codec, frame):
    try:
        return "ok", codec.decode(frame)
    except MalformedFragmentError:
        return "malformed", None


def _encoded(codec, fragment):
    try:
        return "ok", codec.encode(fragment)
    except ValueError:
        return "rejected", None


@st.composite
def _fragments(draw):
    """``(id_bits, fragment)`` with every field in range."""
    id_bits = draw(_ID_BITS)
    identifier = draw(st.integers(min_value=0, max_value=(1 << id_bits) - 1))
    kind = draw(st.sampled_from(["intro", "data", "notify"]))
    if kind == "intro":
        fragment = IntroFragment(
            identifier=identifier,
            total_length=draw(st.integers(min_value=0, max_value=0xFFFF)),
            checksum=draw(st.integers(min_value=0, max_value=0xFFFF)),
        )
    elif kind == "data":
        fragment = DataFragment(
            identifier=identifier,
            offset=draw(st.integers(min_value=0, max_value=0xFFFF)),
            payload=draw(st.binary(max_size=255)),
        )
    else:
        fragment = NotifyFragment(identifier=identifier)
    return id_bits, fragment


@st.composite
def _identifiers(draw):
    """``(id_bits, identifier)``, the identifier often at the space's edge."""
    id_bits = draw(_ID_BITS)
    top = 1 << id_bits
    identifier = draw(
        st.one_of(
            st.integers(min_value=-(1 << 64), max_value=1 << 64),
            st.integers(min_value=top - 2, max_value=top + 2),
            st.integers(min_value=2 * top - 1, max_value=2 * top + 1),
            st.integers(min_value=-2, max_value=1),
        )
    )
    return id_bits, identifier


class TestCodecMatchesBitStreamOracle:
    @given(_fragments())
    def test_same_bytes_and_fragment(self, case):
        id_bits, fragment = case
        codec, oracle = FragmentCodec(id_bits), OracleCodec(id_bits)
        frame = codec.encode(fragment)
        assert isinstance(frame, bytes)
        assert frame == oracle.encode(fragment)
        assert codec.decode(frame) == fragment
        assert oracle.decode(frame) == fragment

    @given(_fragments())
    def test_every_truncated_prefix_decodes_alike(self, case):
        id_bits, fragment = case
        codec, oracle = FragmentCodec(id_bits), OracleCodec(id_bits)
        frame = codec.encode(fragment)
        for cut in range(len(frame)):
            prefix = frame[:cut]
            assert _decoded(codec, prefix) == _decoded(oracle, prefix)

    @given(_ID_BITS, st.binary(max_size=40))
    def test_unknown_kind_is_malformed_where_the_oracle_says(self, id_bits, data):
        frame = bytes([0xC0 | data[0]]) + data[1:] if data else b""
        codec, oracle = FragmentCodec(id_bits), OracleCodec(id_bits)
        assert _decoded(codec, frame) == ("malformed", None)
        assert _decoded(oracle, frame) == ("malformed", None)

    @given(_ID_BITS, st.binary(max_size=40))
    def test_arbitrary_bytes_decode_alike(self, id_bits, data):
        codec, oracle = FragmentCodec(id_bits), OracleCodec(id_bits)
        assert _decoded(codec, data) == _decoded(oracle, data)
        assert _decoded(codec, bytearray(data)) == _decoded(oracle, data)

    @given(
        _identifiers(),
        st.integers(min_value=-5, max_value=0x10005),
        st.integers(min_value=-(1 << 20), max_value=1 << 20),
    )
    def test_intro_fields_rejected_alike(self, case, length, checksum):
        id_bits, identifier = case
        fragment = IntroFragment(
            identifier=identifier, total_length=length, checksum=checksum
        )
        codec, oracle = FragmentCodec(id_bits), OracleCodec(id_bits)
        assert _encoded(codec, fragment) == _encoded(oracle, fragment)

    @given(
        _identifiers(),
        st.integers(min_value=-5, max_value=0x10005),
        st.integers(min_value=250, max_value=260),
    )
    def test_data_fields_rejected_alike(self, case, offset, size):
        id_bits, identifier = case
        fragment = DataFragment(
            identifier=identifier, offset=offset, payload=bytes(size)
        )
        codec, oracle = FragmentCodec(id_bits), OracleCodec(id_bits)
        assert _encoded(codec, fragment) == _encoded(oracle, fragment)

    @given(_identifiers())
    def test_notify_identifier_rejected_alike(self, case):
        id_bits, identifier = case
        fragment = NotifyFragment(identifier=identifier)
        codec, oracle = FragmentCodec(id_bits), OracleCodec(id_bits)
        assert _encoded(codec, fragment) == _encoded(oracle, fragment)
