"""The bit-stream AFF fragment codec, kept as an oracle.

:class:`repro.aff.wire.FragmentCodec` packs a fragment as one integer
and parses a frame from one ``int.from_bytes``.  Before that it wrote
and read field by field through :class:`repro.util.bits.BitWriter` and
:class:`~repro.util.bits.BitReader`; :class:`OracleCodec` is that
encoder and decoder, so tests can hold the two to the same bytes, the
same fragments and the same malformed inputs.
"""

from repro.aff.wire import (
    KIND_DATA,
    KIND_INTRO,
    KIND_NOTIFY,
    MAX_FRAGMENT_PAYLOAD,
    MAX_PACKET_BYTES,
    DataFragment,
    IntroFragment,
    MalformedFragmentError,
    NotifyFragment,
)
from repro.util.bits import BitReader, BitWriter, BitstreamError

_KIND_BITS = 2
_LENGTH_BITS = 16
_CHECKSUM_BITS = 16
_OFFSET_BITS = 16
_FRAGLEN_BITS = 8


class OracleCodec:
    """Field-by-field bit-stream codec; ``reader`` reads the frames."""

    def __init__(self, id_bits, reader=BitReader):
        if not 0 <= id_bits <= 62:
            raise ValueError("id_bits must be in [0, 62]")
        self.id_bits = id_bits
        self._reader = reader

    def _check_identifier(self, identifier):
        if identifier >> self.id_bits:
            raise ValueError(f"identifier {identifier} exceeds {self.id_bits} bits")

    def encode(self, fragment):
        if not isinstance(fragment, (IntroFragment, DataFragment, NotifyFragment)):
            raise TypeError(f"not a fragment: {fragment!r}")
        self._check_identifier(fragment.identifier)
        writer = BitWriter()
        if isinstance(fragment, IntroFragment):
            if not 0 <= fragment.total_length <= MAX_PACKET_BYTES:
                raise ValueError(f"total_length {fragment.total_length} out of range")
            writer.write(KIND_INTRO, _KIND_BITS)
            writer.write(fragment.identifier, self.id_bits)
            writer.write(fragment.total_length, _LENGTH_BITS)
            writer.write(fragment.checksum & 0xFFFF, _CHECKSUM_BITS)
        elif isinstance(fragment, DataFragment):
            if not 0 <= fragment.offset <= MAX_PACKET_BYTES:
                raise ValueError(f"offset {fragment.offset} out of range")
            if len(fragment.payload) > MAX_FRAGMENT_PAYLOAD:
                raise ValueError("fragment payload too long")
            writer.write(KIND_DATA, _KIND_BITS)
            writer.write(fragment.identifier, self.id_bits)
            writer.write(fragment.offset, _OFFSET_BITS)
            writer.write(len(fragment.payload), _FRAGLEN_BITS)
            writer.write_bytes(fragment.payload)
        else:
            writer.write(KIND_NOTIFY, _KIND_BITS)
            writer.write(fragment.identifier, self.id_bits)
        return writer.getvalue()

    def decode(self, data):
        reader = self._reader(data)
        try:
            kind = reader.read(_KIND_BITS)
            identifier = reader.read(self.id_bits)
            if kind == KIND_INTRO:
                total_length = reader.read(_LENGTH_BITS)
                checksum = reader.read(_CHECKSUM_BITS)
                return IntroFragment(
                    identifier=identifier,
                    total_length=total_length,
                    checksum=checksum,
                )
            if kind == KIND_DATA:
                offset = reader.read(_OFFSET_BITS)
                length = reader.read(_FRAGLEN_BITS)
                payload = reader.read_bytes(length)
                return DataFragment(
                    identifier=identifier, offset=offset, payload=payload
                )
            if kind == KIND_NOTIFY:
                return NotifyFragment(identifier=identifier)
        except BitstreamError as exc:
            raise MalformedFragmentError(f"truncated fragment: {exc}") from exc
        raise MalformedFragmentError(f"unknown fragment kind {kind}")
