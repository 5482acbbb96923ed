"""AFF fragment wire format.

Mirrors the paper's implementation (Section 5): "A 'packet introduction'
fragment is transmitted first, containing the packet's AFF identifier,
total length, and checksum.  Each fragment is then transmitted with the
packet's AFF identifier and the byte offset of the data it carries."

The format is bit-packed so identifier size is paid *exactly*:

======================  =======================================
Introduction fragment    kind(2) | id(H) | total_length(16) | checksum(16)
Data fragment            kind(2) | id(H) | offset(16) | length(8) | payload
======================  =======================================

``H`` (the AFF identifier size in bits) parameterises the codec.  The
encoded frame is the packed bits zero-padded to a whole number of bytes;
per-fragment *logical* header bits (for the efficiency ledger) are
reported separately by :meth:`FragmentCodec.intro_header_bits` and
:meth:`FragmentCodec.data_header_bits`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from ..util.bits import BitReader, BitWriter, BitstreamError

if TYPE_CHECKING:
    from ..radio.frame import Frame

__all__ = [
    "DataFragment",
    "FragmentCodec",
    "IntroFragment",
    "MalformedFragmentError",
    "NotifyFragment",
    "KIND_INTRO",
    "KIND_DATA",
    "KIND_NOTIFY",
]

KIND_INTRO = 0
KIND_DATA = 1
#: explicit identifier-collision notification (Section 3.2's suggestion for
#: the hidden-terminal problem: the shared receiver tells the senders)
KIND_NOTIFY = 2

#: field widths shared by both fragment kinds
_KIND_BITS = 2
_LENGTH_BITS = 16
_CHECKSUM_BITS = 16
_OFFSET_BITS = 16
_FRAGLEN_BITS = 8

#: the 64 KB packet limit of the paper's driver follows from 16-bit lengths
MAX_PACKET_BYTES = (1 << _LENGTH_BITS) - 1
MAX_FRAGMENT_PAYLOAD = (1 << _FRAGLEN_BITS) - 1


class MalformedFragmentError(ValueError):
    """Raised when bytes off the air do not parse as an AFF fragment."""


@dataclass(frozen=True)
class IntroFragment:
    """The packet introduction: identifier, total length, checksum."""

    identifier: int
    total_length: int
    checksum: int


@dataclass(frozen=True)
class DataFragment:
    """A data-carrying fragment: identifier, byte offset, payload."""

    identifier: int
    offset: int
    payload: bytes


@dataclass(frozen=True)
class NotifyFragment:
    """A receiver's explicit identifier-collision notification.

    Broadcast by a receiver that detected two transactions sharing
    ``identifier``; listening senders treat the identifier as hot and
    avoid it for a while.  This is the paper's proposed mitigation for
    hidden terminals, where passive listening cannot help.
    """

    identifier: int


Fragment = Union[IntroFragment, DataFragment, NotifyFragment]


class FragmentCodec:
    """Encodes/decodes AFF fragments for a given identifier size.

    Parameters
    ----------
    id_bits:
        AFF identifier size ``H``.  The central experimental knob: every
        figure in the paper sweeps it.
    """

    def __init__(self, id_bits: int):
        if not 0 <= id_bits <= 62:
            raise ValueError("id_bits must be in [0, 62]")
        self.id_bits = id_bits

    # ------------------------------------------------------------------
    # Logical header sizes (bits), for the efficiency ledger
    # ------------------------------------------------------------------
    @property
    def intro_header_bits(self) -> int:
        """Bits of protocol header in an introduction fragment."""
        return _KIND_BITS + self.id_bits + _LENGTH_BITS + _CHECKSUM_BITS

    @property
    def data_header_bits(self) -> int:
        """Bits of protocol header in a data fragment (excludes payload)."""
        return _KIND_BITS + self.id_bits + _OFFSET_BITS + _FRAGLEN_BITS

    def max_payload_in_frame(self, frame_bytes: int) -> int:
        """Largest data payload (bytes) that fits a ``frame_bytes`` frame."""
        available_bits = 8 * frame_bytes - self.data_header_bits
        payload = available_bits // 8
        if payload < 1:
            raise ValueError(
                f"{frame_bytes}-byte frames cannot carry any payload with "
                f"{self.data_header_bits}-bit data headers"
            )
        return min(payload, MAX_FRAGMENT_PAYLOAD)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode_intro(self, fragment: IntroFragment) -> bytes:
        if fragment.identifier >> self.id_bits:
            raise ValueError(
                f"identifier {fragment.identifier} exceeds {self.id_bits} bits"
            )
        if not 0 <= fragment.total_length <= MAX_PACKET_BYTES:
            raise ValueError(f"total_length {fragment.total_length} out of range")
        writer = BitWriter()
        writer.write(KIND_INTRO, _KIND_BITS)
        writer.write(fragment.identifier, self.id_bits)
        writer.write(fragment.total_length, _LENGTH_BITS)
        writer.write(fragment.checksum & 0xFFFF, _CHECKSUM_BITS)
        return writer.getvalue()

    def encode_data(self, fragment: DataFragment) -> bytes:
        if fragment.identifier >> self.id_bits:
            raise ValueError(
                f"identifier {fragment.identifier} exceeds {self.id_bits} bits"
            )
        if not 0 <= fragment.offset <= MAX_PACKET_BYTES:
            raise ValueError(f"offset {fragment.offset} out of range")
        if len(fragment.payload) > MAX_FRAGMENT_PAYLOAD:
            raise ValueError(f"fragment payload of {len(fragment.payload)}B too long")
        writer = BitWriter()
        writer.write(KIND_DATA, _KIND_BITS)
        writer.write(fragment.identifier, self.id_bits)
        writer.write(fragment.offset, _OFFSET_BITS)
        writer.write(len(fragment.payload), _FRAGLEN_BITS)
        writer.write_bytes(fragment.payload)
        return writer.getvalue()

    def encode_notify(self, fragment: NotifyFragment) -> bytes:
        if fragment.identifier >> self.id_bits:
            raise ValueError(
                f"identifier {fragment.identifier} exceeds {self.id_bits} bits"
            )
        writer = BitWriter()
        writer.write(KIND_NOTIFY, _KIND_BITS)
        writer.write(fragment.identifier, self.id_bits)
        return writer.getvalue()

    @property
    def notify_bits(self) -> int:
        """Bits in a collision notification (all header, no payload)."""
        return _KIND_BITS + self.id_bits

    def encode(self, fragment: Fragment) -> bytes:
        if isinstance(fragment, IntroFragment):
            return self.encode_intro(fragment)
        if isinstance(fragment, DataFragment):
            return self.encode_data(fragment)
        if isinstance(fragment, NotifyFragment):
            return self.encode_notify(fragment)
        raise TypeError(f"not a fragment: {fragment!r}")

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(self, data: bytes) -> Fragment:
        """Parse bytes off the air.

        Raises
        ------
        MalformedFragmentError
            Truncated input or an unknown kind tag.  A real driver sees
            these from RF corruption; receivers must drop, not crash.
        """
        reader = BitReader(data)
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

    def decode_frame(self, frame: "Frame") -> Fragment:
        """:meth:`decode` ``frame.payload``, once per identifier size.

        Every receiver of a transmission holds the same frame and
        fragments are frozen, so the first receiver decodes and the rest
        share its fragment.  Malformed payloads are never memoised.
        """
        memo = frame.decoded
        if memo is not None and memo[0] == self.id_bits:
            return memo[1]
        fragment = self.decode(frame.payload)
        frame.decoded = (self.id_bits, fragment)
        return fragment

    def __repr__(self) -> str:
        return f"FragmentCodec(id_bits={self.id_bits})"
