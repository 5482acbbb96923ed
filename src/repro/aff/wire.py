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
reported separately by :attr:`FragmentCodec.intro_header_bits` and
:attr:`FragmentCodec.data_header_bits`.

A fragment is packed as one integer, its fields shifted in MSB-first,
and written with one ``to_bytes``; a frame is parsed from one
``int.from_bytes`` by shifts and masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

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


def _truncated(needed: int, size: int) -> MalformedFragmentError:
    return MalformedFragmentError(
        f"truncated fragment: {size} bits where the fields need {needed}"
    )


class FragmentCodec:
    """Encodes/decodes AFF fragments for a given identifier size.

    Parameters
    ----------
    id_bits:
        AFF identifier size ``H``.  The central experimental knob: every
        figure in the paper sweeps it.

    Attributes
    ----------
    intro_header_bits:
        Bits of protocol header in an introduction fragment.
    data_header_bits:
        Bits of protocol header in a data fragment (excludes payload).
    notify_bits:
        Bits in a collision notification (all header, no payload).
    """

    def __init__(self, id_bits: int):
        if not 0 <= id_bits <= 62:
            raise ValueError("id_bits must be in [0, 62]")
        self.id_bits = id_bits
        self.notify_bits = _KIND_BITS + id_bits
        self.intro_header_bits = self.notify_bits + _LENGTH_BITS + _CHECKSUM_BITS
        self.data_header_bits = self.notify_bits + _OFFSET_BITS + _FRAGLEN_BITS
        # Zero bits that pad each kind's header to whole bytes (a data
        # fragment's payload is whole bytes, so its header's pad is the
        # frame's).
        self._notify_pad = -self.notify_bits % 8
        self._intro_pad = -self.intro_header_bits % 8
        self._data_pad = -self.data_header_bits % 8

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
    def _head(self, kind: int, identifier: int) -> int:
        """``kind | identifier`` as one integer, range-checked."""
        if identifier >> self.id_bits:
            raise ValueError(
                f"identifier {identifier} exceeds {self.id_bits} bits"
            )
        return (kind << self.id_bits) | identifier

    def encode_intro(self, fragment: IntroFragment) -> bytes:
        head = self._head(KIND_INTRO, fragment.identifier)
        total_length = fragment.total_length
        if not 0 <= total_length <= MAX_PACKET_BYTES:
            raise ValueError(f"total_length {total_length} out of range")
        word = (
            (head << _LENGTH_BITS | total_length) << _CHECKSUM_BITS
            | fragment.checksum & 0xFFFF
        )
        pad = self._intro_pad
        return (word << pad).to_bytes((self.intro_header_bits + pad) // 8, "big")

    def encode_data(self, fragment: DataFragment) -> bytes:
        head = self._head(KIND_DATA, fragment.identifier)
        offset = fragment.offset
        if not 0 <= offset <= MAX_PACKET_BYTES:
            raise ValueError(f"offset {offset} out of range")
        payload = fragment.payload
        length = len(payload)
        if length > MAX_FRAGMENT_PAYLOAD:
            raise ValueError(f"fragment payload of {length}B too long")
        word = (
            ((head << _OFFSET_BITS | offset) << _FRAGLEN_BITS | length) << 8 * length
            | int.from_bytes(payload, "big")
        )
        pad = self._data_pad
        return (word << pad).to_bytes(
            (self.data_header_bits + pad) // 8 + length, "big"
        )

    def encode_notify(self, fragment: NotifyFragment) -> bytes:
        head = self._head(KIND_NOTIFY, fragment.identifier)
        pad = self._notify_pad
        return (head << pad).to_bytes((self.notify_bits + pad) // 8, "big")

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
        size = 8 * len(data)
        end = self.notify_bits
        if size < end:
            raise _truncated(end, size)
        word = int.from_bytes(data, "big")
        head = word >> (size - end)
        kind = head >> self.id_bits
        identifier = head & ((1 << self.id_bits) - 1)
        if kind == KIND_INTRO:
            end = self.intro_header_bits
            if size < end:
                raise _truncated(end, size)
            fields = word >> (size - end)
            return IntroFragment(
                identifier=identifier,
                total_length=(fields >> _CHECKSUM_BITS) & 0xFFFF,
                checksum=fields & 0xFFFF,
            )
        if kind == KIND_DATA:
            end = self.data_header_bits
            if size < end:
                raise _truncated(end, size)
            fields = word >> (size - end)
            length = fields & 0xFF
            stop = end + 8 * length
            if size < stop:
                raise _truncated(stop, size)
            payload = (word >> (size - stop)) & ((1 << 8 * length) - 1)
            return DataFragment(
                identifier=identifier,
                offset=(fields >> _FRAGLEN_BITS) & 0xFFFF,
                payload=payload.to_bytes(length, "big"),
            )
        if kind == KIND_NOTIFY:
            return NotifyFragment(identifier=identifier)
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
