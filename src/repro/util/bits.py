"""Bit-level packing for wire formats.

The paper's whole argument is about *bits*: a 9-bit AFF identifier vs a
16- or 32-bit static address.  Byte-aligned encodings would round those
savings away, so the wire formats bit-pack their headers.
:class:`BitWriter` and :class:`BitReader` provide MSB-first bit streams
over bytes, with explicit padding on flush, for the static-address
baseline and the application codecs (the AFF fragment codec, on the
Figure-4 hot path, packs its fixed layout as one integer itself).

Both work on whole words rather than bit chunks.  The writer keeps the
stream as one integer and appends a field with a shift and an OR;
``write_bytes`` is a single wide ``write``.  The reader converts its
input to one integer once, so ``read`` is a bounds check plus one
shift-and-mask, and ``read_bytes`` slices the input when the cursor is
byte-aligned.  A read that fails consumes nothing.
"""

from __future__ import annotations

__all__ = ["BitReader", "BitWriter", "BitstreamError"]


class BitstreamError(ValueError):
    """Raised on malformed reads (past end, oversized values)."""


class BitWriter:
    """Accumulates values MSB-first into a byte string.

    ``write(value, bits)`` appends the ``bits`` low-order bits of
    ``value``.  ``getvalue()`` zero-pads the final partial byte.
    """

    def __init__(self) -> None:
        self._accum = 0
        self.bits_written = 0

    def write(self, value: int, bits: int) -> "BitWriter":
        """Append ``bits`` bits of ``value`` (must fit)."""
        if bits < 0:
            raise BitstreamError("bit count must be >= 0")
        if value < 0 or value >> bits:
            raise BitstreamError(f"value {value} does not fit in {bits} bits")
        self._accum = (self._accum << bits) | value
        self.bits_written += bits
        return self

    def write_bytes(self, data: bytes) -> "BitWriter":
        """Append whole bytes (8 bits each, preserving bit alignment)."""
        return self.write(int.from_bytes(data, "big"), 8 * len(data))

    def getvalue(self) -> bytes:
        """The packed bytes, final partial byte zero-padded on the right."""
        pad = -self.bits_written % 8
        return (self._accum << pad).to_bytes((self.bits_written + pad) // 8, "big")


class BitReader:
    """Reads values MSB-first from a byte string."""

    def __init__(self, data: bytes):
        self._data = data
        self._word = int.from_bytes(data, "big")
        self._size = 8 * len(data)
        self._bit_pos = 0

    @property
    def bits_remaining(self) -> int:
        return self._size - self._bit_pos

    def read(self, bits: int) -> int:
        """Read ``bits`` bits as an unsigned integer."""
        if bits < 0:
            raise BitstreamError("bit count must be >= 0")
        end = self._bit_pos + bits
        if end > self._size:
            raise BitstreamError(
                f"read of {bits} bits with only {self.bits_remaining} remaining"
            )
        self._bit_pos = end
        return (self._word >> (self._size - end)) & ((1 << bits) - 1)

    def read_bytes(self, count: int) -> bytes:
        """Read ``count`` whole bytes (none when ``count`` is negative)."""
        count = max(count, 0)
        start, offset = divmod(self._bit_pos, 8)
        if offset:
            return self.read(8 * count).to_bytes(count, "big")
        self.read(8 * count)
        return bytes(self._data[start : start + count])
