"""Checksum algorithms used to gate packet delivery.

The paper's AFF implementation delivers a reassembled packet only when
its checksum verifies; identifier collisions therefore surface as
checksum failures ("Packets that suffer from identifier collisions are
never delivered because of checksum failures or other inconsistencies",
Section 5).  We provide the three classic 16-bit algorithms so the
protocol layer can be configured with any of them:

* :func:`fletcher16` — Fletcher's checksum, the default: cheap and with
  position sensitivity (catches swapped fragments).
* :func:`crc16_ccitt` — CRC-16/CCITT-FALSE, the strongest of the three.
* :func:`internet_checksum` — RFC 1071 ones'-complement sum, as used by
  IP itself (the paper's fragmentation is modelled on IP's).

All return an integer in ``[0, 0xFFFF]``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Dict

__all__ = [
    "ChecksumFn",
    "checksum_by_name",
    "crc16_ccitt",
    "fletcher16",
    "internet_checksum",
]

ChecksumFn = Callable[[bytes], int]


def fletcher16(data: bytes) -> int:
    """Fletcher-16 checksum (modulo 255, per RFC 1146 style).

    Position-dependent: permuting blocks changes the sum, which matters
    for detecting misordered reassembly.

    Closed form of the running sums: ``c0`` is the byte sum and ``c1``
    the sum of its prefix sums, each reduced modulo 255 once at the end
    (the same residues the byte-at-a-time loop keeps), so both sums run
    in C.
    """
    c0 = sum(data) % 255
    c1 = sum(accumulate(data)) % 255
    return (c1 << 8) | c0


_CRC16_TABLE: list[int] = []


def _build_crc16_table() -> None:
    poly = 0x1021
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ poly) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
        _CRC16_TABLE.append(crc)


_build_crc16_table()


def crc16_ccitt(data: bytes) -> int:
    """CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF), table-driven."""
    crc = 0xFFFF
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ _CRC16_TABLE[((crc >> 8) ^ byte) & 0xFF]
    return crc


def internet_checksum(data: bytes) -> int:
    """RFC 1071 ones'-complement 16-bit checksum (as in IPv4 headers).

    Odd-length input is zero-padded on the right, per the RFC.
    """
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    # Fold any remaining carry and complement.
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


_BY_NAME: Dict[str, ChecksumFn] = {
    "fletcher16": fletcher16,
    "crc16": crc16_ccitt,
    "crc16_ccitt": crc16_ccitt,
    "internet": internet_checksum,
}


def checksum_by_name(name: str) -> ChecksumFn:
    """Look up a checksum function by configuration name.

    Raises ``KeyError`` with the list of valid names on a miss.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        valid = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown checksum {name!r}; valid: {valid}") from None
