"""Packet structures, checksums, and reassembly machinery."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import export_lazily

if TYPE_CHECKING:
    from .checksum import (
        ChecksumFn,
        checksum_by_name,
        crc16_ccitt,
        fletcher16,
        internet_checksum,
    )
    from .packets import BitBudget, Packet, next_packet_seq
    from .reassembly import PartialPacket, ReassemblyBuffer, ReassemblyStats

__all__ = [
    "BitBudget",
    "ChecksumFn",
    "Packet",
    "PartialPacket",
    "ReassemblyBuffer",
    "ReassemblyStats",
    "checksum_by_name",
    "crc16_ccitt",
    "fletcher16",
    "internet_checksum",
    "next_packet_seq",
]

export_lazily(
    __name__,
    {
        ".checksum": (
            "ChecksumFn", "checksum_by_name", "crc16_ccitt", "fletcher16",
            "internet_checksum",
        ),
        ".packets": ("BitBudget", "Packet", "next_packet_seq"),
        ".reassembly": (
            "PartialPacket", "ReassemblyBuffer", "ReassemblyStats",
        ),
    },
)
