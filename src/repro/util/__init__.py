"""Small shared utilities (bit packing, table formatting)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import export_lazily

if TYPE_CHECKING:
    from .bits import BitReader, BitWriter, BitstreamError

__all__ = ["BitReader", "BitWriter", "BitstreamError"]

export_lazily(
    __name__,
    {
        ".bits": ("BitReader", "BitWriter", "BitstreamError"),
    },
)
