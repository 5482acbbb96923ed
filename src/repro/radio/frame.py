"""Radio frames with exact bit accounting.

A :class:`Frame` is what actually crosses the air: an opaque byte
payload (built by the protocol layer's wire codec) plus accounting
metadata.  The Radiometrix RPC that the paper's testbed used accepts
frames of at most 27 bytes and broadcasts them to every radio in range;
:data:`RPC_MAX_FRAME_BYTES` captures that limit and the default radio
profile enforces it.

Frames also carry ground-truth instrumentation fields (``origin``,
``ground_truth``) that the *medium and harness* may read but protocol
receivers must not — they model the paper's instrumented driver, where a
guaranteed-unique node id rode along purely to measure what AFF alone
would have lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Frame", "RPC_MAX_FRAME_BYTES", "FrameTooLargeError"]

#: Maximum payload of a Radiometrix RPC frame (Section 4.4 / 5 of the paper).
RPC_MAX_FRAME_BYTES = 27

class FrameTooLargeError(ValueError):
    """Raised when a frame exceeds the radio's maximum frame size."""


@dataclass
class Frame:
    """One over-the-air frame.

    Attributes
    ----------
    payload:
        The bytes handed to the radio.  All protocol structure
        (identifiers, offsets, checksums) lives in here — the radio and
        medium never interpret it.  Never reassigned after construction:
        ``size_bytes`` and ``size_bits`` are fixed from it then.
    origin:
        Ground-truth sender node id (instrumentation; also used by the
        medium to find the sender's neighbours).
    header_bits / payload_bits:
        Split of the payload's bits into protocol header vs useful data,
        reported by the protocol layer so :class:`~repro.net.packets.BitBudget`
        ledgers stay exact.  They must sum to ``8 * len(payload)``.
    ground_truth:
        Free-form instrumentation payload (e.g. the true packet key).
    seq:
        Frame number for tracing, stamped by the
        :class:`~repro.radio.medium.BroadcastMedium` when it puts the
        frame on the air (1, 2, ... per medium, in transmit order), so a
        trial's trace does not depend on what ran before it.  0 until
        then.
    decoded:
        ``(id_bits, fragment)`` memo of
        :meth:`~repro.aff.wire.FragmentCodec.decode_frame`; not part of
        the frame's identity (no ``__init__``, equality or ``repr``).
    size_bytes / size_bits:
        The payload's length in bytes and bits, computed once at
        construction (every receiver of a transmission reads them);
        like ``decoded``, not part of ``__init__``, equality or ``repr``.
    """

    payload: bytes
    origin: int
    header_bits: int = 0
    payload_bits: int = 0
    ground_truth: Any = None
    seq: int = 0
    decoded: Any = field(default=None, init=False, repr=False, compare=False)
    size_bytes: int = field(init=False, repr=False, compare=False)
    size_bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.size_bytes = len(self.payload)
        self.size_bits = total = 8 * self.size_bytes
        if self.header_bits == 0 and self.payload_bits == 0:
            # Caller did not split: count everything as header (conservative).
            self.header_bits = total
        if self.header_bits + self.payload_bits != total:
            raise ValueError(
                f"bit split {self.header_bits}+{self.payload_bits} != "
                f"{total} payload bits"
            )

    def __repr__(self) -> str:
        return (
            f"<Frame seq={self.seq} origin={self.origin} "
            f"{len(self.payload)}B hdr={self.header_bits}b>"
        )
