"""Simulated low-power broadcast radio substrate.

Replaces the paper's physical Radiometrix RPC testbed: 27-byte frames,
broadcast to everything in range, simple MACs, per-bit energy costs, and
parametric link-loss models.  See DESIGN.md for the substitution
rationale.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import export_lazily

if TYPE_CHECKING:
    from .channel import (
        BernoulliChannel,
        Channel,
        GilbertElliottChannel,
        PerfectChannel,
    )
    from .energy import RPC_PROFILE, WIFI_LIKE_PROFILE, EnergyMeter, EnergyModel
    from .frame import RPC_MAX_FRAME_BYTES, Frame, FrameTooLargeError
    from .impairments import ImpairmentStats, ReceiveImpairments
    from .mac import AlohaMac, CsmaMac, Mac, SlottedMac
    from .medium import BroadcastMedium, MediumStats, Transmission
    from .radio import Radio

__all__ = [
    "AlohaMac",
    "BernoulliChannel",
    "BroadcastMedium",
    "Channel",
    "CsmaMac",
    "EnergyMeter",
    "EnergyModel",
    "Frame",
    "FrameTooLargeError",
    "GilbertElliottChannel",
    "ImpairmentStats",
    "Mac",
    "ReceiveImpairments",
    "MediumStats",
    "PerfectChannel",
    "RPC_MAX_FRAME_BYTES",
    "RPC_PROFILE",
    "Radio",
    "SlottedMac",
    "Transmission",
    "WIFI_LIKE_PROFILE",
]

export_lazily(
    __name__,
    {
        ".channel": (
            "BernoulliChannel", "Channel", "GilbertElliottChannel",
            "PerfectChannel",
        ),
        ".energy": (
            "RPC_PROFILE", "WIFI_LIKE_PROFILE", "EnergyMeter", "EnergyModel",
        ),
        ".frame": ("RPC_MAX_FRAME_BYTES", "Frame", "FrameTooLargeError"),
        ".impairments": ("ImpairmentStats", "ReceiveImpairments"),
        ".mac": ("AlohaMac", "CsmaMac", "Mac", "SlottedMac"),
        ".medium": ("BroadcastMedium", "MediumStats", "Transmission"),
        ".radio": ("Radio",),
    },
)
