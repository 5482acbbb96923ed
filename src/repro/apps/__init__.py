"""Applications of RETRI beyond fragmentation (Section 6) and workloads."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import export_lazily

if TYPE_CHECKING:
    from .codebook import CodebookReceiver, CodebookSender, CodebookStats
    from .flooding import FloodCodec, FloodNode, FloodStats
    from .interest import InterestSink, InterestSource, InterestStats
    from .workloads import (
        BurstySender,
        ContinuousStreamSender,
        PeriodicSender,
        PoissonSender,
        random_payload,
    )

__all__ = [
    "BurstySender",
    "CodebookReceiver",
    "CodebookSender",
    "CodebookStats",
    "ContinuousStreamSender",
    "FloodCodec",
    "FloodNode",
    "FloodStats",
    "InterestSink",
    "InterestSource",
    "InterestStats",
    "PeriodicSender",
    "PoissonSender",
    "random_payload",
]

export_lazily(
    __name__,
    {
        ".codebook": ("CodebookReceiver", "CodebookSender", "CodebookStats"),
        ".flooding": ("FloodCodec", "FloodNode", "FloodStats"),
        ".interest": ("InterestSink", "InterestSource", "InterestStats"),
        ".workloads": (
            "BurstySender", "ContinuousStreamSender", "PeriodicSender",
            "PoissonSender", "random_payload",
        ),
    },
)
