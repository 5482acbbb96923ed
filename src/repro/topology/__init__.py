"""Connectivity topologies, churn dynamics, and structural analysis."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import export_lazily

if TYPE_CHECKING:
    from .analysis import (
        connected_components,
        hidden_terminal_fraction,
        hidden_terminal_pairs,
        is_connected,
        mean_degree,
    )
    from .dynamics import ChurnEvent, ChurnProcess, RandomWaypoint
    from .graphs import DiskGraph, ExplicitGraph, FullMesh, Grid, Line, Star, Topology

__all__ = [
    "ChurnEvent",
    "ChurnProcess",
    "DiskGraph",
    "ExplicitGraph",
    "FullMesh",
    "Grid",
    "Line",
    "RandomWaypoint",
    "Star",
    "Topology",
    "connected_components",
    "hidden_terminal_fraction",
    "hidden_terminal_pairs",
    "is_connected",
    "mean_degree",
]

export_lazily(
    __name__,
    {
        ".analysis": (
            "connected_components", "hidden_terminal_fraction",
            "hidden_terminal_pairs", "is_connected", "mean_degree",
        ),
        ".dynamics": ("ChurnEvent", "ChurnProcess", "RandomWaypoint"),
        ".graphs": (
            "DiskGraph", "ExplicitGraph", "FullMesh", "Grid", "Line", "Star",
            "Topology",
        ),
    },
)
