"""Experiment harnesses that regenerate the paper's tables and figures."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import export_lazily

if TYPE_CHECKING:
    from .figures import (
        FIG1_DENSITIES,
        FIG4_DEFAULT_ID_BITS,
        FigureResult,
        figure_1,
        figure_2,
        figure_3,
        figure_4,
    )
    from .harness import (
        CollisionTrialConfig,
        TrialResult,
        replicate,
        run_collision_trial,
    )
    from .plotting import AsciiChart, render_series
    from .results import Series, Table, aggregate_trials
    from .sweep import SweepPoint, SweepResult, grid_sweep
    from .scenarios import (
        EfficiencyMeasurement,
        codebook_scenario,
        density_estimation_accuracy,
        density_step_tracking,
        dynamic_allocation_overhead,
        flooding_scenario,
        hidden_terminal_experiment,
        interest_scenario,
        measured_efficiency,
    )

__all__ = [
    "AsciiChart",
    "CollisionTrialConfig",
    "SweepPoint",
    "SweepResult",
    "grid_sweep",
    "render_series",
    "EfficiencyMeasurement",
    "FIG1_DENSITIES",
    "FIG4_DEFAULT_ID_BITS",
    "FigureResult",
    "Series",
    "Table",
    "TrialResult",
    "aggregate_trials",
    "codebook_scenario",
    "density_estimation_accuracy",
    "density_step_tracking",
    "dynamic_allocation_overhead",
    "figure_1",
    "flooding_scenario",
    "figure_2",
    "figure_3",
    "figure_4",
    "hidden_terminal_experiment",
    "interest_scenario",
    "measured_efficiency",
    "replicate",
    "run_collision_trial",
]

export_lazily(
    __name__,
    {
        ".figures": (
            "FIG1_DENSITIES", "FIG4_DEFAULT_ID_BITS", "FigureResult",
            "figure_1", "figure_2", "figure_3", "figure_4",
        ),
        ".harness": (
            "CollisionTrialConfig", "TrialResult", "replicate",
            "run_collision_trial",
        ),
        ".plotting": ("AsciiChart", "render_series"),
        ".results": ("Series", "Table", "aggregate_trials"),
        ".sweep": ("SweepPoint", "SweepResult", "grid_sweep"),
        ".scenarios": (
            "EfficiencyMeasurement", "codebook_scenario",
            "density_estimation_accuracy", "density_step_tracking",
            "dynamic_allocation_overhead", "flooding_scenario",
            "hidden_terminal_experiment", "interest_scenario",
            "measured_efficiency",
        ),
    },
)
