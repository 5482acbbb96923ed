"""Flow-level / hybrid-fidelity simulation (``repro.flow``).

The fourth execution fidelity of the stack, one level above the frame
simulator and the Monte Carlo event core: transaction *streams*
(arrival rate + duration descriptors, :mod:`~repro.flow.streams`) are
sampled per concurrency window from the paper's analytic collision
models (:mod:`~repro.flow.sampler`), with an optional hybrid switch
that replays only contended windows through the discrete event core
(:mod:`~repro.flow.hybrid`).  :mod:`~repro.flow.calibrate` pins the
flow sampler against the discrete ground truth on the Figure-4 grid.
:mod:`~repro.flow.shard` fans the window plan out across
:class:`~repro.exec.TrialRunner` workers, bit-identical to serial at
any worker/shard count; :mod:`~repro.flow.fastpath` vectorises the
per-window draws, bit-identical to the scalar loops.

Scale target (ROADMAP): 10k–1M-node scenarios, millions of
transactions, seconds of wall clock.  See ``docs/flow.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import export_lazily

if TYPE_CHECKING:
    from .calibrate import (
        CalibrationPoint,
        CalibrationReport,
        calibrate,
        replicate_flow,
    )
    from .fastpath import pure_sampling
    from .hybrid import DEFAULT_SWITCH_THRESHOLD, FIDELITY_MODES, simulate, wants_frame
    from .sampler import (
        FlowResult,
        WindowOutcome,
        WindowSpec,
        sample_flow,
        sample_window,
        window_collision_probability,
        window_plan,
    )
    from .shard import (
        WindowRange,
        merge_range_values,
        partition_plan,
        simulate_sharded,
        simulate_traced,
        window_range_trial,
    )
    from .streams import (
        FlowScenario,
        TransactionStream,
        aggregate_node_workload,
        figure4_scenario,
        massive_scenario,
        scenario_peak_density,
    )

__all__ = [
    "CalibrationPoint",
    "CalibrationReport",
    "DEFAULT_SWITCH_THRESHOLD",
    "FIDELITY_MODES",
    "FlowResult",
    "FlowScenario",
    "TransactionStream",
    "WindowOutcome",
    "WindowRange",
    "WindowSpec",
    "aggregate_node_workload",
    "calibrate",
    "figure4_scenario",
    "massive_scenario",
    "merge_range_values",
    "partition_plan",
    "pure_sampling",
    "replicate_flow",
    "sample_flow",
    "sample_window",
    "scenario_peak_density",
    "simulate",
    "simulate_sharded",
    "simulate_traced",
    "wants_frame",
    "window_collision_probability",
    "window_plan",
    "window_range_trial",
]

export_lazily(
    __name__,
    {
        ".calibrate": (
            "CalibrationPoint", "CalibrationReport", "calibrate",
            "replicate_flow",
        ),
        ".fastpath": ("pure_sampling",),
        ".hybrid": (
            "DEFAULT_SWITCH_THRESHOLD", "FIDELITY_MODES", "simulate",
            "wants_frame",
        ),
        ".sampler": (
            "FlowResult", "WindowOutcome", "WindowSpec", "sample_flow",
            "sample_window", "window_collision_probability", "window_plan",
        ),
        ".shard": (
            "WindowRange", "merge_range_values", "partition_plan",
            "simulate_sharded", "simulate_traced", "window_range_trial",
        ),
        ".streams": (
            "FlowScenario", "TransactionStream", "aggregate_node_workload",
            "figure4_scenario", "massive_scenario", "scenario_peak_density",
        ),
    },
)
