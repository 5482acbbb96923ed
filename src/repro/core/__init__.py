"""The paper's primary contribution: RETRI identifiers and their model.

* :mod:`repro.core.identifiers` — identifier spaces and the uniform /
  listening / oracle selection algorithms.
* :mod:`repro.core.model` — the Section 4 analytic model (Eqs. 1-4) and
  derived quantities (optimal identifier size, crossover density).
* :mod:`repro.core.transactions` — ground-truth transaction tracking and
  collision detection, plus realised-density measurement.
* :mod:`repro.core.policies` — RETRI vs static-global, static-local and
  dynamic-local allocation baselines behind one interface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import export_lazily

if TYPE_CHECKING:
    from .estimators import (
        DensityEstimator,
        EwmaEstimator,
        InstantaneousEstimator,
        LittlesLawEstimator,
        WindowedTimeAverageEstimator,
    )
    from .identifiers import (
        IdentifierSelector,
        IdentifierSpace,
        ListeningSelector,
        OracleSelector,
        UniformSelector,
    )
    from .model import (
        ModelPoint,
        collision_probability,
        crossover_density,
        efficiency_aff,
        efficiency_static,
        expected_useful_bits,
        min_static_bits,
        optimal_identifier_bits,
        p_success,
        static_space_exhausted,
        sweep_aff_efficiency,
    )
    from .policies import (
        AllocationPolicy,
        ColoringLocalPolicy,
        DynamicLocalPolicy,
        RetriPolicy,
        StaticGlobalPolicy,
        StaticLocalPolicy,
    )
    from .transactions import Transaction, TransactionLog

__all__ = [
    "AllocationPolicy",
    "ColoringLocalPolicy",
    "DensityEstimator",
    "DynamicLocalPolicy",
    "EwmaEstimator",
    "InstantaneousEstimator",
    "LittlesLawEstimator",
    "WindowedTimeAverageEstimator",
    "IdentifierSelector",
    "IdentifierSpace",
    "ListeningSelector",
    "ModelPoint",
    "OracleSelector",
    "RetriPolicy",
    "StaticGlobalPolicy",
    "StaticLocalPolicy",
    "Transaction",
    "TransactionLog",
    "UniformSelector",
    "collision_probability",
    "crossover_density",
    "efficiency_aff",
    "efficiency_static",
    "expected_useful_bits",
    "min_static_bits",
    "optimal_identifier_bits",
    "p_success",
    "static_space_exhausted",
    "sweep_aff_efficiency",
]

export_lazily(
    __name__,
    {
        ".estimators": (
            "DensityEstimator", "EwmaEstimator", "InstantaneousEstimator",
            "LittlesLawEstimator", "WindowedTimeAverageEstimator",
        ),
        ".identifiers": (
            "IdentifierSelector", "IdentifierSpace", "ListeningSelector",
            "OracleSelector", "UniformSelector",
        ),
        ".model": (
            "ModelPoint", "collision_probability", "crossover_density",
            "efficiency_aff", "efficiency_static", "expected_useful_bits",
            "min_static_bits", "optimal_identifier_bits", "p_success",
            "static_space_exhausted", "sweep_aff_efficiency",
        ),
        ".policies": (
            "AllocationPolicy", "ColoringLocalPolicy", "DynamicLocalPolicy",
            "RetriPolicy", "StaticGlobalPolicy", "StaticLocalPolicy",
        ),
        ".transactions": ("Transaction", "TransactionLog"),
    },
)
