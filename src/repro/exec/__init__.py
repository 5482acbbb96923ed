"""repro.exec — deterministic parallel trial execution.

The execution layer beneath :mod:`repro.experiments`: it turns lists of
independent ``(params, seed)`` trials into results — across forked
worker processes, through a content-addressed on-disk cache, with
structured failure records and run telemetry — while guaranteeing that
``workers=1`` and ``workers=N`` produce byte-identical results.

See ``docs/parallel.md`` for the architecture, the determinism
contract, and the cache key specification.

* :class:`TrialRunner` / :class:`TrialSpec` — sharded execution
  (:mod:`repro.exec.runner`);
* :class:`ResultCache` — content-addressed JSON result store
  (:mod:`repro.exec.cache`);
* :class:`RunTelemetry` — wall time, per-trial timings, cache traffic,
  worker utilization (:mod:`repro.exec.telemetry`);
* :func:`derive_trial_seed` / :func:`trial_key` — canonical trial
  identities (:mod:`repro.exec.keys`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import export_lazily

if TYPE_CHECKING:
    from .cache import CacheStats, ResultCache
    from .keys import (
        canonical_point,
        canonical_value,
        derive_trial_seed,
        trial_key,
    )
    from .runner import (
        ExecError,
        TrialFailure,
        TrialOutcome,
        TrialRunner,
        TrialSpec,
        TrialTimeout,
    )
    from .telemetry import RunTelemetry, TrialRecord

__all__ = [
    "CacheStats",
    "ExecError",
    "ResultCache",
    "RunTelemetry",
    "TrialFailure",
    "TrialOutcome",
    "TrialRecord",
    "TrialRunner",
    "TrialSpec",
    "TrialTimeout",
    "canonical_point",
    "canonical_value",
    "derive_trial_seed",
    "trial_key",
]

export_lazily(
    __name__,
    {
        ".cache": ("CacheStats", "ResultCache"),
        ".keys": (
            "canonical_point", "canonical_value", "derive_trial_seed",
            "trial_key",
        ),
        ".runner": (
            "ExecError", "TrialFailure", "TrialOutcome", "TrialRunner",
            "TrialSpec", "TrialTimeout",
        ),
        ".telemetry": ("RunTelemetry", "TrialRecord"),
    },
)
