"""Protocol-aware static analysis for the RETRI reproduction.

The reproduction's headline numbers are only trustworthy if two
contracts hold everywhere in the tree:

* **determinism** — every stochastic component draws from a seeded
  stream (:mod:`repro.sim.rng`), never from an ambient, unseeded RNG or
  the wall clock, and never iterates data structures with unstable
  order;
* **wire-format invariants** — every bit-packed field is written with a
  named width constant, values cannot exceed their declared field
  width, and no frame layout can outgrow the 27-byte RPC frame budget.

This package is an AST-based lint framework (visitor core + rule
registry + per-rule suppression + a committed baseline file) that
mechanically enforces those contracts.  Beyond the per-module rules, a
project-wide mode (``--project``) builds a symbol table
(:mod:`.symbols`), a call graph (:mod:`.callgraph`) and a conservative
taint/dataflow engine (:mod:`.dataflow`) to check the *cross-module*
contracts of the exec subsystem: seed provenance (SEED001/002),
fork/cache safety of trial functions (EXEC001-003), and purity of the
canonical serialization path (PURE001).  Run it as::

    python -m repro.lint [paths...]
    python -m repro.lint --project [--sarif out.sarif] [paths...]

See ``docs/static-analysis.md`` for the rule catalogue and the
suppression / baseline workflow.

The simulation kernel imports :mod:`.sanitizer.runtime`, which runs
this ``__init__``, so it imports none of the linter: its names resolve
on first access, and the rule packs register on the first read of
:func:`~.core.registry` or :func:`~.core.project_registry`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import export_lazily

if TYPE_CHECKING:
    from .core import (
        Baseline,
        Finding,
        Linter,
        LintReport,
        ModuleContext,
        ProjectRule,
        Rule,
        all_project_rules,
        all_rules,
        project_registry,
        register,
        register_project,
        registry,
    )
    from .callgraph import CallGraph, build_callgraph
    from .symbols import ProjectContext, build_project

__all__ = [
    "Baseline",
    "CallGraph",
    "Finding",
    "LintReport",
    "Linter",
    "ModuleContext",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "all_project_rules",
    "all_rules",
    "build_callgraph",
    "build_project",
    "project_registry",
    "register",
    "register_project",
    "registry",
]

export_lazily(
    __name__,
    {
        ".core": (
            "Baseline", "Finding", "Linter", "LintReport", "ModuleContext",
            "ProjectRule", "Rule", "all_project_rules", "all_rules",
            "project_registry", "register", "register_project", "registry",
        ),
        ".callgraph": ("CallGraph", "build_callgraph"),
        ".symbols": ("ProjectContext", "build_project"),
    },
)
