"""Purity of the canonical-serialization path (PURE001).

``repro.exec.keys`` turns trial parameters into content addresses:
``canonical_value``/``canonical_point`` produce the canonical JSON
encoding, ``trial_key`` hashes it.  Everything those functions can
reach must be a pure function of its arguments — an impure callee
(wall-clock read, environment lookup, module-level RNG draw, global
write) makes the *identity* of a trial unstable: the same parameters
hash differently between runs, which defeats caching, or worse, hash
identically while meaning different things.

The rule roots the project call graph at every function named
``canonical_value``, ``canonical_point`` or ``trial_key`` and flags
impure operations in any project-local function reachable from them.
External calls (json, hashlib, math) produce no call-graph edges, so
the stdlib is implicitly trusted — the rule polices this repo's own
code only.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from .callgraph import build_callgraph
from .core import Finding, ProjectRule, register_project
from .dataflow import ambient_reads, is_module_ref, scope_walk
from .exec_rules import module_state_writes
from .symbols import ModuleSymbols, ProjectContext

__all__ = ["CanonicalPurityRule", "CANONICAL_ROOTS"]

#: Bare function names that anchor the canonical-serialization path.
CANONICAL_ROOTS = frozenset({"canonical_value", "canonical_point", "trial_key"})


@register_project
class CanonicalPurityRule(ProjectRule):
    """PURE001: impure function reachable from canonical serialization."""

    rule_id = "PURE001"
    description = (
        "impure operation (clock/env/file/global RNG/global write) in a "
        "function reachable from canonical_value/trial_key serialization"
    )
    help_anchor = "pack-6--canonical-purity-pure"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        roots = sorted(
            info.ref for info in project.functions() if info.name in CANONICAL_ROOTS
        )
        if not roots:
            return
        graph = build_callgraph(project)
        for ref in sorted(graph.reachable(roots)):
            info = project.function(ref)
            if info is None:
                continue
            module = project.modules[info.module]
            impurities: List[Tuple[ast.AST, str]] = list(
                ambient_reads(module, info.node)
            )
            impurities.extend(module_state_writes(module, info.node))
            impurities.extend(self._module_rng_draws(module, info.node))
            for node, what in impurities:
                chain = graph.path_from(roots, ref)
                via = " -> ".join(chain) if chain else ref
                yield self.finding(
                    project,
                    module.ctx.display_path,
                    node,
                    f"impure operation ({what}) on the canonical "
                    f"serialization path ({via}); trial identities must be "
                    "pure functions of their inputs",
                )

    def _module_rng_draws(
        self, module: ModuleSymbols, fn: ast.AST
    ) -> Iterator[Tuple[ast.AST, str]]:
        for node in scope_walk(fn, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and is_module_ref(module, node.func.value, "random")
            ):
                yield node, f"module-level random.{node.func.attr}() draw"
