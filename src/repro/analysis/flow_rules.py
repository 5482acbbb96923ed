"""Rule pack 8 — flow-fidelity sampling hygiene (FLOW).

The flow layer's stitching contract (:mod:`repro.flow.hybrid`) is that
every window draws only from its own named ``RngRegistry`` streams:
that is what makes windows independently re-drawable, hybrid frame
windows bit-identical to all-frame runs, and flow results a pure
function of ``(scenario, seed)``.  One ad-hoc ``random.*`` draw — or a
``random.Random`` seeded from anything but the derive-seed family —
silently couples windows (or runs) together.

========  ==========================================================
FLOW001   flow-level sampling code draws from ad-hoc ``random``
          state instead of a registered ``sim.rng`` stream /
          ``derive_seed``-routed RNG
========  ==========================================================

Scoped by path to modules under a ``flow`` package component.  Allowed
forms there: method calls on streams obtained from
``RngRegistry.stream(...)`` / ``fallback_stream(...)``, and
``random.Random(derive_seed(...))`` (or any derive-family seed).
Flagged: module-level draws (``random.random()``, ``random.choice``,
...) and ``random.Random(<anything else>)``.
"""

from __future__ import annotations

import ast
from typing import AbstractSet, Iterator, Mapping

from .core import Finding, ModuleContext, Rule, nodes, register
from .determinism import _GLOBAL_RANDOM_FUNCS

__all__ = ["FlowSamplingRngRule"]

#: Calls whose result is a trial/window-derived seed (mirrors the
#: SEED001 derive family).
_DERIVE_CALLS = frozenset(
    {"derive_seed", "derive_trial_seed", "fallback_stream"}
)


def _is_derive_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in _DERIVE_CALLS
    if isinstance(func, ast.Attribute):
        return func.attr in _DERIVE_CALLS
    return False


@register
class FlowSamplingRngRule(Rule):
    rule_id = "FLOW001"
    description = (
        "flow-level sampling draws from ad-hoc random state; route "
        "draws through a registered RngRegistry stream or a "
        "derive_seed-seeded RNG"
    )
    help_anchor = "pack-8--flow-fidelity-flow"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_packages({"flow"}):
            return
        aliases = ctx.module_aliases("random")
        imported = ctx.from_imports("random")
        for node in nodes(ctx.tree, ast.Call):
            finding = self._check_call(ctx, node, aliases, imported)
            if finding is not None:
                yield finding

    def _check_call(
        self,
        ctx: ModuleContext,
        node: ast.Call,
        aliases: AbstractSet[str],
        imported: Mapping[str, str],
    ) -> Finding | None:
        func = node.func
        target: str | None = None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in aliases:
                target = func.attr
        elif isinstance(func, ast.Name):
            target = imported.get(func.id)
        if target is None:
            return None
        if target == "Random":
            seed_args = list(node.args) + [
                kw.value for kw in node.keywords if kw.arg == "x"
            ]
            if seed_args and all(_is_derive_call(arg) for arg in seed_args):
                return None
            return ctx.finding(
                self,
                node,
                "random.Random in flow sampling code not seeded by the "
                "derive_seed family; use RngRegistry(seed).stream(name) "
                "or random.Random(derive_seed(...))",
            )
        if target in _GLOBAL_RANDOM_FUNCS:
            return ctx.finding(
                self,
                node,
                f"ad-hoc random.{target}() in flow sampling code; draw "
                "from a registered RngRegistry stream instead",
            )
        return None
