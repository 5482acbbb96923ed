"""Rule pack 3 — RNG-stream hygiene.

:class:`repro.sim.rng.RngRegistry` streams are keyed by *name*: two
components that accidentally request the same name share one stream and
perturb each other's draws, and a name derived from process-varying
data (``id()``, ``hash()``, ``repr()``) silently changes between runs,
breaking replay of recorded experiments.

========  ==========================================================
RNG001    the same literal stream name requested at two different
          call sites within one function (accidental stream sharing)
RNG002    a stream name built from process-unstable data: an f-string
          interpolating ``id()`` / ``hash()`` / ``repr()`` or using
          the ``!r`` conversion
========  ==========================================================

Both rules key on the method name ``.stream(...)`` with a string-ish
first argument — a deliberate heuristic (the registry is the only such
API in this tree); suppress with ``# lint: ignore[RNG001]`` on a
genuine false positive.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from .core import Finding, ModuleContext, Rule, nodes, register, scope_order

__all__ = ["DuplicateStreamNameRule", "UnstableStreamNameRule"]

_UNSTABLE_CALLS = frozenset({"id", "hash", "repr"})

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scopes(tree: ast.Module) -> Iterator[ast.AST]:
    yield tree
    yield from nodes(tree, _FUNCTIONS)


def _calls_in_scope(scope: ast.AST) -> List[ast.Call]:
    """Calls belonging to ``scope``, not to a function nested inside it.

    Unlike :func:`~repro.analysis.dataflow.scope_walk`, it does descend
    into nested lambdas and classes.
    """
    return scope_order(scope, _FUNCTIONS, ast.Call)


def _stream_calls(scope: ast.AST) -> Iterator[Tuple[ast.Call, ast.expr]]:
    """``(call, name_arg)`` for ``<receiver>.stream(<arg>)`` in ``scope``.

    Yielded in source order so "first request" reporting is stable.
    """
    matches = [
        call
        for call in _calls_in_scope(scope)
        if isinstance(call.func, ast.Attribute)
        and call.func.attr == "stream"
        and len(call.args) >= 1
    ]
    matches.sort(key=lambda call: (call.lineno, call.col_offset))
    for call in matches:
        yield call, call.args[0]


@register
class DuplicateStreamNameRule(Rule):
    rule_id = "RNG001"
    description = (
        "the same literal RngRegistry stream name requested at two "
        "call sites in one function — the components will share draws"
    )
    help_anchor = "pack-3--rng-stream-hygiene-rng"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for scope in _scopes(ctx.tree):
            first_seen: Dict[Tuple[str, str], int] = {}
            for call, arg in _stream_calls(scope):
                if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
                    continue
                func = call.func
                if not isinstance(func, ast.Attribute):
                    continue
                key = (ast.unparse(func.value), arg.value)
                if key in first_seen:
                    yield ctx.finding(
                        self,
                        call,
                        f"stream name {arg.value!r} already requested on "
                        f"line {first_seen[key]}; two components now share "
                        "one RNG stream",
                    )
                else:
                    first_seen[key] = call.lineno


@register
class UnstableStreamNameRule(Rule):
    rule_id = "RNG002"
    description = (
        "RngRegistry stream name derived from process-unstable data "
        "(id()/hash()/repr()/!r), breaking cross-run replay"
    )
    help_anchor = "pack-3--rng-stream-hygiene-rng"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for scope in _scopes(ctx.tree):
            for call, arg in _stream_calls(scope):
                reason = self._unstable_reason(arg)
                if reason is not None:
                    yield ctx.finding(
                        self,
                        call,
                        f"stream name interpolates {reason}, which varies "
                        "between processes; use a stable key (node id, "
                        "component name, trial index)",
                    )

    @staticmethod
    def _unstable_reason(arg: ast.expr) -> str | None:
        if isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name):
            if arg.func.id in _UNSTABLE_CALLS:
                return f"{arg.func.id}()"
        if not isinstance(arg, ast.JoinedStr):
            return None
        for node in nodes(arg, (ast.FormattedValue, ast.Call)):
            if isinstance(node, ast.FormattedValue) and node.conversion == ord("r"):
                return "a !r conversion"
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _UNSTABLE_CALLS
            ):
                return f"{node.func.id}()"
        return None
