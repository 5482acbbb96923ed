"""Rule pack 6 — observability invariants.

Trace categories and span names are the *schema* of the observability
layer: ``repro obs summary`` groups records by category, span summaries
from different runs are compared field-by-field, and layer breakdowns
fold span names into buckets by their first dotted component.
That only works when the vocabulary is closed — discoverable by grep,
stable across runs, never assembled at runtime.

========  ==========================================================
OBS001    a trace/span category argument (``recorder.emit(t, cat)``,
          ``writer.emit(t, cat)``, ``recorder.tally(cat, n)``,
          ``span(name)`` / ``prof.span(name)``) is not a string literal
OBS002    a metric name (``inc(name)`` / ``gauge_max(name, v)`` /
          ``observe(name, v, edges)``) is not a string literal, or a
          histogram's ``edges`` argument is not a constant tuple
          (inline numeric-tuple literal, or a module-level
          ``NAME = (…)`` tuple of numbers)
========  ==========================================================

``SpanProfiler.add(name, seconds)`` is deliberately exempt: it is the
aggregation primitive that instrumentation plumbing (e.g. the
simulator's per-layer dispatch spans) feeds with *derived* names, and
those derivations own their naming discipline.

For OBS002, ``observe`` only counts as a metric call in its
three-argument ``(name, value, edges)`` shape (or with an ``edges``
keyword): :meth:`repro.core.identifiers.IdentifierSelector.observe`
takes a single heard identifier and must not be confused with the
histogram primitive.  Constant edges matter beyond greppability —
:meth:`repro.obs.metrics.MetricsRegistry.merge` refuses mismatched
edges, so runtime-computed bucket boundaries would break the
cross-worker merge the moment two call sites disagreed.

:mod:`repro.obs.metrics` itself is exempt from OBS002, exactly as
``SpanProfiler.add`` is from OBS001: the registry's merge/activation
plumbing forwards *existing* names between registries, it never mints
new vocabulary.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from .core import Finding, ModuleContext, Rule, nodes, register

__all__ = ["MetricNameLiteralRule", "TraceCategoryLiteralRule"]


#: trace-vocabulary call -> (position, keyword) of its category argument
_CATEGORY_ARGS = {
    "emit": (1, "category"),  # emit(time, category, **fields)
    "tally": (0, "category"),  # tally(category, n)
    "span": (0, "name"),  # span(name)
}


def _category_arg(call: ast.Call) -> Optional[ast.expr]:
    """The category/name argument of a trace-vocabulary call, if any."""
    func = call.func
    if isinstance(func, ast.Attribute):
        attr = func.attr
    elif isinstance(func, ast.Name):
        attr = func.id
    else:
        return None
    if attr not in _CATEGORY_ARGS:
        return None
    position, name = _CATEGORY_ARGS[attr]
    if len(call.args) > position:
        return call.args[position]
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


@register
class TraceCategoryLiteralRule(Rule):
    rule_id = "OBS001"
    description = (
        "trace/span category must be a string literal at the call site, "
        "keeping the trace vocabulary closed and grep-able"
    )
    level = "warning"
    help_anchor = "pack-7--observability-obs"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in nodes(ctx.tree, ast.Call):
            arg = _category_arg(node)
            if arg is None:
                continue
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                continue
            yield ctx.finding(
                self,
                arg,
                "trace/span category is computed at runtime; pass a "
                "string literal so the category vocabulary stays closed "
                "(grep-able, comparable across runs)",
            )


def _metric_call(call: ast.Call) -> Optional[str]:
    """The metric-primitive name of ``call``, or None.

    ``inc`` / ``gauge_max`` always; ``observe`` only in its histogram
    shape (three positional arguments, or an ``edges`` keyword) so
    single-argument ``selector.observe(identifier)`` stays exempt.
    """
    func = call.func
    if isinstance(func, ast.Attribute):
        attr = func.attr
    elif isinstance(func, ast.Name):
        attr = func.id
    else:
        return None
    if attr in ("inc", "gauge_max"):
        return attr
    if attr == "observe":
        if len(call.args) >= 3:
            return attr
        if any(keyword.arg == "edges" for keyword in call.keywords):
            return attr
    return None


def _metric_name_arg(call: ast.Call) -> Optional[ast.expr]:
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "name":
            return keyword.value
    return None


def _edges_arg(call: ast.Call) -> Optional[ast.expr]:
    if len(call.args) >= 3:
        return call.args[2]
    for keyword in call.keywords:
        if keyword.arg == "edges":
            return keyword.value
    return None


def _is_numeric_tuple(node: ast.expr) -> bool:
    """An inline tuple literal whose elements are all numeric constants."""
    return (
        isinstance(node, ast.Tuple)
        and bool(node.elts)
        and all(
            isinstance(element, ast.Constant)
            and isinstance(element.value, (int, float))
            and not isinstance(element.value, bool)
            for element in node.elts
        )
    )


def _module_tuple_constants(tree: ast.Module) -> Set[str]:
    """Module-level names bound (once) to a numeric-tuple literal."""
    names: Set[str] = set()
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
            value = statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets = [statement.target]
            value = statement.value
        else:
            continue
        if not _is_numeric_tuple(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


@register
class MetricNameLiteralRule(Rule):
    rule_id = "OBS002"
    description = (
        "metric names must be string literals and histogram bucket "
        "edges constant tuples, keeping the metric vocabulary closed "
        "and snapshots mergeable"
    )
    level = "warning"
    help_anchor = "pack-7--observability-obs"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        # The registry itself forwards caller-supplied names between
        # registries (merge, merge_json, the module-level delegators);
        # it defines the primitives, it does not mint vocabulary.
        if ctx.path.name == "metrics.py" and "obs" in ctx.path.parts:
            return
        tuple_constants: Optional[Set[str]] = None
        for node in nodes(ctx.tree, ast.Call):
            primitive = _metric_call(node)
            if primitive is None:
                continue
            name_arg = _metric_name_arg(node)
            if name_arg is not None and not (
                isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)
            ):
                yield ctx.finding(
                    self,
                    name_arg,
                    f"metric name passed to {primitive}() is computed at "
                    "runtime; pass a string literal so the metric "
                    "vocabulary stays closed (grep-able, mergeable "
                    "across workers)",
                )
            if primitive != "observe":
                continue
            edges = _edges_arg(node)
            if edges is None:
                continue
            if _is_numeric_tuple(edges):
                continue
            if isinstance(edges, ast.Name):
                if tuple_constants is None:
                    tuple_constants = _module_tuple_constants(ctx.tree)
                if edges.id in tuple_constants:
                    continue
            yield ctx.finding(
                self,
                edges,
                "histogram bucket edges are computed at runtime; "
                "declare them as a constant tuple (inline literal or a "
                "module-level NAME = (...) of numbers) — merge refuses "
                "mismatched edges, so every call site must agree "
                "statically",
            )
