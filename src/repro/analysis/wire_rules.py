"""Rule pack 2 — wire-format / bit-width invariants.

The AFF wire formats (:mod:`repro.aff.wire`, :mod:`repro.apps.flooding`,
:mod:`repro.apps.interest`) are bit-packed through
:class:`repro.util.bits.BitWriter`; field widths are declared as
module-level ``*_BITS`` constants and maxima derived from them
(``MAX_PACKET_BYTES = (1 << _LENGTH_BITS) - 1``).  These rules
cross-check the ``writer.write(value, width)`` call sites against those
declarations:

========  ==========================================================
WIRE001   the statically-known range of ``value`` (a constant, a
          ``x & MASK`` expression, or a folded ``MAX_*`` name) can
          exceed the declared field width
WIRE002   the width argument is a magic integer literal instead of a
          named ``*_BITS`` constant (or a symbolic width such as
          ``self.id_bits``)
WIRE003   the statically-known bits written by one function exceed
          the 27-byte RPC frame budget
========  ==========================================================

WIRE003 resolves widths through the constant folder first and — by
default — retries unresolved ones through the interval engine
(:mod:`.ranges`), so a width that merely flowed through a local
variable still counts.  Widths that stay symbolic after both
(e.g. ``self.id_bits``) contribute nothing to the total — the rule
under-approximates, so it never false positives, and the codec's own
``[0, 62]`` bound keeps the symbolic part honest.  The project-wide
WIRE004 (:mod:`.range_rules`) extends the same interval reasoning to
field *values*.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .constfold import fold_int
from .core import Finding, ModuleContext, Rule, nodes, register
from .ranges import FunctionAnalysis, analyze_function

__all__ = [
    "FieldOverflowRule",
    "FrameBudgetRule",
    "MagicWidthRule",
    "RPC_FRAME_BUDGET_BITS",
]

#: Maximum payload of a Radiometrix RPC frame.  Mirrors
#: ``repro.radio.frame.RPC_MAX_FRAME_BYTES`` (a test asserts they
#: agree) rather than importing it: the analysis package must stay
#: import-light because the simulation kernel imports the sanitizer
#: runtime from it, and pulling in ``repro.radio`` here would close an
#: import cycle through ``sim.engine``.
RPC_MAX_FRAME_BYTES = 27

#: Frame budget of the paper's Radiometrix RPC testbed radio, in bits.
RPC_FRAME_BUDGET_BITS = 8 * RPC_MAX_FRAME_BYTES


def _functions(tree: ast.Module) -> Iterator[ast.AST]:
    """Module plus every (async) function definition."""
    yield tree
    yield from nodes(tree, (ast.FunctionDef, ast.AsyncFunctionDef))


def _bitwriter_names(scope: ast.AST) -> Set[str]:
    """Names assigned from a ``BitWriter(...)`` call within ``scope``."""
    names: Set[str] = set()
    for node in nodes(scope, ast.Assign):
        if len(node.targets) != 1:
            continue
        target = node.targets[0]
        value = node.value
        if (
            isinstance(target, ast.Name)
            and isinstance(value, ast.Call)
            and (
                (isinstance(value.func, ast.Name) and value.func.id == "BitWriter")
                or (
                    isinstance(value.func, ast.Attribute)
                    and value.func.attr == "BitWriter"
                )
            )
        ):
            names.add(target.id)
    return names


def _write_calls(
    scope: ast.AST, writers: Set[str]
) -> Iterator[Tuple[ast.Call, str]]:
    """``(call, method)`` for ``<writer>.write(...)`` / ``.write_bytes(...)``."""
    for node in nodes(scope, ast.Call):
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("write", "write_bytes")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in writers
        ):
            yield node, node.func.attr


def _value_upper_bound(expr: ast.expr, env: Dict[str, int]) -> Optional[int]:
    """Largest value ``expr`` can take, when statically known.

    A folded constant bounds itself; ``x & MASK`` is bounded by the
    mask regardless of ``x``.  Anything else is unbounded (``None``).
    """
    folded = fold_int(expr, env)
    if folded is not None:
        return folded
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitAnd):
        for side in (expr.right, expr.left):
            mask = fold_int(side, env)
            if mask is not None and mask >= 0:
                return mask
    return None


@register
class FieldOverflowRule(Rule):
    rule_id = "WIRE001"
    description = (
        "BitWriter.write() whose value range can exceed the declared "
        "field width"
    )
    help_anchor = "pack-2--wire-format-invariants-wire"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        env = ctx.constants
        seen: Set[int] = set()
        for scope in _functions(ctx.tree):
            writers = _bitwriter_names(scope)
            if not writers:
                continue
            for call, method in _write_calls(scope, writers):
                if method != "write" or len(call.args) != 2 or id(call) in seen:
                    continue
                seen.add(id(call))
                width = fold_int(call.args[1], env)
                if width is None or width <= 0:
                    continue
                bound = _value_upper_bound(call.args[0], env)
                if bound is not None and bound > (1 << width) - 1:
                    yield ctx.finding(
                        self,
                        call,
                        f"value can reach {bound}, which does not fit the "
                        f"declared {width}-bit field "
                        f"(max {(1 << width) - 1})",
                    )


@register
class MagicWidthRule(Rule):
    rule_id = "WIRE002"
    description = (
        "BitWriter.write() width given as a magic integer literal "
        "instead of a named *_BITS constant"
    )
    level = "warning"
    help_anchor = "pack-2--wire-format-invariants-wire"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        seen: Set[int] = set()
        for scope in _functions(ctx.tree):
            writers = _bitwriter_names(scope)
            if not writers:
                continue
            for call, method in _write_calls(scope, writers):
                if method != "write" or len(call.args) != 2 or id(call) in seen:
                    continue
                seen.add(id(call))
                width = call.args[1]
                if isinstance(width, ast.Constant) and isinstance(width.value, int):
                    yield ctx.finding(
                        self,
                        call,
                        f"field width {width.value} is a magic number; "
                        "declare it as a named *_BITS constant so the "
                        "invariant checker can cross-check it",
                    )


@register
class FrameBudgetRule(Rule):
    rule_id = "WIRE003"
    description = (
        f"one function writes more than the {RPC_MAX_FRAME_BYTES}-byte "
        "RPC frame budget of statically-known bits"
    )
    help_anchor = "pack-2--wire-format-invariants-wire"

    #: When set (the default), widths the constant folder cannot resolve
    #: are retried through the interval engine (:mod:`.ranges`): a width
    #: that flowed through a local variable or a branch still counts
    #: toward the total when its interval is a single point.  Constfold
    #: is the point-interval special case, so every width it resolves
    #: the engine resolves identically — an equivalence test pins that
    #: findings on constfold-provable code match with the flag off.
    use_intervals: bool = True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        env = ctx.constants
        for scope in _functions(ctx.tree):
            if isinstance(scope, ast.Module):
                continue  # whole-module totals conflate unrelated writers
            writers = _bitwriter_names(scope)
            if not writers:
                continue
            analysis: Optional[FunctionAnalysis] = None
            if self.use_intervals:
                analysis = analyze_function(scope, env)
            total = 0
            calls: List[ast.Call] = []
            for call, method in _write_calls(scope, writers):
                calls.append(call)
                if method == "write" and len(call.args) == 2:
                    width = fold_int(call.args[1], env)
                    if (
                        width is None
                        and analysis is not None
                        and analysis.env_at(call.args[1]) is not None
                    ):
                        width = analysis.interval_at(call.args[1]).point_value
                    if width is not None and width > 0:
                        total += width
                elif method == "write_bytes" and len(call.args) == 1:
                    arg = call.args[0]
                    if isinstance(arg, ast.Constant) and isinstance(
                        arg.value, (bytes, bytearray)
                    ):
                        total += 8 * len(arg.value)
            if total > RPC_FRAME_BUDGET_BITS and calls:
                yield ctx.finding(
                    self,
                    calls[0],
                    f"fixed fields alone total {total} bits, exceeding the "
                    f"{RPC_FRAME_BUDGET_BITS}-bit ({RPC_MAX_FRAME_BYTES}-byte) "
                    "RPC frame budget",
                )
