"""Rule pack 9 — value-range analysis (WIRE004 / RANGE001 / RANGE002).

These rules sit on top of the interval abstract interpreter in
:mod:`.ranges`, which upgrades the constant-folding wire checks from
"this literal fits" to "every value that can reach this field provably
fits":

=========  =========================================================
WIRE004    a value whose *proven* interval exceeds the declared
           ``*_BITS`` field width (or admits a negative value) can
           reach a ``BitWriter.write`` call.  Complements WIRE001:
           sites whose value bound is in WIRE001's literal domain
           (folded constants, ``x & MASK``) are skipped here, so each
           overflow is reported by exactly one rule.
RANGE001   a ``WindowRange`` partition built from a bounds list whose
           invariants — first bound 0, last bound ``len(plan)``,
           monotone interior bounds — cannot be proven, i.e. the
           partition is not provably contiguous, non-overlapping and
           plan-covering.
RANGE002   arithmetic hazards in identifier-draw / estimator code
           (``core``/``flow`` packages): a divisor or modulus whose
           proven interval contains zero, a provably negative shift
           amount, a possibly-empty ``randrange`` span, and modulo
           bias when a known-span draw is reduced by a non-divisor
           modulus.
=========  =========================================================

All three rules under-approximate: a chain the interpreter cannot
resolve evaluates to TOP, and TOP never fires a finding.  Suppression
comments, the baseline, and SARIF export apply exactly as for every
other pack.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .constfold import fold_int
from .core import Finding, ProjectRule, nodes, register_project
from .ranges import (
    _MAX_SHIFT,
    Env,
    FunctionAnalysis,
    Interval,
    engine_for,
)
from .symbols import FunctionInfo, FunctionNode, ProjectContext
from .wire_rules import _bitwriter_names, _value_upper_bound, _write_calls

__all__ = [
    "DrawHazardRule",
    "PartitionInvariantRule",
    "ProvenFieldOverflowRule",
]

_PACK_ANCHOR = "pack-9--value-range-analysis-range"


@register_project
class ProvenFieldOverflowRule(ProjectRule):
    rule_id = "WIRE004"
    description = (
        "BitWriter.write() reachable by a value whose proven interval "
        "exceeds the declared field width"
    )
    help_anchor = _PACK_ANCHOR

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        engine = engine_for(project)
        for info in project.functions():
            module = project.modules[info.module]
            writers = _bitwriter_names(info.node)
            if not writers:
                continue
            analysis = engine.analysis_for(info)
            for call, method in _write_calls(info.node, writers):
                if method != "write" or len(call.args) != 2:
                    continue
                if analysis.env_at(call.args[0]) is None:
                    continue  # inside a nested def this pass never ran
                constants = module.ctx.constants
                if (
                    _value_upper_bound(call.args[0], constants) is not None
                    and fold_int(call.args[1], constants) is not None
                ):
                    # WIRE001 decides this site (it needs both the value
                    # bound and the width in its literal domain); each
                    # overflow is reported by exactly one rule.
                    continue
                width = analysis.interval_at(call.args[1]).point_value
                if width is None or not 0 < width <= _MAX_SHIFT:
                    continue
                value = analysis.interval_at(call.args[0])
                field_max = (1 << width) - 1
                if value.hi is not None and value.hi > field_max:
                    yield self.finding(
                        project,
                        module.ctx.display_path,
                        call,
                        f"value has proven range {value}, whose maximum "
                        f"{value.hi} does not fit the declared {width}-bit "
                        f"field (max {field_max})",
                    )
                elif value.lo is not None and value.lo < 0:
                    yield self.finding(
                        project,
                        module.ctx.display_path,
                        call,
                        f"value has proven range {value} and can be "
                        f"negative, which no {width}-bit field encodes",
                    )


# ----------------------------------------------------------------------
# RANGE001 — partition invariants
# ----------------------------------------------------------------------
def _callee_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _const_int(expr: Optional[ast.expr]) -> Optional[int]:
    if expr is None:
        return None
    if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
        return expr.value
    if (
        isinstance(expr, ast.UnaryOp)
        and isinstance(expr.op, ast.USub)
        and isinstance(expr.operand, ast.Constant)
        and isinstance(expr.operand.value, int)
    ):
        return -expr.operand.value
    return None


def _is_adjacent_zip(iterator: ast.expr) -> Optional[str]:
    """The bounds-list name when ``iterator`` is ``zip(B[:-1], B[1:])``."""
    if not (
        isinstance(iterator, ast.Call)
        and isinstance(iterator.func, ast.Name)
        and iterator.func.id == "zip"
        and len(iterator.args) == 2
        and not iterator.keywords
    ):
        return None
    names: List[str] = []
    for sub, is_prefix in ((iterator.args[0], True), (iterator.args[1], False)):
        if not (
            isinstance(sub, ast.Subscript)
            and isinstance(sub.value, ast.Name)
            and isinstance(sub.slice, ast.Slice)
            and sub.slice.step is None
        ):
            return None
        if is_prefix:
            ok = sub.slice.lower is None and _const_int(sub.slice.upper) == -1
        else:
            ok = _const_int(sub.slice.lower) == 1 and sub.slice.upper is None
        if not ok:
            return None
        names.append(sub.value.id)
    if names[0] != names[1]:
        return None
    return names[0]


def _match_partition_comp(comp: ast.ListComp) -> Optional[str]:
    """Bounds-list name of a ``WindowRange``-over-adjacent-pairs comp.

    Matches ``[WindowRange(lo=a, hi=b, ...) for a, b in
    zip(B[:-1], B[1:])]`` (``lo``/``hi`` positionally or by keyword)
    and returns ``B``; anything else returns ``None``.
    """
    if len(comp.generators) != 1:
        return None
    generator = comp.generators[0]
    if generator.is_async or generator.ifs:
        return None
    bounds = _is_adjacent_zip(generator.iter)
    if bounds is None:
        return None
    target = generator.target
    if not (isinstance(target, ast.Tuple) and len(target.elts) == 2):
        return None
    lo_elt, hi_elt = target.elts
    if not (isinstance(lo_elt, ast.Name) and isinstance(hi_elt, ast.Name)):
        return None
    call = comp.elt
    if not (
        isinstance(call, ast.Call) and _callee_name(call.func) == "WindowRange"
    ):
        return None
    bound_args: Dict[str, Optional[str]] = {"lo": None, "hi": None}
    for index, arg in enumerate(call.args):
        if index < 2 and isinstance(arg, ast.Name):
            bound_args["lo" if index == 0 else "hi"] = arg.id
    for keyword in call.keywords:
        if keyword.arg in bound_args and isinstance(keyword.value, ast.Name):
            bound_args[keyword.arg] = keyword.value.id
    if bound_args["lo"] != lo_elt.id or bound_args["hi"] != hi_elt.id:
        return None
    return bounds


def _param_set(info: FunctionInfo) -> Set[str]:
    arguments = info.node.args
    return {
        arg.arg
        for arg in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs)
    }


def _single_assign(node: FunctionNode, name: str) -> Optional[ast.expr]:
    """The sole ``name = <expr>`` value in ``node``, if unique."""
    found: List[ast.expr] = []
    for stmt in nodes(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == name
        ):
            found.append(stmt.value)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            target = stmt.target
            if isinstance(target, ast.Name) and target.id == name:
                return None
    if len(found) != 1:
        return None
    return found[0]


def _is_plan_length(expr: ast.expr, info: FunctionInfo, params: Set[str]) -> bool:
    """``expr`` provably equals ``len(<parameter>)`` of this function."""
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "len"
        and len(expr.args) == 1
        and not expr.keywords
        and isinstance(expr.args[0], ast.Name)
        and expr.args[0].id in params
    ):
        return True
    if isinstance(expr, ast.Name):
        value = _single_assign(info.node, expr.id)
        if value is not None:
            return _is_plan_length(value, info, params)
    return False


def _var_free(node: ast.expr, var: str) -> bool:
    return not any(sub.id == var for sub in nodes(node, ast.Name))


def _monotone_in(
    expr: ast.expr, var: str, analysis: FunctionAnalysis, env: Env
) -> bool:
    """``expr`` is provably non-decreasing in the loop variable ``var``.

    Accepts ``var`` itself and ``t * c`` / ``t // d`` / ``t + c`` /
    ``t - c`` chains where the other operand is var-free with interval
    bounds that preserve monotonicity (``c >= 0`` multipliers,
    ``d >= 1`` divisors).
    """
    if isinstance(expr, ast.Name):
        return expr.id == var
    if isinstance(expr, ast.BinOp):
        left, right = expr.left, expr.right
        if isinstance(expr.op, (ast.Add, ast.Sub)):
            if _monotone_in(left, var, analysis, env) and _var_free(right, var):
                return True
            return (
                isinstance(expr.op, ast.Add)
                and _monotone_in(right, var, analysis, env)
                and _var_free(left, var)
            )
        if isinstance(expr.op, ast.Mult):
            for term, other in ((left, right), (right, left)):
                if _monotone_in(term, var, analysis, env) and _var_free(other, var):
                    factor = analysis.evaluate(other, env)
                    if factor.lo is not None and factor.lo >= 0:
                        return True
            return False
        if isinstance(expr.op, ast.FloorDiv):
            if _monotone_in(left, var, analysis, env) and _var_free(right, var):
                divisor = analysis.evaluate(right, env)
                return divisor.lo is not None and divisor.lo >= 1
            return False
    return False


def _enclosing_loop_var(node: FunctionNode, stmt: ast.stmt) -> Optional[str]:
    """The counting variable of the innermost ``for`` containing ``stmt``.

    Only loops whose iterator is ``range(...)`` (target itself) or
    ``enumerate(...)`` (first element of a tuple target) count — their
    variable strictly increases across iterations, which is what makes
    an appended ``var + 1`` frontier monotone across appends.
    """
    result: Optional[str] = None
    for loop in nodes(node, ast.For):
        if not any(sub is stmt for sub in nodes(loop, type(stmt))):
            continue
        if not (
            isinstance(loop.iter, ast.Call)
            and isinstance(loop.iter.func, ast.Name)
            and loop.iter.func.id in ("range", "enumerate")
        ):
            continue
        target = loop.target
        if loop.iter.func.id == "enumerate":
            if (
                isinstance(target, ast.Tuple)
                and target.elts
                and isinstance(target.elts[0], ast.Name)
            ):
                result = target.elts[0].id  # innermost match wins (walk order)
        elif isinstance(target, ast.Name):
            result = target.id
    return result


def _comp_first_is_zero(
    comp: ast.ListComp, analysis: FunctionAnalysis, env: Env
) -> Optional[str]:
    """Loop-variable name when the comp provably starts at 0, else None.

    Requires a single ``for <name> in range(<stop>)`` generator with
    ``<stop>`` provably >= 1 (the list is non-empty, so it *has* a
    first element) whose element evaluates to exactly 0 at
    ``<name> = 0``.
    """
    if len(comp.generators) != 1:
        return None
    generator = comp.generators[0]
    if generator.is_async or generator.ifs:
        return None
    iterator = generator.iter
    if not (
        isinstance(iterator, ast.Call)
        and isinstance(iterator.func, ast.Name)
        and iterator.func.id == "range"
        and len(iterator.args) == 1
        and not iterator.keywords
    ):
        return None
    stop = analysis.evaluate(iterator.args[0], env)
    if stop.lo is None or stop.lo < 1:
        return None  # possibly empty: no first element at all
    if not isinstance(generator.target, ast.Name):
        return None
    hypothesis = dict(env)
    hypothesis[generator.target.id] = Interval.point(0)
    if analysis.evaluate(comp.elt, hypothesis).point_value != 0:
        return None
    return generator.target.id


#: One bounds-list mutation: (line, kind, statement, value expression).
_BoundsEvent = Tuple[int, str, ast.stmt, ast.expr]

#: The statements :meth:`PartitionInvariantRule._prove` reads.
_BOUNDS_EVENTS = (ast.Assign, ast.Expr, ast.AugAssign, ast.AnnAssign)


@register_project
class PartitionInvariantRule(ProjectRule):
    rule_id = "RANGE001"
    description = (
        "WindowRange partition not provably contiguous, non-overlapping "
        "and plan-covering"
    )
    help_anchor = _PACK_ANCHOR

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        engine = engine_for(project)
        for info in project.functions():
            module = project.modules[info.module]
            for node in nodes(info.node, ast.ListComp):
                bounds = _match_partition_comp(node)
                if bounds is None:
                    continue
                analysis = engine.analysis_for(info)
                reason = self._prove(info, analysis, node, bounds)
                if reason is not None:
                    yield self.finding(
                        project,
                        module.ctx.display_path,
                        node,
                        f"bounds list {bounds!r} {reason}; the partition "
                        "is not provably contiguous, non-overlapping and "
                        "plan-covering",
                    )

    # ------------------------------------------------------------------
    def _prove(
        self,
        info: FunctionInfo,
        analysis: FunctionAnalysis,
        comp: ast.ListComp,
        bounds: str,
    ) -> Optional[str]:
        """``None`` when every bounds segment is proven, else the reason.

        Adjacent-pair construction (``zip(B[:-1], B[1:])``) makes each
        range's ``hi`` the next range's ``lo`` — contiguity is
        structural.  What remains is the bounds list itself: it must
        provably start at 0, end at ``len(<plan parameter>)``, and grow
        monotonically in between.  Statements assigning/appending to
        the list partition (in source order) into segments, one per
        assignment; every segment must close its proof independently
        (alternative branches that each build the list form one
        segment apiece).
        """
        params = _param_set(info)
        events: List[_BoundsEvent] = []
        for stmt in nodes(info.node, _BOUNDS_EVENTS):
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == bounds
            ):
                events.append((stmt.lineno, "assign", stmt, stmt.value))
            elif (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr == "append"
                and isinstance(stmt.value.func.value, ast.Name)
                and stmt.value.func.value.id == bounds
                and len(stmt.value.args) == 1
                and not stmt.value.keywords
            ):
                events.append((stmt.lineno, "append", stmt, stmt.value.args[0]))
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                target = stmt.target
                if isinstance(target, ast.Name) and target.id == bounds:
                    return "is modified by an unsupported statement form"
        events.sort(key=lambda event: event[0])
        if any(line > comp.lineno for line, _, _, _ in events):
            return "is modified after the partition is built"
        if not events or events[0][1] != "assign":
            return "has no initial assignment before it is appended to"

        segments: List[List[_BoundsEvent]] = []
        for event in events:
            if event[1] == "assign":
                segments.append([event])
            else:
                segments[-1].append(event)
        for segment in segments:
            reason = self._prove_segment(info, analysis, params, segment)
            if reason is not None:
                return reason
        return None

    def _prove_segment(
        self,
        info: FunctionInfo,
        analysis: FunctionAnalysis,
        params: Set[str],
        segment: Sequence[_BoundsEvent],
    ) -> Optional[str]:
        value = segment[0][3]
        appends = segment[1:]
        env = analysis.env_at(value)
        if env is None:
            return "is assigned where the analysis has no state"

        # --- the initial assignment -----------------------------------
        if isinstance(value, ast.List):
            if not value.elts:
                return "starts from an empty list"
            first = analysis.evaluate(value.elts[0], env)
            if first.point_value != 0:
                return f"does not provably start at 0 (first bound {first})"
            if appends:
                if len(value.elts) != 1:
                    return "mixes literal interior bounds with appends"
            elif not (
                len(value.elts) == 2
                and _is_plan_length(value.elts[1], info, params)
            ):
                return "does not provably end at len(plan)"
        elif (
            isinstance(value, ast.BinOp)
            and isinstance(value.op, ast.Add)
            and isinstance(value.left, ast.ListComp)
            and isinstance(value.right, ast.List)
            and len(value.right.elts) == 1
        ):
            if appends:
                return "mixes a comprehension with appends"
            comp = value.left
            loop_var = _comp_first_is_zero(comp, analysis, env)
            if loop_var is None:
                return "does not provably start at 0"
            if not _monotone_in(comp.elt, loop_var, analysis, env):
                return "has interior bounds not provably monotone"
            if not _is_plan_length(value.right.elts[0], info, params):
                return "does not provably end at len(plan)"
        else:
            return "is initialized from an unsupported expression form"

        # --- the appended frontier ------------------------------------
        for index, (_line, _kind, stmt, arg) in enumerate(appends):
            if index == len(appends) - 1:
                if not _is_plan_length(arg, info, params):
                    return "does not provably end at len(plan)"
                continue
            loop_var = _enclosing_loop_var(info.node, stmt)
            if loop_var is None:
                return (
                    "appends an interior bound outside a counted "
                    "(range/enumerate) loop"
                )
            frontier_ok = isinstance(arg, ast.BinOp) and isinstance(
                arg.op, ast.Add
            )
            if frontier_ok:
                assert isinstance(arg, ast.BinOp)
                frontier_ok = (
                    isinstance(arg.left, ast.Name)
                    and arg.left.id == loop_var
                    and _const_int(arg.right) == 1
                ) or (
                    isinstance(arg.right, ast.Name)
                    and arg.right.id == loop_var
                    and _const_int(arg.left) == 1
                )
            if not frontier_ok:
                return (
                    "appends an interior bound that is not the loop "
                    "frontier <var> + 1"
                )
            arg_env = analysis.env_at(arg)
            if arg_env is None:
                return "appends a bound where the analysis has no state"
            frontier = analysis.evaluate(arg, arg_env)
            if frontier.lo is None or frontier.lo < 1:
                return "appends an interior bound not provably positive"
        return None


# ----------------------------------------------------------------------
# RANGE002 — arithmetic hazards in draw / estimator code
# ----------------------------------------------------------------------
#: Packages whose identifier-draw / estimator arithmetic RANGE002 scans.
_DRAW_PACKAGES: Tuple[str, ...] = ("core", "flow")


@register_project
class DrawHazardRule(ProjectRule):
    rule_id = "RANGE002"
    description = (
        "identifier-draw / estimator arithmetic with a provable "
        "zero-divisor, negative-shift, empty-span or modulo-bias hazard"
    )
    help_anchor = _PACK_ANCHOR

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        engine = engine_for(project)
        for info in project.functions():
            module = project.modules[info.module]
            if not module.ctx.in_packages(_DRAW_PACKAGES):
                continue
            analysis = engine.analysis_for(info)
            path = module.ctx.display_path
            for node in nodes(info.node, (ast.BinOp, ast.Call)):
                if isinstance(node, ast.BinOp):
                    yield from self._check_binop(project, path, analysis, node)
                elif isinstance(node, ast.Call):
                    yield from self._check_randrange(project, path, analysis, node)

    def _check_binop(
        self,
        project: ProjectContext,
        path: str,
        analysis: FunctionAnalysis,
        node: ast.BinOp,
    ) -> Iterator[Finding]:
        if analysis.env_at(node.right) is None:
            return  # nested def, or dead code the interpreter skipped
        right = analysis.interval_at(node.right)
        lo, hi = right.lo, right.hi
        if isinstance(node.op, (ast.Div, ast.FloorDiv, ast.Mod)):
            if lo is not None and hi is not None and lo <= 0 <= hi:
                kind = "modulus" if isinstance(node.op, ast.Mod) else "divisor"
                yield self.finding(
                    project,
                    path,
                    node,
                    f"{kind} has proven range {right}, which contains 0",
                )
            elif isinstance(node.op, ast.Mod):
                yield from self._check_bias(project, path, analysis, node, right)
        elif isinstance(node.op, (ast.LShift, ast.RShift)):
            if hi is not None and hi < 0:
                yield self.finding(
                    project,
                    path,
                    node,
                    f"shift amount has proven range {right}, which is "
                    "always negative",
                )

    def _check_bias(
        self,
        project: ProjectContext,
        path: str,
        analysis: FunctionAnalysis,
        node: ast.BinOp,
        right: Interval,
    ) -> Iterator[Finding]:
        modulus = right.point_value
        if modulus is None or modulus <= 0:
            return
        left = node.left
        if not (
            isinstance(left, ast.Call)
            and isinstance(left.func, ast.Attribute)
            and len(left.args) == 1
            and not left.keywords
        ):
            return
        method = left.func.attr
        span: Optional[int] = None
        arg = analysis.interval_at(left.args[0])
        if method == "getrandbits":
            bits = arg.point_value
            if bits is not None and 0 <= bits <= _MAX_SHIFT:
                span = 1 << bits
        elif method == "randrange":
            span = arg.point_value
        if span is not None and span > modulus and span % modulus != 0:
            yield self.finding(
                project,
                path,
                node,
                f"draw of span {span} reduced modulo {modulus} is biased "
                f"({span} % {modulus} != 0); draw from the target span "
                "directly",
            )

    def _check_randrange(
        self,
        project: ProjectContext,
        path: str,
        analysis: FunctionAnalysis,
        node: ast.Call,
    ) -> Iterator[Finding]:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr == "randrange"
            and len(node.args) == 1
            and not node.keywords
        ):
            return
        if analysis.env_at(node.args[0]) is None:
            return
        span = analysis.interval_at(node.args[0])
        if span.lo is not None and span.hi is not None and span.lo <= 0:
            yield self.finding(
                project,
                path,
                node,
                f"randrange span has proven range {span} and can be "
                "empty, which raises ValueError",
            )
