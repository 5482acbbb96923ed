"""Interval-domain abstract interpretation over function bodies.

The constant folder (:mod:`.constfold`) answers "what *is* this
expression" and goes silent the moment a value flows through a local
variable, a branch, or a call.  This module answers the weaker but far
more useful question "what *range* can this expression take", which is
what the wire-format rules actually need: every value reaching a
``writer.write(value, width)`` must provably fit ``width`` bits, and
``width`` is rarely a literal at the call site.

The abstract domain is the classic integer interval lattice:

* :class:`Interval` ``[lo, hi]`` with ``None`` for an unbounded side;
  ``TOP`` is ``[-inf, +inf]`` (= no information), a *point* interval
  ``[c, c]`` is exactly the constant folder's answer — constfold is the
  degenerate case of this engine, and a property test pins that they
  agree wherever constfold folds.
* Transfer functions cover arithmetic (``+ - * // % << >>``), bitwise
  operators on provably non-negative operands (``x & MASK`` is
  ``[0, MASK]`` for *any* ``x``), ``min``/``max``/``abs``, and
  conditional expressions.
* **Branch refinement**: ``if not 0 <= n <= MAX: raise`` leaves
  ``n ∈ [0, MAX]`` on the fall-through path.  Comparisons refine both
  operands, chained comparisons refine every conjunct, ``not``/
  ``and``/``or`` distribute, and an infeasible refinement marks the
  branch unreachable.
* Environments key on *canonical expressions*, not just names:
  dotted attribute chains (``fragment.total_length``) and ``len(...)``
  pseudo-values (``len(fragment.payload)``), so the encoder guard
  idioms in :mod:`repro.aff.wire` prove real field bounds.
* **Widening on loops**: a bounded fixpoint iteration with widening
  (an unstable bound is dropped to unbounded) guarantees termination;
  ``break``/``continue`` paths contribute to the post-loop state.
* **Interprocedural summaries**: return-value intervals are computed
  callees-first over :func:`~repro.analysis.callgraph.build_callgraph`
  so a call to a project-local function evaluates to its summary.
  Cycles and unresolvable calls evaluate to ``TOP``.

Everything here *over*-approximates values and therefore
*under*-approximates certainty: a rule that requires a proven bound
(WIRE004's "this range exceeds the field") stays silent whenever a
chain does not resolve.  ``TOP`` never fires a finding.

The :func:`build_proof_ledger` entry point walks every
``BitWriter.write`` site in the wire-format packages and records, per
field: the declared width, the proven value range, and the slack —
``repro lint --ranges --report`` renders it, and the SARIF export
carries it under ``runs[0].properties``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)
from weakref import WeakKeyDictionary

from .callgraph import build_callgraph
from .constfold import fold_int
from .core import nodes
from .symbols import FunctionInfo, ProjectContext

__all__ = [
    "FunctionAnalysis",
    "Interval",
    "LedgerEntry",
    "RangeEngine",
    "TOP",
    "analyze_function",
    "build_proof_ledger",
    "engine_for",
    "render_proof_ledger",
]

#: Refuse absurd shifts/exponents, mirroring :mod:`.constfold`.
_MAX_SHIFT = 1 << 16

#: Fixpoint passes before widening gives way to dropping unstable keys.
_MAX_LOOP_PASSES = 8


# ----------------------------------------------------------------------
# The abstract domain
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Interval:
    """A closed integer interval; ``None`` means unbounded on that side."""

    lo: Optional[int]
    hi: Optional[int]

    # -- constructors ---------------------------------------------------
    @staticmethod
    def point(value: int) -> "Interval":
        return Interval(value, value)

    # -- predicates -----------------------------------------------------
    @property
    def is_top(self) -> bool:
        return self.lo is None and self.hi is None

    @property
    def is_point(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    @property
    def point_value(self) -> Optional[int]:
        """The single value of a point interval, else ``None``."""
        if self.lo is not None and self.lo == self.hi:
            return self.lo
        return None

    def contains(self, other: "Interval") -> bool:
        """Whether every value of ``other`` lies within ``self``."""
        if self.lo is not None and (other.lo is None or other.lo < self.lo):
            return False
        if self.hi is not None and (other.hi is None or other.hi > self.hi):
            return False
        return True

    # -- lattice operations --------------------------------------------
    def join(self, other: "Interval") -> "Interval":
        """Least upper bound (union hull)."""
        lo = None
        if self.lo is not None and other.lo is not None:
            lo = min(self.lo, other.lo)
        hi = None
        if self.hi is not None and other.hi is not None:
            hi = max(self.hi, other.hi)
        return Interval(lo, hi)

    def meet(self, other: "Interval") -> Optional["Interval"]:
        """Greatest lower bound (intersection); ``None`` when empty."""
        lo = self.lo
        if other.lo is not None and (lo is None or other.lo > lo):
            lo = other.lo
        hi = self.hi
        if other.hi is not None and (hi is None or other.hi < hi):
            hi = other.hi
        if lo is not None and hi is not None and lo > hi:
            return None
        return Interval(lo, hi)

    def widen(self, other: "Interval") -> "Interval":
        """Keep a bound only while ``other`` stays within it."""
        lo = self.lo
        if lo is not None and (other.lo is None or other.lo < lo):
            lo = None
        hi = self.hi
        if hi is not None and (other.hi is None or other.hi > hi):
            hi = None
        return Interval(lo, hi)

    def __repr__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


TOP = Interval(None, None)


# ----------------------------------------------------------------------
# Interval arithmetic (sound over-approximations)
# ----------------------------------------------------------------------
def _neg(value: Interval) -> Interval:
    return Interval(
        None if value.hi is None else -value.hi,
        None if value.lo is None else -value.lo,
    )


def _add(a: Interval, b: Interval) -> Interval:
    lo = None if a.lo is None or b.lo is None else a.lo + b.lo
    hi = None if a.hi is None or b.hi is None else a.hi + b.hi
    return Interval(lo, hi)


def _sub(a: Interval, b: Interval) -> Interval:
    return _add(a, _neg(b))


def _mul(a: Interval, b: Interval) -> Interval:
    if a.point_value == 0 or b.point_value == 0:
        return Interval.point(0)
    if (
        a.lo is not None
        and a.hi is not None
        and b.lo is not None
        and b.hi is not None
    ):
        corners = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
        return Interval(min(corners), max(corners))
    # Partially bounded: only the easy sign cases keep information.
    if a.lo is not None and a.lo >= 0 and b.lo is not None and b.lo >= 0:
        return Interval(a.lo * b.lo, None)
    if a.hi is not None and a.hi <= 0 and b.hi is not None and b.hi <= 0:
        return Interval(a.hi * b.hi, None)
    return TOP


def _floordiv(a: Interval, b: Interval) -> Interval:
    if b.point_value is not None and a.point_value is not None:
        if b.point_value == 0:
            return TOP
        return Interval.point(a.point_value // b.point_value)
    if b.lo is None or b.lo < 1:
        # Divisor not provably positive (mirrored negative-divisor case
        # is not worth the floor-division sign subtleties).
        return TOP

    def extremes(x: int) -> List[int]:
        values = [x // b.lo] if b.lo is not None else []
        if b.hi is not None:
            values.append(x // b.hi)
        else:
            # Limit as the divisor grows without bound.
            values.append(0 if x >= 0 else -1)
        return values

    lo = min(extremes(a.lo)) if a.lo is not None else None
    hi = max(extremes(a.hi)) if a.hi is not None else None
    return Interval(lo, hi)


def _mod(a: Interval, b: Interval) -> Interval:
    if a.is_point and b.is_point and a.lo is not None and b.lo not in (None, 0):
        return Interval.point(a.lo % b.lo)
    if b.lo is not None and b.lo >= 1:
        # Python: for d > 0, x % d is in [0, d-1].
        if (
            a.lo is not None
            and a.lo >= 0
            and a.hi is not None
            and a.hi < b.lo
        ):
            return a  # the modulo is the identity on [0, d)
        return Interval(0, None if b.hi is None else b.hi - 1)
    if b.hi is not None and b.hi <= -1:
        # For d < 0, x % d is in (d, 0].
        return Interval(None if b.lo is None else b.lo + 1, 0)
    return TOP


def _lshift(a: Interval, b: Interval) -> Interval:
    if b.lo is None or b.lo < 0 or (b.hi is not None and b.hi > _MAX_SHIFT):
        return TOP
    lo: Optional[int] = None
    if a.lo is not None:
        if a.lo >= 0:
            lo = a.lo << b.lo
        elif b.hi is not None:
            lo = a.lo << b.hi
    hi: Optional[int] = None
    if a.hi is not None:
        if a.hi <= 0:
            hi = a.hi << b.lo
        elif b.hi is not None:
            hi = a.hi << b.hi
    return Interval(lo, hi)


def _rshift(a: Interval, b: Interval) -> Interval:
    if b.lo is None or b.lo < 0:
        return TOP
    lo: Optional[int] = None
    if a.lo is not None:
        if b.hi is not None:
            lo = min(a.lo >> b.lo, a.lo >> b.hi)
        else:
            lo = min(a.lo >> b.lo, 0 if a.lo >= 0 else -1)
    hi: Optional[int] = None
    if a.hi is not None:
        if b.hi is not None:
            hi = max(a.hi >> b.lo, a.hi >> b.hi)
        else:
            hi = max(a.hi >> b.lo, 0 if a.hi >= 0 else -1)
    return Interval(lo, hi)


def _bitand(a: Interval, b: Interval) -> Interval:
    if a.is_point and b.is_point and a.lo is not None and b.lo is not None:
        return Interval.point(a.lo & b.lo)
    # For a non-negative mask m, x & m is in [0, m] for *every* int x.
    bounds = [
        side.hi
        for side in (a, b)
        if side.lo is not None and side.lo >= 0 and side.hi is not None
    ]
    if bounds:
        return Interval(0, min(bounds))
    if (a.lo is not None and a.lo >= 0) or (b.lo is not None and b.lo >= 0):
        return Interval(0, None)
    return TOP


def _bit_ceiling(value: int) -> int:
    """Smallest ``2**k - 1 >= value`` (for non-negative ``value``)."""
    return (1 << value.bit_length()) - 1


def _bitor(a: Interval, b: Interval) -> Interval:
    if a.is_point and b.is_point and a.lo is not None and b.lo is not None:
        return Interval.point(a.lo | b.lo)
    if a.lo is None or a.lo < 0 or b.lo is None or b.lo < 0:
        return TOP
    lo = max(a.lo, b.lo)  # x | y >= max(x, y) for non-negative x, y
    if a.hi is None or b.hi is None:
        return Interval(lo, None)
    return Interval(lo, _bit_ceiling(max(a.hi, b.hi)))


def _bitxor(a: Interval, b: Interval) -> Interval:
    if a.is_point and b.is_point and a.lo is not None and b.lo is not None:
        return Interval.point(a.lo ^ b.lo)
    if a.lo is None or a.lo < 0 or b.lo is None or b.lo < 0:
        return TOP
    if a.hi is None or b.hi is None:
        return Interval(0, None)
    return Interval(0, _bit_ceiling(max(a.hi, b.hi)))


def _invert(value: Interval) -> Interval:
    # ~x == -x - 1
    return _sub(Interval.point(-1), value)


def _abs(value: Interval) -> Interval:
    if value.lo is not None and value.lo >= 0:
        return value
    if value.hi is not None and value.hi <= 0:
        return _neg(value)
    if value.lo is not None and value.hi is not None:
        return Interval(0, max(-value.lo, value.hi))
    return Interval(0, None)


def _min_of(values: Sequence[Interval]) -> Interval:
    los = [value.lo for value in values]
    lo = None if any(x is None for x in los) else min(x for x in los if x is not None)
    known_his = [value.hi for value in values if value.hi is not None]
    hi = min(known_his) if known_his else None
    return Interval(lo, hi)


def _max_of(values: Sequence[Interval]) -> Interval:
    known_los = [value.lo for value in values if value.lo is not None]
    lo = max(known_los) if known_los else None
    his = [value.hi for value in values]
    hi = None if any(x is None for x in his) else max(x for x in his if x is not None)
    return Interval(lo, hi)


def _pow(a: Interval, b: Interval) -> Interval:
    base = a.point_value
    exponent = b.point_value
    if base is None or exponent is None or not 0 <= exponent <= 64:
        return TOP
    return Interval.point(int(base**exponent))


_BINOPS: Dict[type, Callable[[Interval, Interval], Interval]] = {
    ast.Add: _add,
    ast.Sub: _sub,
    ast.Mult: _mul,
    ast.FloorDiv: _floordiv,
    ast.Mod: _mod,
    ast.LShift: _lshift,
    ast.RShift: _rshift,
    ast.BitAnd: _bitand,
    ast.BitOr: _bitor,
    ast.BitXor: _bitxor,
    ast.Pow: _pow,
}


# ----------------------------------------------------------------------
# Canonical expression keys
# ----------------------------------------------------------------------
def canonical_key(expr: ast.expr) -> Optional[str]:
    """Stable environment key for ``expr``, if it has one.

    Plain names map to themselves, attribute chains rooted in a name to
    their dotted path (``fragment.total_length``), and single-argument
    ``len(...)`` calls over a keyable expression to ``len(<key>)``.
    Anything else — subscripts, calls, arithmetic — has no key and is
    tracked only through its value.
    """
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        base = canonical_key(expr.value)
        if base is not None and "(" not in base:
            return f"{base}.{expr.attr}"
        return None
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "len"
        and len(expr.args) == 1
        and not expr.keywords
    ):
        inner = canonical_key(expr.args[0])
        if inner is not None:
            return f"len({inner})"
    return None


def _key_root(key: str) -> str:
    inner = key[4:-1] if key.startswith("len(") else key
    return inner.split(".", 1)[0]


def _is_derived(key: str) -> bool:
    return "." in key or key.startswith("len(")


# ----------------------------------------------------------------------
# Environments
# ----------------------------------------------------------------------
Env = Dict[str, Interval]

#: Resolver hook: interval of a call's return value, or ``None`` for
#: "no idea" (treated as TOP).
CallResolver = Callable[[ast.Call], Optional[Interval]]


def _join_envs(envs: Sequence[Env]) -> Env:
    """Pointwise join; keys absent anywhere (= TOP there) are dropped."""
    if not envs:
        return {}
    keys = set(envs[0])
    for env in envs[1:]:
        keys &= set(env)
    joined: Env = {}
    for key in keys:
        value = envs[0][key]
        for env in envs[1:]:
            value = value.join(env[key])
        if not value.is_top:
            joined[key] = value
    return joined


def _widen_env(prev: Env, nxt: Env) -> Env:
    widened: Env = {}
    for key, value in nxt.items():
        older = prev.get(key)
        result = value if older is None else older.widen(value)
        if not result.is_top:
            widened[key] = result
    return widened


def _env_contains(outer: Env, inner: Env) -> bool:
    """``outer`` is a sound over-approximation of ``inner``."""
    for key, bound in outer.items():
        value = inner.get(key)
        if value is None or not bound.contains(value):
            return False
    return True


def _kill_root(env: Env, root: str) -> Env:
    """Drop every key rooted at ``root`` (the binding changed)."""
    if not any(_key_root(key) == root for key in env):
        return env
    return {key: v for key, v in env.items() if _key_root(key) != root}


def _kill_derived(env: Env, root: str) -> Env:
    """Drop derived (dotted / ``len``) keys rooted at ``root``."""
    if not any(_is_derived(key) and _key_root(key) == root for key in env):
        return env
    return {
        key: v
        for key, v in env.items()
        if not (_is_derived(key) and _key_root(key) == root)
    }


#: The nodes :func:`_assigned_names` reads a binding from.
_BINDERS = (
    ast.Name,
    ast.Global,
    ast.Nonlocal,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
)


def _assigned_names(stmts: Iterable[ast.stmt]) -> Set[str]:
    names: Set[str] = set()
    for stmt in stmts:
        for node in nodes(stmt, _BINDERS):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                names.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                names.update(node.names)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.add(node.name)
    return names


def _call_roots(node: ast.AST) -> Tuple[str, ...]:
    """Roots of the values the calls under ``node`` may mutate.

    A method call's receiver, and every bare name passed as an
    argument, in first-seen order.
    """
    roots: Dict[str, None] = {}
    for call in nodes(node, ast.Call):
        if isinstance(call.func, ast.Attribute):
            base = canonical_key(call.func.value)
            if base is not None:
                roots[_key_root(base)] = None
        for arg in call.args:
            target = arg.value if isinstance(arg, ast.Starred) else arg
            if isinstance(target, ast.Name):
                roots[target.id] = None
        for keyword in call.keywords:
            if isinstance(keyword.value, ast.Name):
                roots[keyword.value.id] = None
    return tuple(roots)


# ----------------------------------------------------------------------
# The analysis result
# ----------------------------------------------------------------------
@dataclass
class FunctionAnalysis:
    """Per-function result of one abstract-interpretation run.

    ``values`` maps ``id(node)`` of every evaluated expression to its
    interval; ``envs`` maps it to the abstract environment in force at
    that program point (rules use it to re-evaluate sub-expressions
    under hypotheses, e.g. a comprehension variable pinned to 0).
    """

    values: Dict[int, Interval] = field(default_factory=dict)
    envs: Dict[int, Env] = field(default_factory=dict)
    returns: List[Interval] = field(default_factory=list)
    _eval: Optional[Callable[[ast.expr, Env], Interval]] = None

    def result(self) -> Interval:
        """Join of every ``return <int expr>``; TOP when unknown."""
        if not self.returns:
            return TOP
        joined = self.returns[0]
        for value in self.returns[1:]:
            joined = joined.join(value)
        return joined

    def interval_at(self, node: ast.expr) -> Interval:
        """The interval recorded for ``node``, TOP if never evaluated."""
        return self.values.get(id(node), TOP)

    def env_at(self, node: ast.AST) -> Optional[Env]:
        return self.envs.get(id(node))

    def evaluate(self, expr: ast.expr, env: Env) -> Interval:
        """Re-evaluate ``expr`` under a caller-supplied environment."""
        if self._eval is None:
            return TOP
        return self._eval(expr, env)


# ----------------------------------------------------------------------
# The interpreter
# ----------------------------------------------------------------------
class _Interpreter:
    """One abstract-interpretation pass over a statement block."""

    def __init__(self, resolve: Optional[CallResolver]):
        self._resolve = resolve
        self.analysis = FunctionAnalysis()
        self.analysis._eval = self._eval
        #: (break_envs, continue_envs) per active loop, innermost last.
        self._loops: List[Tuple[List[Env], List[Env]]] = []
        #: :func:`_call_roots` per node, read once: loop fixpoints
        #: revisit every statement of their body.
        self._roots_of: Dict[ast.AST, Tuple[str, ...]] = {}

    # -- expression evaluation -----------------------------------------
    def _eval(self, expr: ast.expr, env: Env) -> Interval:
        value = self._eval_inner(expr, env)
        self.analysis.values[id(expr)] = value
        self.analysis.envs[id(expr)] = env
        return value

    def _eval_inner(self, expr: ast.expr, env: Env) -> Interval:
        key = canonical_key(expr)
        if key is not None:
            found = env.get(key)
            if found is not None:
                return found
            if key.startswith("len("):
                return Interval(0, None)
            if isinstance(expr, ast.Call):  # len() over a non-tracked value
                return Interval(0, None)
            if isinstance(expr, ast.Name):
                return TOP
            return TOP
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, bool):
                return Interval.point(int(expr.value))
            if isinstance(expr.value, int):
                return Interval.point(expr.value)
            return TOP
        if isinstance(expr, ast.UnaryOp):
            operand = self._eval(expr.operand, env)
            if isinstance(expr.op, ast.USub):
                return _neg(operand)
            if isinstance(expr.op, ast.UAdd):
                return operand
            if isinstance(expr.op, ast.Invert):
                return _invert(operand)
            if isinstance(expr.op, ast.Not):
                return Interval(0, 1)
            return TOP
        if isinstance(expr, ast.BinOp):
            left = self._eval(expr.left, env)
            right = self._eval(expr.right, env)
            op = _BINOPS.get(type(expr.op))
            if op is None:
                return TOP
            return op(left, right)
        if isinstance(expr, ast.BoolOp):
            # ``a and b`` / ``a or b`` evaluate to one of the operands.
            joined: Optional[Interval] = None
            for operand in expr.values:
                value = self._eval(operand, env)
                joined = value if joined is None else joined.join(value)
            return joined if joined is not None else TOP
        if isinstance(expr, ast.Compare):
            self._eval(expr.left, env)
            for comparator in expr.comparators:
                self._eval(comparator, env)
            return Interval(0, 1)
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test, env)
            then_env = self._refine(expr.test, env, True)
            else_env = self._refine(expr.test, env, False)
            branches: List[Interval] = []
            if then_env is not None:
                branches.append(self._eval(expr.body, then_env))
            if else_env is not None:
                branches.append(self._eval(expr.orelse, else_env))
            if not branches:
                return TOP
            joined_branch = branches[0]
            for value in branches[1:]:
                joined_branch = joined_branch.join(value)
            return joined_branch
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.NamedExpr):
            return self._eval(expr.value, env)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for element in expr.elts:
                if not isinstance(element, ast.Starred):
                    self._eval(element, env)
            return TOP
        if isinstance(expr, ast.Attribute):
            # Unkeyable attribute (base is a call/subscript): walk the
            # base for recording, value unknown.
            self._eval(expr.value, env)
            return TOP
        if isinstance(expr, ast.Subscript):
            self._eval(expr.value, env)
            return TOP
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            # The comprehension's own value is TOP, but its iterables
            # evaluate in the enclosing env (RANGE001 re-evaluates the
            # element under loop-variable hypotheses via ``evaluate``).
            for generator in expr.generators:
                self._eval(generator.iter, env)
            return TOP
        return TOP

    def _eval_call(self, call: ast.Call, env: Env) -> Interval:
        args = [
            self._eval(arg, env)
            for arg in call.args
            if not isinstance(arg, ast.Starred)
        ]
        for keyword in call.keywords:
            self._eval(keyword.value, env)
        plain = len(args) == len(call.args) and not call.keywords
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "min" and plain and len(args) >= 2:
                return _min_of(args)
            if func.id == "max" and plain and len(args) >= 2:
                return _max_of(args)
            if func.id == "abs" and plain and len(args) == 1:
                return _abs(args[0])
            if func.id == "int" and plain and len(args) == 1:
                # Exact for int inputs; float inputs evaluate TOP anyway.
                return args[0]
            if func.id == "bool" and plain and len(args) == 1:
                return Interval(0, 1)
            if func.id == "len" and plain and len(args) == 1:
                return Interval(0, None)
            if func.id == "round" and plain and len(args) == 1:
                return args[0]
        if isinstance(func, ast.Attribute):
            # RNG draw envelopes: rng.randrange(n) ∈ [0, n-1], etc.
            if func.attr == "randrange" and plain and len(args) == 1:
                span = args[0]
                hi = None if span.hi is None else span.hi - 1
                return Interval(0, hi)
            if func.attr == "randint" and plain and len(args) == 2:
                return Interval(args[0].lo, args[1].hi)
            if func.attr == "getrandbits" and plain and len(args) == 1:
                bits = args[0].point_value
                if bits is not None and 0 <= bits <= _MAX_SHIFT:
                    return Interval(0, (1 << bits) - 1)
                return Interval(0, None)
            if func.attr == "bit_length" and plain and not args:
                self._eval(func.value, env)
                return Interval(0, None)
        if self._resolve is not None:
            summary = self._resolve(call)
            if summary is not None:
                return summary
        return TOP

    # -- branch refinement ---------------------------------------------
    def _refine(self, test: ast.expr, env: Env, assume: bool) -> Optional[Env]:
        """Environment assuming ``test`` is ``assume``; None = infeasible."""
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self._refine(test.operand, env, not assume)
        if isinstance(test, ast.BoolOp):
            if isinstance(test.op, ast.And) and assume:
                refined: Optional[Env] = env
                for operand in test.values:
                    if refined is None:
                        return None
                    refined = self._refine(operand, refined, True)
                return refined
            if isinstance(test.op, ast.Or) and not assume:
                refined = env
                for operand in test.values:
                    if refined is None:
                        return None
                    refined = self._refine(operand, refined, False)
                return refined
            return env
        if isinstance(test, ast.Compare):
            return self._refine_compare(test, env, assume)
        if isinstance(test, ast.Constant):
            truthy = bool(test.value)
            return env if truthy == assume else None
        key = canonical_key(test)
        if key is not None:
            # Truthiness of a tracked integer value.
            if assume:
                return self._apply_cmp(env, test, ast.NotEq(), Interval.point(0))
            return self._apply_cmp(env, test, ast.Eq(), Interval.point(0))
        return env

    def _refine_compare(
        self, test: ast.Compare, env: Env, assume: bool
    ) -> Optional[Env]:
        pairs: List[Tuple[ast.expr, ast.cmpop, ast.expr]] = []
        left = test.left
        for op, right in zip(test.ops, test.comparators):
            pairs.append((left, op, right))
            left = right
        if not assume:
            if len(pairs) != 1:
                return env  # the negation of a chain is a disjunction
            lhs, op, rhs = pairs[0]
            flipped = _negate_cmp(op)
            if flipped is None:
                return env
            pairs = [(lhs, flipped, rhs)]
        refined: Optional[Env] = env
        for lhs, op, rhs in pairs:
            if refined is None:
                return None
            rhs_value = self._eval(rhs, refined)
            refined = self._apply_cmp(refined, lhs, op, rhs_value)
            if refined is None:
                return None
            lhs_value = self._eval(lhs, refined)
            mirrored = _mirror_cmp(op)
            if mirrored is not None:
                refined = self._apply_cmp(refined, rhs, mirrored, lhs_value)
        return refined

    def _apply_cmp(
        self, env: Env, expr: ast.expr, op: ast.cmpop, bound: Interval
    ) -> Optional[Env]:
        key = canonical_key(expr)
        if key is None:
            return env
        current = env.get(key)
        if current is None:
            # A ``len(...)`` value is non-negative even before any
            # explicit constraint; everything else starts at TOP.
            current = Interval(0, None) if key.startswith("len(") else TOP
        constraint: Optional[Interval] = None
        if isinstance(op, ast.Lt) and bound.hi is not None:
            constraint = Interval(None, bound.hi - 1)
        elif isinstance(op, ast.LtE) and bound.hi is not None:
            constraint = Interval(None, bound.hi)
        elif isinstance(op, ast.Gt) and bound.lo is not None:
            constraint = Interval(bound.lo + 1, None)
        elif isinstance(op, ast.GtE) and bound.lo is not None:
            constraint = Interval(bound.lo, None)
        elif isinstance(op, ast.Eq):
            constraint = bound
        elif isinstance(op, ast.NotEq):
            excluded = bound.point_value
            if excluded is not None:
                if current.point_value == excluded:
                    return None  # must differ from its only value
                narrowed = current
                if narrowed.lo is not None and narrowed.lo == excluded:
                    narrowed = Interval(narrowed.lo + 1, narrowed.hi)
                if narrowed.hi is not None and narrowed.hi == excluded:
                    narrowed = Interval(narrowed.lo, narrowed.hi - 1)
                if narrowed is not current:
                    return self._store(env, key, narrowed)
            return env
        if constraint is None:
            return env
        met = current.meet(constraint)
        if met is None:
            return None
        if met == current:
            return env
        return self._store(env, key, met)

    @staticmethod
    def _store(env: Env, key: str, value: Interval) -> Env:
        updated = dict(env)
        if value.is_top:
            updated.pop(key, None)
        else:
            updated[key] = value
        return updated

    # -- mutation effects ----------------------------------------------
    def _call_effects(self, node: ast.AST, env: Env) -> Env:
        """Kill derived keys a contained call could invalidate.

        A method call may mutate its receiver (``bounds.append(x)``
        changes ``len(bounds)``); passing a bare name to an opaque call
        may mutate that object.  Simple name bindings are unaffected —
        Python rebinds names only through assignment.
        """
        roots = self._roots_of.get(node)
        if roots is None:
            roots = self._roots_of[node] = _call_roots(node)
        for root in roots:
            env = _kill_derived(env, root)
        return env

    # -- statements -----------------------------------------------------
    def run_block(self, stmts: Sequence[ast.stmt], env: Optional[Env]) -> Optional[Env]:
        for stmt in stmts:
            if env is None:
                return None
            env = self._exec(stmt, env)
        return env

    def _exec(self, stmt: ast.stmt, env: Env) -> Optional[Env]:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env)
            env = self._call_effects(stmt, env)
            for target in stmt.targets:
                env = self._assign(target, value, env)
            return env
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                return env
            value = self._eval(stmt.value, env)
            env = self._call_effects(stmt, env)
            return self._assign(stmt.target, value, env)
        if isinstance(stmt, ast.AugAssign):
            target_expr = _store_to_load(stmt.target)
            current = self._eval(target_expr, env) if target_expr is not None else TOP
            operand = self._eval(stmt.value, env)
            env = self._call_effects(stmt, env)
            op = _BINOPS.get(type(stmt.op))
            value = op(current, operand) if op is not None else TOP
            return self._assign(stmt.target, value, env)
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env)
            return self._call_effects(stmt, env)
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self._eval(stmt.value, env)
                if not (
                    isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is None
                ):
                    self.analysis.returns.append(value)
            return None
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, env)
            return None
        if isinstance(stmt, ast.Assert):
            self._eval(stmt.test, env)
            return self._refine(stmt.test, env, True)
        if isinstance(stmt, ast.If):
            return self._exec_if(stmt, env)
        if isinstance(stmt, ast.While):
            return self._exec_while(stmt, env)
        if isinstance(stmt, ast.For):
            return self._exec_for(stmt, env)
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._loops[-1][0].append(env)
            return None
        if isinstance(stmt, ast.Continue):
            if self._loops:
                self._loops[-1][1].append(env)
            return None
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._eval(item.context_expr, env)
                env_after = self._call_effects(item.context_expr, env)
                env = env_after
                if item.optional_vars is not None:
                    env = self._assign(item.optional_vars, TOP, env)
            result = self.run_block(stmt.body, env)
            return result
        if isinstance(stmt, ast.Try):
            return self._exec_try(stmt, env)
        if isinstance(stmt, (ast.Pass,)):
            return env
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            return env
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return _kill_root(env, stmt.name)
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                key = canonical_key(_store_to_load(target) or target)
                if key is not None:
                    env = _kill_root(env, _key_root(key))
            return env
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            for name in stmt.names:
                env = _kill_root(env, name)
            return env
        # Unknown statement kind (match, async constructs, ...): kill
        # everything it assigns and carry on — sound, maximally blunt.
        for name in _assigned_names([stmt]):
            env = _kill_root(env, name)
        return self._call_effects(stmt, env)

    def _assign(self, target: ast.expr, value: Interval, env: Env) -> Env:
        if isinstance(target, ast.Name):
            env = _kill_root(env, target.id)
            if not value.is_top:
                env = dict(env)
                env[target.id] = value
            return env
        if isinstance(target, ast.Attribute):
            # Attribute stores can alias; drop *all* derived keys, then
            # record the stored value under the canonical key if any.
            env = {key: v for key, v in env.items() if not _is_derived(key)}
            key = canonical_key(_store_to_load(target) or target)
            if key is not None and not value.is_top:
                env = dict(env)
                env[key] = value
            return env
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                inner = element.value if isinstance(element, ast.Starred) else element
                env = self._assign(inner, TOP, env)
            return env
        if isinstance(target, ast.Subscript):
            base = canonical_key(target.value)
            if base is not None:
                env = _kill_derived(env, _key_root(base))
            return env
        if isinstance(target, ast.Starred):
            return self._assign(target.value, TOP, env)
        return env

    def _exec_if(self, stmt: ast.If, env: Env) -> Optional[Env]:
        self._eval(stmt.test, env)
        then_env = self._refine(stmt.test, env, True)
        else_env = self._refine(stmt.test, env, False)
        outcomes: List[Env] = []
        if then_env is not None:
            then_out = self.run_block(stmt.body, then_env)
            if then_out is not None:
                outcomes.append(then_out)
        if else_env is not None:
            else_out = self.run_block(stmt.orelse, else_env)
            if else_out is not None:
                outcomes.append(else_out)
        if not outcomes:
            return None
        return _join_envs(outcomes)

    def _loop_pass(
        self,
        body: Sequence[ast.stmt],
        entry: Optional[Env],
    ) -> Tuple[List[Env], List[Env], Optional[Env]]:
        """Run the loop body once; collect break/continue exit states."""
        self._loops.append(([], []))
        out = self.run_block(body, entry) if entry is not None else None
        breaks, continues = self._loops.pop()
        return breaks, continues, out

    def _fixpoint(
        self,
        baseline: Env,
        body_entry: Callable[[Env], Optional[Env]],
        body: Sequence[ast.stmt],
    ) -> Tuple[Env, List[Env]]:
        """Widened loop fixpoint.  Returns (stable head env, break envs).

        The head env over-approximates every state reaching the loop
        head (including zero iterations).  A final recording pass runs
        the body once more under the stable head so per-node intervals
        reflect the fixpoint, and its break/continue states are the
        ones the caller folds into the post-loop state.
        """
        head = baseline
        passes = 0
        while True:
            breaks, continues, out = self._loop_pass(body, body_entry(head))
            parts = [baseline, *continues]
            if out is not None:
                parts.append(out)
            nxt = _join_envs(parts)
            if _env_contains(head, nxt) and passes > 0:
                # One narrowing step: ``nxt = F(head) | baseline`` still
                # over-approximates the least fixpoint (``head`` is a
                # post-fixpoint), but recovers bounds widening threw
                # away — e.g. a clamp inside the body caps the widened
                # upper bound again.
                head = nxt
                break
            passes += 1
            if passes == 1:
                head = nxt
            elif passes < _MAX_LOOP_PASSES:
                head = _widen_env(head, nxt)
            else:
                # Termination backstop: drop every key not already
                # stable, which can only repeat a bounded number of
                # times before containment holds.
                head = {
                    key: value
                    for key, value in head.items()
                    if key in nxt and value.contains(nxt[key])
                }
        breaks, _continues, _out = self._loop_pass(body, body_entry(head))
        return head, breaks

    def _exec_while(self, stmt: ast.While, env: Env) -> Optional[Env]:
        def entry(head: Env) -> Optional[Env]:
            self._eval(stmt.test, head)
            return self._refine(stmt.test, head, True)

        head, breaks = self._fixpoint(env, entry, stmt.body)
        exits: List[Env] = list(breaks)
        refuted = self._refine(stmt.test, head, False)
        if refuted is not None:
            if stmt.orelse:
                orelse_out = self.run_block(stmt.orelse, refuted)
                if orelse_out is not None:
                    exits.append(orelse_out)
            else:
                exits.append(refuted)
        if not exits:
            return None
        return _join_envs(exits)

    def _exec_for(self, stmt: ast.For, env: Env) -> Optional[Env]:
        def entry(head: Env) -> Optional[Env]:
            self._eval(stmt.iter, head)
            bound_env = self._call_effects(stmt.iter, head)
            loop_var = self._iter_interval(stmt.iter, head)
            return self._bind_for_target(stmt.target, loop_var, bound_env)

        head, breaks = self._fixpoint(env, entry, stmt.body)
        exits: List[Env] = list(breaks)
        if stmt.orelse:
            orelse_out = self.run_block(stmt.orelse, head)
            if orelse_out is not None:
                exits.append(orelse_out)
        else:
            exits.append(head)
        if not exits:
            return None
        return _join_envs(exits)

    def _iter_interval(self, iterator: ast.expr, env: Env) -> Interval:
        """Interval of the (first) loop variable for known iterators."""
        if isinstance(iterator, ast.Call) and isinstance(iterator.func, ast.Name):
            name = iterator.func.id
            args = iterator.args
            if name == "range" and not iterator.keywords and args:
                if len(args) == 1:
                    start: Interval = Interval.point(0)
                    stop: Interval = self.analysis.interval_at(args[0])
                    step: Optional[int] = 1
                else:
                    start = self.analysis.interval_at(args[0])
                    stop = self.analysis.interval_at(args[1])
                    step = (
                        self.analysis.interval_at(args[2]).point_value
                        if len(args) >= 3
                        else 1
                    )
                if step is not None and step > 0:
                    hi = None if stop.hi is None else stop.hi - 1
                    return Interval(start.lo, hi)
                if step is not None and step < 0:
                    lo = None if stop.lo is None else stop.lo + 1
                    return Interval(lo, start.hi)
                return TOP
            if name == "enumerate" and args:
                return Interval(0, None)
        return TOP

    def _bind_for_target(
        self, target: ast.expr, loop_var: Interval, env: Env
    ) -> Env:
        if isinstance(target, ast.Tuple) and target.elts:
            # ``for i, x in enumerate(...)``: the counter is the first
            # element; the rest are unknown.
            env = self._assign(target.elts[0], loop_var, env)
            for element in target.elts[1:]:
                env = self._assign(element, TOP, env)
            return env
        return self._assign(target, loop_var, env)

    def _exec_try(self, stmt: ast.Try, env: Env) -> Optional[Env]:
        body_out = self.run_block(stmt.body, env)
        # A handler can be entered from any point of the body: its
        # entry state is the pre-try env with every body binding
        # forgotten.
        handler_entry = env
        for name in _assigned_names(stmt.body):
            handler_entry = _kill_root(handler_entry, name)
        outcomes: List[Env] = []
        if body_out is not None:
            orelse_out = (
                self.run_block(stmt.orelse, body_out) if stmt.orelse else body_out
            )
            if orelse_out is not None:
                outcomes.append(orelse_out)
        for handler in stmt.handlers:
            entry = handler_entry
            if handler.name is not None:
                entry = _kill_root(entry, handler.name)
            handler_out = self.run_block(handler.body, entry)
            if handler_out is not None:
                outcomes.append(handler_out)
        if not outcomes:
            # All paths raise/return; ``finally`` still runs but the
            # statement itself cannot fall through.
            if stmt.finalbody:
                self.run_block(stmt.finalbody, handler_entry)
            return None
        merged = _join_envs(outcomes)
        if stmt.finalbody:
            final_out = self.run_block(stmt.finalbody, merged)
            return final_out
        return merged


def _store_to_load(node: ast.expr) -> Optional[ast.expr]:
    """A Load-context twin of an assignment target, for evaluation."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return node  # canonical_key ignores ctx
    return None


def _negate_cmp(op: ast.cmpop) -> Optional[ast.cmpop]:
    if isinstance(op, ast.Lt):
        return ast.GtE()
    if isinstance(op, ast.LtE):
        return ast.Gt()
    if isinstance(op, ast.Gt):
        return ast.LtE()
    if isinstance(op, ast.GtE):
        return ast.Lt()
    if isinstance(op, ast.Eq):
        return ast.NotEq()
    if isinstance(op, ast.NotEq):
        return ast.Eq()
    return None


def _mirror_cmp(op: ast.cmpop) -> Optional[ast.cmpop]:
    if isinstance(op, ast.Lt):
        return ast.Gt()
    if isinstance(op, ast.LtE):
        return ast.GtE()
    if isinstance(op, ast.Gt):
        return ast.Lt()
    if isinstance(op, ast.GtE):
        return ast.LtE()
    if isinstance(op, (ast.Eq, ast.NotEq)):
        return type(op)()
    return None


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
ScopeNode = ast.AST  # FunctionDef / AsyncFunctionDef


def _param_names(node: ScopeNode) -> Set[str]:
    arguments = getattr(node, "args", None)
    if not isinstance(arguments, ast.arguments):
        return set()
    names = {
        arg.arg
        for arg in (
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
        )
    }
    if arguments.vararg is not None:
        names.add(arguments.vararg.arg)
    if arguments.kwarg is not None:
        names.add(arguments.kwarg.arg)
    return names


def analyze_function(
    node: ScopeNode,
    constants: Mapping[str, int],
    resolve: Optional[CallResolver] = None,
) -> FunctionAnalysis:
    """Abstractly interpret one function body.

    ``constants`` (module-level integer constants) seed the initial
    environment as point intervals; parameters shadow them and start
    unconstrained.  ``resolve`` maps call sites to return-value
    intervals (the interprocedural hook); without it every unresolved
    call is TOP.
    """
    env: Env = {
        name: Interval.point(value) for name, value in constants.items()
    }
    for param in _param_names(node):
        env.pop(param, None)
    interpreter = _Interpreter(resolve)
    body = getattr(node, "body", None)
    if isinstance(body, list):
        interpreter.run_block(body, env)
    return interpreter.analysis


class RangeEngine:
    """Project-wide interval analysis with bottom-up call summaries.

    Every known function gets one :class:`FunctionAnalysis`, computed
    callees-first over the project call graph so call sites evaluate to
    their callee's return-value interval.  Recursive cycles and
    unresolvable calls summarize as TOP — the engine loses precision
    there, never soundness.
    """

    def __init__(self, project: ProjectContext):
        self.project = project
        self.summaries: Dict[str, Interval] = {}
        self._analyses: Dict[str, FunctionAnalysis] = {}
        graph = build_callgraph(project)
        for ref in self._postorder(graph):
            info = project.function(ref)
            if info is None:
                continue
            self._analyses[ref] = self._analyze(info)
            self.summaries[ref] = self._analyses[ref].result()

    def _postorder(self, graph: "object") -> List[str]:
        edges: Mapping[str, Set[str]] = getattr(graph, "edges")
        order: List[str] = []
        state: Dict[str, int] = {}  # 1 = visiting, 2 = done
        for root in sorted(edges):
            if state.get(root):
                continue
            stack: List[Tuple[str, List[str]]] = [
                (root, sorted(edges.get(root, ())))
            ]
            state[root] = 1
            while stack:
                ref, pending = stack[-1]
                while pending:
                    child = pending.pop()
                    if not state.get(child) and child in edges:
                        state[child] = 1
                        stack.append((child, sorted(edges.get(child, ()))))
                        break
                else:
                    state[ref] = 2
                    order.append(ref)
                    stack.pop()
        return order

    def _analyze(self, info: FunctionInfo) -> FunctionAnalysis:
        module = self.project.modules[info.module]

        def resolve(call: ast.Call) -> Optional[Interval]:
            ref = self.project.resolve_call(module, call.func)
            if ref is None:
                return None
            return self.summaries.get(ref)  # None (=TOP) inside cycles

        return analyze_function(info.node, module.ctx.constants, resolve)

    def analysis_for(self, info: FunctionInfo) -> FunctionAnalysis:
        cached = self._analyses.get(info.ref)
        if cached is not None:
            return cached
        analysis = self._analyze(info)
        self._analyses[info.ref] = analysis
        return analysis


_ENGINES: "WeakKeyDictionary[ProjectContext, RangeEngine]" = WeakKeyDictionary()


def engine_for(project: ProjectContext) -> RangeEngine:
    """The (memoized) range engine of one project context.

    Several rules and the proof ledger all need the same summaries;
    keying the cache weakly on the project context means one analysis
    pass per lint invocation and no retained memory afterwards.
    """
    engine = _ENGINES.get(project)
    if engine is None:
        engine = RangeEngine(project)
        _ENGINES[project] = engine
    return engine


# ----------------------------------------------------------------------
# The proof ledger
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LedgerEntry:
    """One ``writer.write(value, width)`` site with its proof state."""

    path: str
    line: int
    function: str
    value_expr: str
    width_expr: str
    #: Declared width in bits when proven, else None (symbolic width).
    width_bits: Optional[int]
    proven_lo: Optional[int]
    proven_hi: Optional[int]

    @property
    def field_max(self) -> Optional[int]:
        if self.width_bits is None or not 0 < self.width_bits <= _MAX_SHIFT:
            return None
        return (1 << self.width_bits) - 1

    @property
    def slack(self) -> Optional[int]:
        """Headroom between the proven max and the field max."""
        if self.field_max is None or self.proven_hi is None:
            return None
        return self.field_max - self.proven_hi

    @property
    def status(self) -> str:
        if self.width_bits is None:
            return "symbolic-width"
        if self.proven_hi is None:
            return "open"
        slack = self.slack
        if (slack is not None and slack < 0) or (
            self.proven_lo is not None and self.proven_lo < 0
        ):
            return "overflow"
        return "proved"

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "function": self.function,
            "value": self.value_expr,
            "width": self.width_expr,
            "width_bits": self.width_bits,
            "field_max": self.field_max,
            "proven_lo": self.proven_lo,
            "proven_hi": self.proven_hi,
            "slack": self.slack,
            "status": self.status,
        }


#: Packages whose BitWriter sites belong in the wire-field ledger.
LEDGER_PACKAGES: Tuple[str, ...] = ("aff", "radio", "apps")


def build_proof_ledger(
    project: ProjectContext,
    packages: Sequence[str] = LEDGER_PACKAGES,
) -> List[LedgerEntry]:
    """Every wire-field write in ``packages`` with its proven range."""
    from .wire_rules import _bitwriter_names, _write_calls

    engine = engine_for(project)
    entries: List[LedgerEntry] = []
    for info in project.functions():
        module = project.modules[info.module]
        if not module.ctx.in_packages(packages):
            continue
        writers = _bitwriter_names(info.node)
        if not writers:
            continue
        analysis = engine.analysis_for(info)
        for call, method in _write_calls(info.node, writers):
            if method != "write" or len(call.args) != 2:
                continue
            if analysis.env_at(call.args[0]) is None:
                continue  # inside a nested def; not this function's site
            value_iv = analysis.interval_at(call.args[0])
            width_iv = analysis.interval_at(call.args[1])
            width = width_iv.point_value
            if width is not None and width <= 0:
                width = None
            entries.append(
                LedgerEntry(
                    path=module.ctx.display_path,
                    line=int(getattr(call, "lineno", 1)),
                    function=info.ref,
                    value_expr=ast.unparse(call.args[0]),
                    width_expr=ast.unparse(call.args[1]),
                    width_bits=width,
                    proven_lo=value_iv.lo,
                    proven_hi=value_iv.hi,
                )
            )
    entries.sort(key=lambda entry: (entry.path, entry.line))
    return entries


def render_proof_ledger(entries: Sequence[LedgerEntry]) -> str:
    """The ledger as an aligned text table."""
    headers = (
        "site",
        "field value",
        "width",
        "bits",
        "proven range",
        "slack",
        "status",
    )
    rows: List[Tuple[str, ...]] = []
    for entry in entries:
        bits = "?" if entry.width_bits is None else str(entry.width_bits)
        lo = "-inf" if entry.proven_lo is None else str(entry.proven_lo)
        hi = "+inf" if entry.proven_hi is None else str(entry.proven_hi)
        slack = "-" if entry.slack is None else str(entry.slack)
        rows.append(
            (
                f"{entry.path}:{entry.line}",
                entry.value_expr,
                entry.width_expr,
                bits,
                f"[{lo}, {hi}]",
                slack,
                entry.status,
            )
        )
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(headers[i].ljust(widths[i]) for i in range(len(headers))).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append(
            "  ".join(row[i].ljust(widths[i]) for i in range(len(headers))).rstrip()
        )
    proved = sum(1 for entry in entries if entry.status == "proved")
    lines.append(
        f"{len(entries)} wire-field write(s); {proved} proved within "
        "their declared width"
    )
    return "\n".join(lines)


def ledger_properties(entries: Sequence[LedgerEntry]) -> Dict[str, object]:
    """SARIF ``runs[0].properties`` payload for the proof ledger."""
    return {
        "proofLedger": {
            "version": 1,
            "fields": [entry.to_json() for entry in entries],
        }
    }
