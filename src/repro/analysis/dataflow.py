"""Conservative intraprocedural dataflow helpers.

Three small engines shared by the project rule packs:

* :class:`TaintTracker` — forward taint propagation over one lexical
  scope.  Seeded with source names (typically parameters) and a
  predicate for source *expressions* (``derive_seed(...)`` calls,
  ``config.seed`` attributes), it iterates the scope's assignments to a
  fixpoint so ``a = seed; b = a + 1; random.Random(b)`` is recognised as
  seed-derived.  Taint spreads through any expression containing a
  tainted name — deliberately coarse: over-tainting suppresses findings
  (safe), under-tainting invents them (not safe).

* :func:`static_dict_keys` — the provable set of string keys a dict
  expression may hold at the end of a scope, following dict literals,
  ``dict(...)`` copies/kwargs, and constant-key ``d[k] = v`` stores.
  Returns ``None`` whenever any key is not statically known; rules must
  treat ``None`` as "unknown, stay silent".

* :func:`ambient_reads` — call/attribute sites inside a scope that pull
  in ambient process state (environment, wall clock, filesystem,
  stdin): the inputs that silently invalidate a content-addressed cache
  entry when they are not part of its key.

Scopes are walked with :func:`scope_walk`, which does not descend into
nested ``def``/``class``/``lambda`` bodies — each nested function is its
own scope, analysed with its parent's tainted names as inherited
sources.  It and the typed scope queries here read the module's node
index (:func:`~repro.analysis.core.scope_order`); :class:`TaintTracker`
reads each assignment site once, so its fixpoint passes walk nothing.
"""

from __future__ import annotations

import ast
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .core import Kinds, nodes, scope_order, walk
from .symbols import ModuleSymbols

__all__ = [
    "TaintTracker",
    "ambient_reads",
    "call_name",
    "is_module_ref",
    "keyword_arg",
    "owned_calls",
    "param_names",
    "scope_walk",
    "static_dict_keys",
]

ScopeNode = Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef]

_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)

#: Fixpoint iteration cap; real functions converge in 2-3 passes.
_MAX_PASSES = 25

_DICT_KEY_DEPTH = 6


def scope_walk(root: ast.AST, kinds: Kinds = ast.AST) -> List[Any]:
    """Every node owned by ``root``'s scope that is an instance of ``kinds``.

    Includes nested ``def``/``class``/``lambda`` statements themselves
    (so callers can recurse into them) but never their bodies.
    """
    return scope_order(root, _NESTED_SCOPES, kinds)


def owned_calls(root: ast.AST) -> List[ast.Call]:
    """Call sites owned by ``root``'s scope (not nested functions')."""
    return scope_walk(root, ast.Call)


def param_names(func: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> Set[str]:
    """All parameter names of a function, every kind included."""
    args = func.args
    names = {
        arg.arg
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    }
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    return names


def call_name(call: ast.Call) -> Optional[str]:
    """Terminal name of a call target: ``m.f(...)`` and ``f(...)`` -> ``f``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def keyword_arg(call: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def positional_or_keyword(
    call: ast.Call, index: int, name: str
) -> Optional[ast.expr]:
    """Argument by position or keyword, ``None`` if absent or starred."""
    value = keyword_arg(call, name)
    if value is not None:
        return value
    if index < len(call.args):
        arg = call.args[index]
        if isinstance(arg, ast.Starred):
            return None
        return arg
    return None


#: The nodes through which an assignment can carry taint.
_SITES = (
    ast.Assign,
    ast.AnnAssign,
    ast.AugAssign,
    ast.NamedExpr,
    ast.For,
    ast.comprehension,
    ast.withitem,
)


def _site(node: ast.AST) -> Optional[Tuple[ast.AST, Sequence[ast.expr]]]:
    """``(value, targets)`` of an assignment site, ``None`` if it binds nothing."""
    if isinstance(node, ast.Assign):
        return node.value, node.targets
    if isinstance(node, (ast.AugAssign, ast.NamedExpr)):
        return node.value, [node.target]
    if isinstance(node, ast.AnnAssign):
        return None if node.value is None else (node.value, [node.target])
    if isinstance(node, (ast.For, ast.comprehension)):
        return node.iter, [node.target]
    if isinstance(node, ast.withitem) and node.optional_vars is not None:
        return node.context_expr, [node.optional_vars]
    return None


class TaintTracker:
    """Forward taint over one scope, run to fixpoint at construction.

    Each assignment site is read once, into the names its value reads,
    whether its value holds a source expression, and the names its
    targets bind; a fixpoint pass is then one set test per site.
    """

    def __init__(
        self,
        scope: ast.AST,
        sources: Iterable[str],
        is_source: Optional[Callable[[ast.AST], bool]] = None,
    ):
        self.tainted: Set[str] = set(sources)
        self._is_source: Callable[[ast.AST], bool] = is_source or (lambda node: False)
        self._sites: List[Tuple[Set[str], bool, List[str]]] = []
        for node in scope_walk(scope, _SITES):
            site = _site(node)
            if site is None:
                continue
            value, targets = site
            bound = [name.id for target in targets for name in nodes(target, ast.Name)]
            if bound:
                reads, sourced = self._read(value)
                self._sites.append((reads, sourced, bound))
        for _ in range(_MAX_PASSES):
            if not self._propagate_once():
                break

    # ------------------------------------------------------------------
    def expr_tainted(self, expr: ast.AST) -> bool:
        """Does ``expr`` (or any sub-expression) carry taint?"""
        reads, sourced = self._read(expr)
        return sourced or not self.tainted.isdisjoint(reads)

    def _read(self, expr: ast.AST) -> Tuple[Set[str], bool]:
        """The names ``expr`` reads, and whether it holds a source."""
        reads: Set[str] = set()
        sourced = False
        for node in walk(expr):
            if isinstance(node, ast.Name):
                reads.add(node.id)
            if not sourced:
                sourced = self._is_source(node)
        return reads, sourced

    # ------------------------------------------------------------------
    def _propagate_once(self) -> bool:
        changed = False
        tainted = self.tainted
        for reads, sourced, bound in self._sites:
            if sourced or not tainted.isdisjoint(reads):
                for name in bound:
                    if name not in tainted:
                        tainted.add(name)
                        changed = True
        return changed


# ----------------------------------------------------------------------
# Static dict-key analysis (SEED002's cache-key completeness check)
# ----------------------------------------------------------------------


def _dict_literal_keys(node: ast.Dict) -> Optional[Set[str]]:
    keys: Set[str] = set()
    for key in node.keys:
        if (
            key is not None
            and isinstance(key, ast.Constant)
            and isinstance(key.value, str)
        ):
            keys.add(key.value)
        else:
            return None
    return keys


def static_dict_keys(
    scope: ast.AST,
    expr: ast.expr,
    _depth: int = 0,
    _seen: Optional[Set[str]] = None,
) -> Optional[Set[str]]:
    """String keys ``expr`` provably holds by the end of ``scope``.

    Understands dict literals with constant string keys, ``dict(...)``
    construction (keyword args, single-positional copy), and — for
    names — the union of every assignment plus constant-key subscript
    stores.  Any construct outside that vocabulary (``**`` splats,
    computed keys, ``.update(...)`` with unknown argument, unassigned
    names such as parameters) makes the whole answer ``None``.
    """
    if _depth > _DICT_KEY_DEPTH:
        return None
    seen = _seen if _seen is not None else set()
    if isinstance(expr, ast.Dict):
        return _dict_literal_keys(expr)
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.id == "dict":
            keys: Set[str] = set()
            for keyword in expr.keywords:
                if keyword.arg is None:
                    return None
                keys.add(keyword.arg)
            if expr.args:
                if len(expr.args) != 1:
                    return None
                base = static_dict_keys(scope, expr.args[0], _depth + 1, seen)
                if base is None:
                    return None
                keys |= base
            return keys
        return None
    if isinstance(expr, ast.Name):
        return _name_dict_keys(scope, expr.id, _depth, seen)
    return None


def _name_dict_keys(
    scope: ast.AST, name: str, depth: int, seen: Set[str]
) -> Optional[Set[str]]:
    if name in seen:
        return None
    seen.add(name)
    keys: Set[str] = set()
    assigned = False
    for node in scope_walk(scope, (ast.Assign, ast.AnnAssign, ast.Call)):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    assigned = True
                    sub = static_dict_keys(scope, node.value, depth + 1, seen)
                    if sub is None:
                        return None
                    keys |= sub
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == name
                ):
                    # d["k"] = v adds a key; a computed key adds "anything"
                    key = target.slice
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        keys.add(key.value)
                    else:
                        return None
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.target.id == name:
                if node.value is None:
                    continue
                assigned = True
                sub = static_dict_keys(scope, node.value, depth + 1, seen)
                if sub is None:
                    return None
                keys |= sub
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == name
                and func.attr in {"update", "setdefault"}
            ):
                return None
    return keys if assigned else None


# ----------------------------------------------------------------------
# Ambient-input detection (EXEC003 / PURE001)
# ----------------------------------------------------------------------

_CLOCK_ATTRS = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
             "perf_counter_ns", "localtime", "gmtime"},
    "datetime": {"now", "utcnow", "today"},
}

_FILE_READ_METHODS = {"read_text", "read_bytes"}


def is_module_ref(
    module: ModuleSymbols, expr: ast.expr, target: str
) -> bool:
    """Does ``expr`` refer to stdlib module ``target`` (or a name from it)?

    Accepts ``import target [as a]`` aliases, names imported *from*
    ``target`` (``from datetime import datetime``), and one attribute
    hop for ``datetime.datetime``-style class access.
    """
    if isinstance(expr, ast.Name):
        if module.import_aliases.get(expr.id) == target:
            return True
        imported = module.from_imports.get(expr.id)
        return imported is not None and imported[0] == target
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        return module.import_aliases.get(expr.value.id) == target
    return False


def ambient_reads(
    module: ModuleSymbols, scope: ast.AST
) -> Iterator[Tuple[ast.AST, str]]:
    """Sites in ``scope`` that read ambient process state.

    Yields ``(node, what)`` pairs for environment lookups, wall-clock
    reads, filesystem reads, and stdin — everything that can change a
    trial's behaviour without changing its arguments.
    """
    env_names = {
        local
        for local, (src, orig) in module.from_imports.items()
        if src == "os" and orig in {"environ", "getenv"}
    }
    clock_names = {
        local: (src, orig)
        for local, (src, orig) in module.from_imports.items()
        if src in _CLOCK_ATTRS and orig in _CLOCK_ATTRS[src]
    }
    for node in scope_walk(scope, (ast.Attribute, ast.Name, ast.Call)):
        if isinstance(node, ast.Attribute):
            if node.attr == "environ" and is_module_ref(module, node.value, "os"):
                yield node, "os.environ"
        elif isinstance(node, ast.Name):
            if node.id in env_names:
                yield node, f"os.{module.from_imports[node.id][1]}"
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id == "open":
                    yield node, "open()"
                elif func.id == "input":
                    yield node, "input()"
                elif func.id in clock_names:
                    src, orig = clock_names[func.id]
                    yield node, f"{src}.{orig}()"
            elif isinstance(func, ast.Attribute):
                if func.attr == "getenv" and is_module_ref(
                    module, func.value, "os"
                ):
                    yield node, "os.getenv()"
                elif func.attr in _FILE_READ_METHODS:
                    yield node, f".{func.attr}()"
                else:
                    for mod_name, attrs in _CLOCK_ATTRS.items():
                        if func.attr in attrs and is_module_ref(
                            module, func.value, mod_name
                        ):
                            yield node, f"{mod_name}.{func.attr}()"
                            break
