"""Seed-provenance rules (SEED001, SEED002).

The determinism contract of the exec subsystem is that every random
draw in a trial traces back to the trial's own seed: either a ``seed``
parameter threaded in by the runner, or a stream derived from one via
``derive_seed``/``derive_trial_seed``.  An RNG seeded
from anything else (a constant, an unrelated local, nothing at all)
reproduces across *processes* but not across *trials* — results stop
being a pure function of ``(fn, params, seed)``, which is exactly the
identity the content-addressed cache and the sharding/worker-count bit-identity
guarantees assume.

SEED001 applies taint tracking per scope: parameters whose names look
like seeds, seed-ish attribute reads (``config.seed``), derive-call
results, and child-seed draws from an existing stream
(``rng.getrandbits(64)``) are sources; a ``random.Random(x)`` or
``RngRegistry(x)`` whose argument carries no taint is flagged.

SEED002 checks cache-key completeness at ``TrialSpec`` construction
sites that pass a ``cache_key``: every statically-known kwarg of the
trial must also appear in the ``trial_key`` params (or be the seed
argument itself, which ``trial_key`` hashes separately).  A kwarg that
influences the trial but not its key makes the cache return stale
results silently.  Both sides must be *provably* known (dict literals,
``dict(...)``, constant-key stores) for the rule to speak — any
dynamic construction makes it stay silent rather than guess.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set, Tuple, Union

from .core import Finding, ProjectRule, nodes, register_project
from .dataflow import (
    TaintTracker,
    call_name,
    is_module_ref,
    owned_calls,
    param_names,
    positional_or_keyword,
    scope_walk,
    static_dict_keys,
)
from .symbols import ModuleSymbols, ProjectContext

__all__ = ["SeedTaintRule", "CacheKeyCompletenessRule", "SEED_NAME_RE"]

#: Identifier looks like it carries a seed: ``seed``, ``base_seed``,
#: ``root_seed``, ``seed_param``, ``seeds``...
SEED_NAME_RE = re.compile(r"(?:^|_)seeds?(?:$|_)")

#: Calls whose result is a trial-derived seed (or derived stream).
_DERIVE_CALLS = frozenset(
    {"derive_seed", "derive_trial_seed", "fallback_stream"}
)

#: Drawing a child seed from an existing (already seeded) stream.
_CHILD_DRAWS = frozenset({"getrandbits", "randint", "randrange"})

ScopeT = Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef]

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_seed_source(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute) and SEED_NAME_RE.search(node.attr):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in _DERIVE_CALLS:
            return True
        if name in _CHILD_DRAWS and isinstance(node.func, ast.Attribute):
            return True
    return False


def _child_scopes(scope: ast.AST) -> Iterator[ScopeT]:
    """Function scopes directly nested in ``scope`` (incl. via classes)."""
    for node in scope_walk(scope, _DEFINITIONS):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item


@register_project
class SeedTaintRule(ProjectRule):
    """SEED001: RNG construction whose seed is not trial-derived."""

    rule_id = "SEED001"
    description = (
        "random.Random/RngRegistry seeded with a value not derived from "
        "a trial-seed source (seed parameter, derive_seed/derive_trial_seed, "
        "or a draw from an existing stream)"
    )
    help_anchor = "pack-4--seed-provenance-seed"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for name in sorted(project.modules):
            module = project.modules[name]
            yield from self._check_scope(project, module, module.ctx.tree, set())

    def _check_scope(
        self,
        project: ProjectContext,
        module: ModuleSymbols,
        scope: ScopeT,
        inherited: Set[str],
    ) -> Iterator[Finding]:
        sources = set(inherited)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            sources |= {
                param for param in param_names(scope) if SEED_NAME_RE.search(param)
            }
        tracker = TaintTracker(scope, sources, _is_seed_source)
        for call in owned_calls(scope):
            target = self._rng_construction(module, call)
            if target is None:
                continue
            kind, seed_arg = target
            if not tracker.expr_tainted(seed_arg):
                yield self.finding(
                    project,
                    module.ctx.display_path,
                    call,
                    f"{kind} seeded with a value that is not derived from a "
                    "trial seed; route it through derive_seed/derive_trial_seed or "
                    "a seed parameter",
                )
        for child in _child_scopes(scope):
            yield from self._check_scope(project, module, child, tracker.tainted)

    def _rng_construction(
        self, module: ModuleSymbols, call: ast.Call
    ) -> Optional[Tuple[str, ast.expr]]:
        """``(label, seed argument)`` when ``call`` builds a seeded RNG."""
        name = call_name(call)
        if name == "Random":
            func = call.func
            if isinstance(func, ast.Attribute):
                if not is_module_ref(module, func.value, "random"):
                    return None
            elif module.from_imports.get("Random") != ("random", "Random"):
                return None
            seed_arg = positional_or_keyword(call, 0, "x")
            if seed_arg is None:  # unseeded: DET001's finding, not ours
                return None
            return "random.Random", seed_arg
        if name == "RngRegistry":
            seed_arg = positional_or_keyword(call, 0, "root_seed")
            if seed_arg is None:
                return None
            return "RngRegistry", seed_arg
        return None


@register_project
class CacheKeyCompletenessRule(ProjectRule):
    """SEED002: a TrialSpec kwarg that never reaches trial_key."""

    rule_id = "SEED002"
    description = (
        "TrialSpec kwarg missing from the trial_key params of its "
        "cache_key — cached results will not distinguish that input"
    )
    help_anchor = "pack-4--seed-provenance-seed"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for name in sorted(project.modules):
            module = project.modules[name]
            scopes: List[ScopeT] = [module.ctx.tree]
            seen: Set[int] = set()
            while scopes:
                scope = scopes.pop()
                if id(scope) in seen:
                    continue
                seen.add(id(scope))
                yield from self._check_scope(project, module, scope)
                scopes.extend(_child_scopes(scope))

    def _check_scope(
        self, project: ProjectContext, module: ModuleSymbols, scope: ScopeT
    ) -> Iterator[Finding]:
        for call in owned_calls(scope):
            if call_name(call) != "TrialSpec":
                continue
            yield from self._check_spec(project, module, scope, call)

    def _check_spec(
        self,
        project: ProjectContext,
        module: ModuleSymbols,
        scope: ScopeT,
        spec: ast.Call,
    ) -> Iterator[Finding]:
        kwargs_expr = positional_or_keyword(spec, 1, "kwargs")
        cache_expr = positional_or_keyword(spec, 3, "cache_key")
        if kwargs_expr is None or cache_expr is None:
            return
        if isinstance(cache_expr, ast.Constant) and cache_expr.value is None:
            return
        key_call = self._trial_key_call(scope, cache_expr)
        if key_call is None:
            return
        params_expr = positional_or_keyword(key_call, 1, "params")
        seed_expr = positional_or_keyword(key_call, 2, "seed")
        if params_expr is None:
            return
        # Same variable on both sides is trivially complete.
        if (
            isinstance(kwargs_expr, ast.Name)
            and isinstance(params_expr, ast.Name)
            and kwargs_expr.id == params_expr.id
        ):
            return
        kwarg_keys = static_dict_keys(scope, kwargs_expr)
        param_keys = static_dict_keys(scope, params_expr)
        if kwarg_keys is None or param_keys is None:
            return  # not statically provable either way: stay silent
        seed_names: Set[str] = set()
        if seed_expr is not None:
            seed_names = {node.id for node in nodes(seed_expr, ast.Name)}
        fn_expr = positional_or_keyword(spec, 0, "fn")
        fn_label = ast.unparse(fn_expr) if fn_expr is not None else "trial"
        for key in sorted(kwarg_keys - param_keys):
            if self._is_seed_value(scope, kwargs_expr, key, seed_names):
                continue
            yield self.finding(
                project,
                module.ctx.display_path,
                spec,
                f"kwarg '{key}' of {fn_label} is not in the trial_key params; "
                "the cache cannot distinguish runs that differ only in it",
            )

    # ------------------------------------------------------------------
    def _trial_key_call(
        self, scope: ScopeT, cache_expr: ast.expr
    ) -> Optional[ast.Call]:
        """The ``trial_key(...)`` call that produces ``cache_expr``."""
        if isinstance(cache_expr, ast.Call):
            return cache_expr if call_name(cache_expr) == "trial_key" else None
        if not isinstance(cache_expr, ast.Name):
            return None
        candidate: Optional[ast.Call] = None
        for node in scope_walk(scope, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == cache_expr.id:
                    value = node.value
                    if isinstance(value, ast.Constant) and value.value is None:
                        continue
                    if isinstance(value, ast.Call) and call_name(value) == "trial_key":
                        if candidate is not None:
                            return None  # ambiguous rebinding: stay silent
                        candidate = value
                    else:
                        return None  # bound to something we can't follow
        return candidate

    def _is_seed_value(
        self,
        scope: ScopeT,
        kwargs_expr: ast.expr,
        key: str,
        seed_names: Set[str],
    ) -> bool:
        """Is the kwarg's value exactly the seed passed to ``trial_key``?"""
        if not seed_names:
            return False
        for value in self._kwarg_values(scope, kwargs_expr, key):
            if isinstance(value, ast.Name) and value.id in seed_names:
                return True
        return False

    def _kwarg_values(
        self, scope: ScopeT, kwargs_expr: ast.expr, key: str, _depth: int = 0
    ) -> Iterator[ast.expr]:
        if _depth > 4:
            return
        if isinstance(kwargs_expr, ast.Dict):
            for k, v in zip(kwargs_expr.keys, kwargs_expr.values):
                if isinstance(k, ast.Constant) and k.value == key:
                    yield v
        elif isinstance(kwargs_expr, ast.Call) and isinstance(
            kwargs_expr.func, ast.Name
        ):
            if kwargs_expr.func.id == "dict":
                for keyword in kwargs_expr.keywords:
                    if keyword.arg == key:
                        yield keyword.value
                for arg in kwargs_expr.args:
                    yield from self._kwarg_values(scope, arg, key, _depth + 1)
        elif isinstance(kwargs_expr, ast.Name):
            for node in scope_walk(scope, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == kwargs_expr.id:
                        yield from self._kwarg_values(
                            scope, node.value, key, _depth + 1
                        )
                    elif (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == kwargs_expr.id
                        and isinstance(target.slice, ast.Constant)
                        and target.slice.value == key
                    ):
                        yield node.value
