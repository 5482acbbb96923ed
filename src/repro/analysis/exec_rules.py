"""Fork/cache-safety rules for trial functions (EXEC001-003).

A function handed to the exec subsystem via ``TrialSpec`` runs in a
forked ``TrialRunner`` child, and its result may be stored in the
content-addressed cache.  Three things
quietly break that model:

* **EXEC001** — writing module-level mutable state.  The write lands in
  the child's copy-on-write image and vanishes when the child exits, so
  the parent sees stale state *and* the trial's behaviour depends on
  how many trials ran in that worker before it.

* **EXEC002** — touching a fork-unsafe resource created at import time
  (threads, locks, sockets, open handles, subprocesses).  Fork clones
  the handle but not the thread that services it; a lock held during
  the fork deadlocks the child.

* **EXEC003** — reading ambient inputs (``os.environ``, wall clock,
  file contents, stdin) anywhere in the call tree of a *cached* trial.
  The cache key is ``trial_key(fn, params, seed)``; an input outside
  the key means two runs with the same key can legitimately differ —
  the definition of a stale cache hit.

Trial functions are discovered project-wide: every ``TrialSpec``
construction site is resolved through the symbol table back to the
function definition, wherever it lives.  EXEC001/002 inspect the
function's direct body (a deliberate under-approximation — precise
transitive mutation analysis would drown in framework counters);
EXEC003 follows the call graph, because a cached trial's purity
contract extends to everything it calls.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .callgraph import build_callgraph
from .core import Finding, ProjectRule, nodes, register_project
from .dataflow import (
    ambient_reads,
    call_name,
    is_module_ref,
    owned_calls,
    param_names,
    positional_or_keyword,
    scope_walk,
)
from .symbols import FunctionInfo, ModuleSymbols, ProjectContext

__all__ = [
    "GlobalStateWriteRule",
    "ForkUnsafeCaptureRule",
    "AmbientCacheInputRule",
    "trial_spec_sites",
]

#: In-place mutators on dict/list/set objects.
_MUTATORS = frozenset(
    {
        "append",
        "add",
        "update",
        "setdefault",
        "extend",
        "insert",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
    }
)

#: The node types :func:`module_state_writes` inspects.
_STATE_WRITES = (ast.Name, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Call)

#: module -> constructor names whose instances do not survive a fork.
_FORK_UNSAFE = {
    "threading": {
        "Thread",
        "Lock",
        "RLock",
        "Condition",
        "Event",
        "Semaphore",
        "BoundedSemaphore",
        "Barrier",
        "Timer",
        "local",
    },
    "socket": {"socket", "create_connection"},
    "subprocess": {"Popen"},
    "sqlite3": {"connect"},
}


class TrialSite:
    """One ``TrialSpec(...)`` construction, resolved to its function."""

    def __init__(
        self,
        module: ModuleSymbols,
        call: ast.Call,
        fn_ref: Optional[str],
        cached: bool,
    ):
        self.module = module
        self.call = call
        self.fn_ref = fn_ref
        self.cached = cached


def trial_spec_sites(project: ProjectContext) -> List[TrialSite]:
    """Every ``TrialSpec`` construction in the project, in stable order."""
    sites: List[TrialSite] = []
    for name in sorted(project.modules):
        module = project.modules[name]
        for node in nodes(module.ctx.tree, ast.Call):
            if call_name(node) != "TrialSpec":
                continue
            fn_expr = positional_or_keyword(node, 0, "fn")
            fn_ref: Optional[str] = None
            if fn_expr is not None:
                fn_ref = project.resolve_call(module, fn_expr)
            cache_expr = positional_or_keyword(node, 3, "cache_key")
            cached = cache_expr is not None and not (
                isinstance(cache_expr, ast.Constant) and cache_expr.value is None
            )
            sites.append(TrialSite(module, node, fn_ref, cached))
    return sites


def _local_names(fn: ast.AST) -> Set[str]:
    """Names bound inside the function (params + any Store)."""
    names: Set[str] = set()
    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        names |= param_names(fn)
    for node in scope_walk(fn, ast.Name):
        if isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _root_name(expr: ast.expr) -> Optional[str]:
    """Base ``Name`` of an attribute/subscript chain."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def module_state_writes(
    module: ModuleSymbols, fn: ast.AST
) -> Iterator[Tuple[ast.AST, str]]:
    """Sites in ``fn``'s direct body that mutate module-level state.

    Yields ``(node, description)``.  Detects ``global`` rebinding,
    stores through subscripts/attributes rooted at a module-level name
    (or an imported module), and in-place mutator calls on
    module-level names.  Names rebound locally shadow module ones and
    are ignored.
    """
    declared_global: Set[str] = set()
    for node in scope_walk(fn, ast.Global):
        declared_global.update(node.names)
    module_names = set(module.module_assigns) | set(module.import_aliases)
    locals_here = _local_names(fn) - declared_global

    for node in scope_walk(fn, _STATE_WRITES):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store) and node.id in declared_global:
                yield node, f"rebinds module global '{node.id}'"
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    root = _root_name(target)
                    if root is None or root in locals_here:
                        continue
                    if root in module_names or root in declared_global:
                        yield target, f"writes into module-level '{root}'"
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and isinstance(func.value, (ast.Name, ast.Attribute, ast.Subscript))
            ):
                root = _root_name(func.value)
                if root is None or root in locals_here:
                    continue
                if root in set(module.module_assigns) | declared_global:
                    yield node, f"mutates module-level '{root}' via .{func.attr}()"


def _trial_functions(
    project: ProjectContext, cached_only: bool = False
) -> Dict[str, Tuple[FunctionInfo, TrialSite]]:
    """fn ref -> (definition, first site) for resolved trial functions."""
    out: Dict[str, Tuple[FunctionInfo, TrialSite]] = {}
    for site in trial_spec_sites(project):
        if cached_only and not site.cached:
            continue
        info = project.function(site.fn_ref)
        if info is not None and site.fn_ref is not None and site.fn_ref not in out:
            out[site.fn_ref] = (info, site)
    return out


@register_project
class GlobalStateWriteRule(ProjectRule):
    """EXEC001: trial function writes module-level mutable state."""

    rule_id = "EXEC001"
    description = (
        "function submitted as a TrialSpec writes module-level state; "
        "the write is lost with the forked child and makes trials "
        "order-dependent"
    )
    help_anchor = "pack-5--forkcache-safety-exec"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for ref, (info, _site) in sorted(_trial_functions(project).items()):
            module = project.modules[info.module]
            for node, what in module_state_writes(module, info.node):
                yield self.finding(
                    project,
                    module.ctx.display_path,
                    node,
                    f"trial function '{info.qualname}' {what}; trial "
                    "results must depend only on (fn, kwargs, seed)",
                )


@register_project
class ForkUnsafeCaptureRule(ProjectRule):
    """EXEC002: trial function uses a pre-fork resource."""

    rule_id = "EXEC002"
    description = (
        "function submitted as a TrialSpec captures a fork-unsafe "
        "module-level resource (thread/lock/socket/open handle) created "
        "before the fork"
    )
    help_anchor = "pack-5--forkcache-safety-exec"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for ref, (info, _site) in sorted(_trial_functions(project).items()):
            module = project.modules[info.module]
            unsafe = self._unsafe_module_names(module)
            if not unsafe:
                continue
            reported: Set[str] = set()
            locals_here = _local_names(info.node)
            for node in scope_walk(info.node, ast.Name):
                if (
                    isinstance(node.ctx, ast.Load)
                    and node.id in unsafe
                    and node.id not in locals_here
                    and node.id not in reported
                ):
                    reported.add(node.id)
                    yield self.finding(
                        project,
                        module.ctx.display_path,
                        node,
                        f"trial function '{info.qualname}' uses module-level "
                        f"'{node.id}' ({unsafe[node.id]}), created before the "
                        "fork; create it inside the trial instead",
                    )

    def _unsafe_module_names(self, module: ModuleSymbols) -> Dict[str, str]:
        """Module-level names bound to fork-unsafe constructor calls."""
        unsafe: Dict[str, str] = {}
        for name, value in module.module_assigns.items():
            label = self._fork_unsafe_ctor(module, value)
            if label is not None:
                unsafe[name] = label
        return unsafe

    def _fork_unsafe_ctor(
        self, module: ModuleSymbols, expr: ast.expr
    ) -> Optional[str]:
        if not isinstance(expr, ast.Call):
            return None
        func = expr.func
        if isinstance(func, ast.Name):
            if func.id == "open":
                return "open file handle"
            imported = module.from_imports.get(func.id)
            if imported is not None:
                source, original = imported
                if original in _FORK_UNSAFE.get(source, set()):
                    return f"{source}.{original}"
            return None
        if isinstance(func, ast.Attribute):
            for source, ctors in _FORK_UNSAFE.items():
                if func.attr in ctors and is_module_ref(module, func.value, source):
                    return f"{source}.{func.attr}"
        return None


@register_project
class AmbientCacheInputRule(ProjectRule):
    """EXEC003: cached trial reads inputs outside its cache key."""

    rule_id = "EXEC003"
    description = (
        "cached trial function (or a callee) reads ambient inputs — "
        "os.environ, wall clock, files, stdin — that are not part of "
        "its trial_key cache key"
    )
    help_anchor = "pack-5--forkcache-safety-exec"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        cached = _trial_functions(project, cached_only=True)
        if not cached:
            return
        graph = build_callgraph(project)
        roots = sorted(cached)
        for ref in sorted(graph.reachable(roots)):
            info = project.function(ref)
            if info is None:
                continue
            module = project.modules[info.module]
            for node, what in ambient_reads(module, info.node):
                chain = graph.path_from(roots, ref)
                via = " -> ".join(chain) if chain else ref
                yield self.finding(
                    project,
                    module.ctx.display_path,
                    node,
                    f"{what} read inside cached trial call tree ({via}); "
                    "fold the value into the trial kwargs/cache key or "
                    "hoist it out of the trial",
                )
