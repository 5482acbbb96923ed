"""Project-wide symbol table.

The per-module rules (:mod:`.determinism`, :mod:`.wire_rules`,
:mod:`.rngstreams`) see one file at a time.  The dataflow packs
(:mod:`.seed_rules`, :mod:`.exec_rules`, :mod:`.purity`) reason about
contracts that *span* modules — "this function, defined here, is
submitted as a trial spec over there" — which needs a shared picture of
who defines what and how names travel through imports.

:class:`ProjectContext` is that picture: every parsed module keyed by
dotted name, each with its top-level functions and methods
(:class:`FunctionInfo`), its module-level assignments, and its import
bindings (both ``import x as y`` aliases and ``from m import a as b``
names, with relative imports resolved against the module's own dotted
name).  :meth:`ProjectContext.resolve_name` follows ``from``-import
chains across modules — including one-hop re-exports through package
``__init__`` files — to the :class:`FunctionInfo` a local name actually
denotes, returning ``None`` for anything it cannot prove (external
modules, attribute lookups on instances).  Conservatism contract: a
``None`` resolution makes downstream rules stay silent, never guess.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

from .core import ModuleContext, nodes

if TYPE_CHECKING:
    from .callgraph import CallGraph

__all__ = [
    "FunctionInfo",
    "ModuleSymbols",
    "ProjectContext",
    "build_project",
    "module_name_for",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Guard against pathological ``from a import b`` re-export cycles.
_MAX_RESOLVE_DEPTH = 8


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, walking up while ``__init__.py`` exists.

    ``src/repro/core/montecarlo.py`` maps to ``repro.core.montecarlo``;
    a package ``__init__.py`` maps to the package itself; a loose file
    with no enclosing package is just its stem.  Purely filesystem
    based, so fixture trees in tests get stable names for free.
    """
    path = path.resolve()
    if path.name == "__init__.py":
        parts = [path.parent.name]
        current = path.parent.parent
    else:
        parts = [path.stem]
        current = path.parent
    while (current / "__init__.py").exists() and current.name:
        parts.append(current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    return ".".join(reversed(parts))


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition, addressable project-wide."""

    #: globally unique reference: ``<module dotted name>.<qualname>``
    ref: str
    module: str
    qualname: str
    node: FunctionNode

    @property
    def name(self) -> str:
        """The bare (unqualified) function name."""
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ModuleSymbols:
    """Everything the project analysis knows about one module."""

    name: str
    is_package: bool
    ctx: ModuleContext
    #: qualname -> definition, for top-level functions and class methods
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: module-level ``NAME = <expr>`` bindings (last assignment wins)
    module_assigns: Dict[str, ast.expr] = field(default_factory=dict)
    #: local alias -> dotted module name, from ``import m [as a]``
    import_aliases: Dict[str, str] = field(default_factory=dict)
    #: local name -> (dotted module, original name), from ``from m import o [as a]``
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    def module_level_names(self) -> Dict[str, ast.expr]:
        """Names bound by top-level assignment (module-global state)."""
        return self.module_assigns


def _resolve_relative(
    name: str, is_package: bool, level: int, module: Optional[str]
) -> Optional[str]:
    """Absolute dotted target of a (possibly relative) ``from`` import."""
    if level == 0:
        return module
    parts = name.split(".")
    if is_package:
        keep = len(parts) - (level - 1)
    else:
        keep = len(parts) - level
    if keep < 0:
        return None
    base = parts[:keep]
    if module:
        base = base + module.split(".")
    return ".".join(base) if base else None


def collect_symbols(ctx: ModuleContext, name: Optional[str] = None) -> ModuleSymbols:
    """Build the symbol table of one parsed module."""
    module_name = name if name is not None else module_name_for(ctx.path)
    is_package = ctx.path.name == "__init__.py"
    symbols = ModuleSymbols(name=module_name, is_package=is_package, ctx=ctx)

    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            symbols.functions[stmt.name] = FunctionInfo(
                ref=f"{module_name}.{stmt.name}",
                module=module_name,
                qualname=stmt.name,
                node=stmt,
            )
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{stmt.name}.{item.name}"
                    symbols.functions[qualname] = FunctionInfo(
                        ref=f"{module_name}.{qualname}",
                        module=module_name,
                        qualname=qualname,
                        node=item,
                    )
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    symbols.module_assigns[target.id] = stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                symbols.module_assigns[stmt.target.id] = stmt.value

    for node in nodes(ctx.tree, (ast.Import, ast.ImportFrom)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                symbols.import_aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom):
            source = _resolve_relative(
                module_name, is_package, node.level, node.module
            )
            if source is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                symbols.from_imports[alias.asname or alias.name] = (
                    source,
                    alias.name,
                )
    return symbols


class ProjectContext:
    """All modules of one lint invocation, cross-resolvable."""

    def __init__(self, modules: List[ModuleSymbols]):
        self.modules: Dict[str, ModuleSymbols] = {}
        for module in modules:
            self.modules[module.name] = module
        self.by_path: Dict[str, ModuleSymbols] = {
            module.ctx.display_path: module for module in self.modules.values()
        }
        self._functions: Dict[str, FunctionInfo] = {}
        for module in self.modules.values():
            for info in module.functions.values():
                self._functions[info.ref] = info
        #: Set by :func:`~repro.analysis.callgraph.build_callgraph`.
        self.callgraph: Optional[CallGraph] = None

    # ------------------------------------------------------------------
    def functions(self) -> Iterator[FunctionInfo]:
        """Every known function/method, in stable (ref-sorted) order."""
        for ref in sorted(self._functions):
            yield self._functions[ref]

    def function(self, ref: Optional[str]) -> Optional[FunctionInfo]:
        if ref is None:
            return None
        return self._functions.get(ref)

    # ------------------------------------------------------------------
    def resolve_name(
        self, module: ModuleSymbols, name: str, _depth: int = 0
    ) -> Optional[str]:
        """The project-wide function ref a local ``name`` denotes.

        Checks the module's own definitions first, then follows
        ``from``-import bindings into other project modules, chasing
        re-exports (``from .runner import TrialSpec`` inside a package
        ``__init__``) up to a bounded depth.  ``None`` means "not a
        project-local function as far as we can prove" — external
        modules, instance attributes, dynamically bound names.
        """
        if _depth > _MAX_RESOLVE_DEPTH:
            return None
        info = module.functions.get(name)
        if info is not None:
            return info.ref
        imported = module.from_imports.get(name)
        if imported is not None:
            source_module, original = imported
            target = self.modules.get(source_module)
            if target is not None:
                return self.resolve_name(target, original, _depth + 1)
        return None

    def resolve_call(
        self, module: ModuleSymbols, func: ast.expr
    ) -> Optional[str]:
        """Resolve a call's function expression to a project ref.

        Handles plain names (local defs and ``from``-imports),
        ``alias.attr`` where ``alias`` is an imported project module,
        and ``Class.method`` on a same-module class.  Instance method
        calls (``self.f()``, ``obj.f()``) are unresolvable by design.
        """
        if isinstance(func, ast.Name):
            return self.resolve_name(module, func.id)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = func.value.id
            target_name = module.import_aliases.get(base)
            if target_name is not None and target_name in self.modules:
                return self.resolve_name(self.modules[target_name], func.attr)
            qualname = f"{base}.{func.attr}"
            if qualname in module.functions:
                return module.functions[qualname].ref
            imported = module.from_imports.get(base)
            if imported is not None:
                # ``from pkg import mod`` then ``mod.fn(...)``
                source_module, original = imported
                candidate = f"{source_module}.{original}"
                if candidate in self.modules:
                    return self.resolve_name(self.modules[candidate], func.attr)
        return None


def build_project(contexts: List[ModuleContext]) -> ProjectContext:
    """Symbol tables for every parsed module, as one project."""
    return ProjectContext([collect_symbols(ctx) for ctx in contexts])
