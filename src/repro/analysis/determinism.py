"""Rule pack 1 — determinism.

The simulator's reproducibility contract (:mod:`repro.sim.rng`): every
stochastic draw comes from a named, seeded stream.  These rules catch
the ways that contract silently erodes:

========  ==========================================================
DET001    unseeded ``random.Random()`` (e.g. as an ``rng or ...``
          default) — different results every process
DET002    calls on the *module-level* shared RNG (``random.random()``,
          ``random.choice(...)``, ...) — cross-component coupling and
          unseeded by default
DET003    ``import random`` inside a function body — the signature of
          an ad-hoc, unregistered draw path
DET004    wall-clock reads (``time.time()``, ``datetime.now()``, ...)
          in simulation code, which must only consume ``sim.now``
DET005    iteration over bare ``set`` expressions in simulation code —
          order varies with hash seeding and insertion history
DET006    ad-hoc process management (``multiprocessing``, ``os.fork``,
          ``ProcessPoolExecutor``) outside the execution layer's
          licensed modules — sidesteps the deterministic sharding and
          transport-encoding contract
========  ==========================================================

DET004/DET005 are scoped by path: DET004 to the simulation-facing
packages (``sim``, ``core``, ``radio``, ``aff``, ``apps``,
``topology``), DET005 to the kernel packages (``sim``, ``core``,
``radio``) where event order feeds directly into results.  DET006 is
the inverse: it fires everywhere *except* the explicit allowlist of
process-managing modules under an ``exec`` path component —
``runner.py`` (per-run forked workers) and ``pool.py``.  Other ``exec``
modules get no waiver.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from .core import Finding, ModuleContext, Rule, nodes, register

__all__ = [
    "InlineRandomImportRule",
    "ModuleRandomCallRule",
    "ProcessSpawnRule",
    "SetIterationRule",
    "UnseededRandomRule",
    "WallClockRule",
]

#: Packages whose code runs inside (or feeds) the discrete-event world.
SIM_PACKAGES = frozenset({"sim", "core", "radio", "aff", "apps", "topology"})
#: Kernel packages where iteration order feeds directly into event order.
ORDER_SENSITIVE_PACKAGES = frozenset({"sim", "core", "radio"})

#: ``random`` module functions that consume the hidden global state.
_GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)


@register
class UnseededRandomRule(Rule):
    rule_id = "DET001"
    description = (
        "unseeded random.Random(): pass an explicit seed or a "
        "repro.sim.rng stream (e.g. fallback_stream)"
    )
    help_anchor = "pack-1--determinism-det"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        aliases = ctx.module_aliases("random")
        imported = ctx.from_imports("random")
        for node in nodes(ctx.tree, ast.Call):
            if node.args or node.keywords:
                continue
            func = node.func
            is_random_cls = (
                isinstance(func, ast.Attribute)
                and func.attr in ("Random", "SystemRandom")
                and isinstance(func.value, ast.Name)
                and func.value.id in aliases
            ) or (
                isinstance(func, ast.Name)
                and imported.get(func.id) in ("Random", "SystemRandom")
            )
            if is_random_cls:
                yield ctx.finding(
                    self,
                    node,
                    "unseeded RNG constructed; derive it from a seeded "
                    "stream (see repro.sim.rng.fallback_stream)",
                )


@register
class ModuleRandomCallRule(Rule):
    rule_id = "DET002"
    description = (
        "call on the module-level shared RNG (random.random(), "
        "random.choice(), ...): draw from an injected stream instead"
    )
    help_anchor = "pack-1--determinism-det"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        aliases = ctx.module_aliases("random")
        imported = ctx.from_imports("random")
        for node in nodes(ctx.tree, ast.Call):
            func = node.func
            hit = None
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _GLOBAL_RANDOM_FUNCS
                and isinstance(func.value, ast.Name)
                and func.value.id in aliases
            ):
                hit = f"random.{func.attr}"
            elif (
                isinstance(func, ast.Name)
                and imported.get(func.id) in _GLOBAL_RANDOM_FUNCS
            ):
                hit = f"random.{imported[func.id]}"
            if hit is not None:
                yield ctx.finding(
                    self,
                    node,
                    f"{hit}() draws from the hidden module-level RNG; "
                    "route the draw through an injected random.Random",
                )


@register
class InlineRandomImportRule(Rule):
    rule_id = "DET003"
    description = "import of the random module inside a function body"
    level = "warning"
    help_anchor = "pack-1--determinism-det"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for outer in nodes(ctx.tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in nodes(outer, (ast.Import, ast.ImportFrom)):
                is_inline_import = (
                    isinstance(node, ast.Import)
                    and any(alias.name == "random" for alias in node.names)
                ) or (isinstance(node, ast.ImportFrom) and node.module == "random")
                if is_inline_import:
                    yield ctx.finding(
                        self,
                        node,
                        "inline 'import random' hides a draw path from the "
                        "seeded-stream audit; hoist it to module scope and "
                        "inject an rng",
                    )


@register
class WallClockRule(Rule):
    rule_id = "DET004"
    description = (
        "wall-clock read (time.time(), datetime.now(), ...) in "
        "simulation code, which must only consume sim.now"
    )
    help_anchor = "pack-1--determinism-det"

    _TIME_FUNCS = frozenset({"time", "time_ns", "monotonic", "perf_counter"})
    _DATETIME_METHODS = frozenset({"now", "utcnow", "today"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_packages(SIM_PACKAGES):
            return
        time_aliases = ctx.module_aliases("time")
        time_imported = ctx.from_imports("time")
        dt_module_aliases = ctx.module_aliases("datetime")
        dt_class_names = {
            local
            for local, orig in ctx.from_imports("datetime").items()
            if orig in ("datetime", "date")
        }
        for node in nodes(ctx.tree, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._TIME_FUNCS
                and isinstance(func.value, ast.Name)
                and func.value.id in time_aliases
            ):
                yield ctx.finding(
                    self, node, f"time.{func.attr}() read in simulation code"
                )
                continue
            if (
                isinstance(func, ast.Name)
                and time_imported.get(func.id) in self._TIME_FUNCS
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"time.{time_imported[func.id]}() read in simulation code",
                )
                continue
            if isinstance(func, ast.Attribute) and func.attr in self._DATETIME_METHODS:
                root = func.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and (
                    root.id in dt_module_aliases or root.id in dt_class_names
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f"datetime .{func.attr}() read in simulation code",
                    )


@register
class SetIterationRule(Rule):
    rule_id = "DET005"
    description = (
        "iteration over a bare set in order-sensitive simulation code; "
        "wrap in sorted(...) to pin the order"
    )
    help_anchor = "pack-1--determinism-det"

    _COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_packages(ORDER_SENSITIVE_PACKAGES):
            return
        for node in nodes(ctx.tree, (ast.For, ast.AsyncFor) + self._COMPREHENSIONS):
            iters: List[Tuple[ast.AST, ast.expr]] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append((node, node.iter))
            else:
                iters.extend((gen.iter, gen.iter) for gen in node.generators)
            for report_node, iter_expr in iters:
                if self._is_bare_set(iter_expr):
                    yield ctx.finding(
                        self,
                        report_node,
                        "iterating a set yields hash-order, which varies "
                        "across runs; iterate sorted(...) instead",
                    )

    @staticmethod
    def _is_bare_set(expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in ("set", "frozenset")
        )


@register
class ProcessSpawnRule(Rule):
    rule_id = "DET006"
    description = (
        "process management (multiprocessing, os.fork, "
        "ProcessPoolExecutor) outside repro.exec; route parallelism "
        "through repro.exec.TrialRunner"
    )
    help_anchor = "pack-1--determinism-det"

    _OS_FORK_FUNCS = frozenset({"fork", "forkpty"})

    #: The only modules licensed to manage processes: the per-run fork
    #: path in ``runner.py``.  An explicit allowlist, not a package-wide
    #: waiver — new modules under ``exec`` (keys, cache, telemetry, ...)
    #: must not fork either.  ``pool.py`` stays listed because the
    #: frozen perfbench lint corpus still contains ``exec/pool.py``.
    ALLOWED_MODULES = frozenset({"runner.py", "pool.py"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.in_packages({"exec"}) and ctx.path.name in self.ALLOWED_MODULES:
            return
        for node in nodes(ctx.tree, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.name
                    if name == "multiprocessing" or name.startswith(
                        "multiprocessing."
                    ):
                        yield ctx.finding(
                            self,
                            node,
                            f"import of {name}: spawn workers via "
                            "repro.exec.TrialRunner instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "multiprocessing" or module.startswith(
                    "multiprocessing."
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f"import from {module}: spawn workers via "
                        "repro.exec.TrialRunner instead",
                    )
                elif module == "concurrent.futures" and any(
                    alias.name == "ProcessPoolExecutor" for alias in node.names
                ):
                    yield ctx.finding(
                        self,
                        node,
                        "ProcessPoolExecutor import: spawn workers via "
                        "repro.exec.TrialRunner instead",
                    )
        os_aliases = ctx.module_aliases("os")
        os_imported = ctx.from_imports("os")
        futures_aliases = ctx.module_aliases("concurrent.futures")
        for node in nodes(ctx.tree, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._OS_FORK_FUNCS
                and isinstance(func.value, ast.Name)
                and func.value.id in os_aliases
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"os.{func.attr}() outside repro.exec: forked children "
                    "bypass the deterministic transport contract",
                )
            elif (
                isinstance(func, ast.Name)
                and os_imported.get(func.id) in self._OS_FORK_FUNCS
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"os.{os_imported[func.id]}() outside repro.exec: forked "
                    "children bypass the deterministic transport contract",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "ProcessPoolExecutor"
                and isinstance(func.value, ast.Name)
                and func.value.id in futures_aliases
            ):
                yield ctx.finding(
                    self,
                    node,
                    "ProcessPoolExecutor outside repro.exec: spawn workers "
                    "via repro.exec.TrialRunner instead",
                )
