"""Lint framework core: findings, rules, suppression, baseline, linter.

The design mirrors flake8/ruff at one-tenth scale:

* a :class:`Rule` inspects one parsed module (:class:`ModuleContext`)
  and yields :class:`Finding`\\ s;
* rules self-register in a process-wide :func:`registry` via the
  :func:`register` decorator, when their pack (:data:`RULE_PACKS`) is
  imported on the first read of a registry;
* a finding on a line carrying ``# lint: ignore`` (all rules) or
  ``# lint: ignore[RULE1,RULE2]`` (listed rules) is suppressed at the
  source;
* a :class:`Baseline` file grandfathers known findings by fingerprint
  so the gate can be adopted on a dirty tree and ratcheted down.

Fingerprints are ``rule_id:path:sha1(normalised source line)`` — stable
under unrelated edits that merely shift line numbers.

Two kinds of rule coexist: :class:`Rule` sees one module at a time;
:class:`ProjectRule` (run only under ``--project``) sees the whole
parsed tree at once through a
:class:`~repro.analysis.symbols.ProjectContext` and may relate a
definition in one file to a use in another.  Project findings go
through the same suppression comments and baseline fingerprints as
per-module ones — a fingerprint binds to the flagged *line's content*,
not its number, so cross-module findings survive line drift in either
file.

Rules read the syntax tree through one :class:`NodeIndex` per module,
built by the first query and freed with the tree: :func:`nodes` (the
nodes of some types under a node, in ``ast.walk`` order), :func:`walk`
(all of them) and :func:`scope_order` (a scope's own nodes, in stack
order).  No rule walks a tree itself.
"""

from __future__ import annotations

import ast
import hashlib
import importlib
import json
import re
import weakref
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)
from weakref import WeakKeyDictionary

from .constfold import collect_module_constants

if TYPE_CHECKING:
    from .symbols import ProjectContext

__all__ = [
    "Baseline",
    "Finding",
    "LintReport",
    "Linter",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "SCOPE_NODES",
    "all_project_rules",
    "all_rules",
    "nodes",
    "project_registry",
    "register",
    "register_project",
    "registry",
    "scope_order",
    "walk",
]

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ignore(?:\[(?P<rules>[A-Z0-9,\s]+)\])?")

#: Directory names never descended into when expanding lint paths.
_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".mypy_cache", ".pytest_cache", "build", "dist"}
)

#: The nodes that open a Python scope.  A query rooted at one of them
#: is answered from its module's :class:`NodeIndex`; a query rooted at
#: any other node (an expression, a statement) walks that subtree.
SCOPE_NODES = (
    ast.Module,
    ast.ClassDef,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
)

#: A node class, or a tuple of them, as ``isinstance`` takes it.
Kinds = Union[Type[ast.AST], Tuple[Type[ast.AST], ...]]


def _children(node: ast.AST) -> List[ast.AST]:
    """``node``'s direct children, in ``ast.iter_child_nodes`` order."""
    found: List[ast.AST] = []
    for name in node._fields:
        value = getattr(node, name, None)
        if isinstance(value, ast.AST):
            found.append(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.AST):
                    found.append(item)
    return found


def _bfs(root: ast.AST) -> List[ast.AST]:
    """Every node under ``root``, in ``ast.walk`` order, walked afresh."""
    found = [root]
    for node in found:
        found += _children(node)
    return found


#: Stands in for the module in its own index (see :class:`NodeIndex`).
_DETACHED = ast.AST()


class NodeIndex:
    """One breadth-first traversal of a module, kept as flat arrays.

    ``order`` lists the module's nodes in ``ast.walk`` order and
    ``start[i]`` is where node ``i``'s children begin, so they are
    ``order[start[i]:start[i + 1]]``.  A breadth-first walk appends
    siblings together, so the descendants of any node at one depth are
    one contiguous run of ``order``: a subtree's walk is a slice per
    level, and a typed query bisects each level in that type's sorted
    positions.  The stack order of :meth:`scope_order` is derived from
    the same arrays on first use.

    The module itself is not kept (``order[0]`` is a stand-in): the
    registry keys each index weakly by its module, so an index that
    held its module would keep the whole tree alive.  Rules must never
    mutate a tree once it is indexed.
    """

    __slots__ = (
        "order",
        "start",
        "scopes",
        "_types",
        "_typed",
        "_ranks",
        "_by_rank",
        "_spans",
        "_blocks",
        "_block_starts",
        "__weakref__",
    )

    def __init__(self, root: ast.AST):
        order = [root]
        start: "array[int]" = array("i")
        types: Dict[Type[ast.AST], "array[int]"] = {}
        for position, node in enumerate(order):
            start.append(len(order))
            kind = type(node)
            seen = types.get(kind)
            if seen is None:
                seen = types[kind] = array("i")
            seen.append(position)
            order += _children(node)
        start.append(len(order))
        order[0] = _DETACHED
        types[type(root)].pop(0)
        self.order = tuple(order)
        self.start = start
        self._types = types
        self._typed: Dict[Kinds, "array[int]"] = {}
        #: Every scope node below the module -> its position.
        self.scopes: Dict[ast.AST, int] = {
            order[position]: position
            for kind in SCOPE_NODES
            for position in types.get(kind, ())
        }
        self._ranks: Optional["array[int]"] = None
        self._by_rank: Dict[Kinds, Tuple["array[int]", "array[int]"]] = {}
        #: Scope position -> ``(first, end)``, the ranks of its descendants.
        self._spans: Dict[int, Tuple[int, int]] = {}
        #: Those scope positions, by first rank, and their first ranks.
        self._blocks: List[int] = []
        self._block_starts: List[int] = []

    # -- ast.walk order ---------------------------------------------------
    def _levels(self, position: int) -> Iterator[Tuple[int, int]]:
        """``(lo, hi)``: the runs of ``order`` that hold ``position``'s
        descendants, one per depth."""
        start = self.start
        lo, hi = start[position], start[position + 1]
        while lo < hi:
            yield lo, hi
            lo, hi = start[lo], start[hi]

    def _positions(self, kinds: Kinds) -> "array[int]":
        """Sorted positions of the nodes that are instances of ``kinds``."""
        found = self._typed.get(kinds)
        if found is None:
            runs = [
                positions
                for kind, positions in self._types.items()
                if issubclass(kind, kinds)
            ]
            if len(runs) == 1:
                found = runs[0]
            else:
                found = array("i", sorted(chain.from_iterable(runs)))
            self._typed[kinds] = found
        return found

    def nodes(self, root: ast.AST, position: int, kinds: Kinds) -> List[ast.AST]:
        """The walk from ``root``, found at ``position``, kept to ``kinds``."""
        order = self.order
        found = [root] if isinstance(root, kinds) else []
        if kinds is ast.AST:
            for lo, hi in self._levels(position):
                found += order[lo:hi]
            return found
        positions = self._positions(kinds)
        if position == 0:
            found += [order[at] for at in positions]
            return found
        for lo, hi in self._levels(position):
            first = bisect_left(positions, lo)
            last = bisect_left(positions, hi, first)
            found += [order[at] for at in positions[first:last]]
        return found

    # -- stack order -------------------------------------------------------
    def _build_ranks(self) -> "array[int]":
        """Each node's rank in the order a stack walk from the module
        yields them.

        The walk pops a node, yields its children and pushes them, so
        the subtree of a node's last child comes before its first
        child's.  A scope's descendants hold one contiguous run of ranks;
        ``_spans`` and ``_blocks`` record each run.
        """
        start = self.start.tolist()
        scope_at = set(self.scopes.values())
        stack_order: List[int] = []
        firsts: Dict[int, int] = {}
        stack = [0]
        pop, push, extend = stack.pop, stack.extend, stack_order.extend
        while stack:
            parent = pop()
            lo, hi = start[parent], start[parent + 1]
            if lo == hi:
                continue
            if parent in scope_at:
                firsts[parent] = len(stack_order)
            extend(range(lo, hi))
            push(range(lo, hi))
        ranks: "array[int]" = array("i", [0]) * len(start)
        for rank, position in enumerate(stack_order):
            ranks[position] = rank
        for position, first in firsts.items():
            size = sum(hi - lo for lo, hi in self._levels(position))
            self._spans[position] = (first, first + size)
        self._blocks = sorted(self._spans, key=firsts.__getitem__)
        self._block_starts = [firsts[position] for position in self._blocks]
        self._ranks = ranks
        return ranks

    def _ranked(self, kinds: Kinds) -> Tuple["array[int]", "array[int]"]:
        """The ranks of the nodes of ``kinds``, sorted, and their positions."""
        found = self._by_rank.get(kinds)
        if found is None:
            ranks = self._ranks
            if ranks is None:
                ranks = self._build_ranks()
            pairs = sorted((ranks[at], at) for at in self._positions(kinds))
            found = (
                array("i", [rank for rank, _ in pairs]),
                array("i", [at for _, at in pairs]),
            )
            self._by_rank[kinds] = found
        return found

    def scope_order(self, position: int, closed: Kinds, kinds: Kinds) -> List[ast.AST]:
        """The nodes under ``position`` in stack order, kept to ``kinds``.

        A ``closed`` node is yielded but its subtree is not: the runs of
        the outermost ``closed`` nodes are cut out of this one.
        """
        ranks, positions = self._ranked(kinds)
        if position == 0:
            first, end = 0, len(self.order) - 1
        else:
            first, end = self._spans.get(position, (0, 0))
        order, blocks, starts = self.order, self._blocks, self._block_starts
        runs: List[Tuple[int, int]] = []
        index = bisect_right(starts, first)
        while index < len(blocks) and starts[index] < end:
            inner = blocks[index]
            if isinstance(order[inner], closed):
                lo, hi = self._spans[inner]
                runs.append((first, lo))
                first = hi
                index = bisect_left(starts, hi, index)
            else:
                index += 1
        runs.append((first, end))
        found: List[ast.AST] = []
        for lo, hi in runs:
            low = bisect_left(ranks, lo)
            found += [order[at] for at in positions[low : bisect_left(ranks, hi, low)]]
        return found


#: Module -> its index, built by the first query that needs it.
_INDEXES: "WeakKeyDictionary[ast.AST, NodeIndex]" = WeakKeyDictionary()
#: The index that answered the last scope lookup, tried first.
_last: "Optional[weakref.ReferenceType[NodeIndex]]" = None


def _index_of(node: ast.AST) -> Tuple[Optional[NodeIndex], int]:
    """The index holding ``node`` as a query root, and its position.

    A module is indexed by its first query.  A nested scope is found in
    the index of its module; any other node, or a scope whose module was
    never queried, has none.
    """
    global _last
    if type(node) is ast.Module:
        index = _INDEXES.get(node)
        if index is None:
            index = _INDEXES[node] = NodeIndex(node)
        _last = weakref.ref(index)
        return index, 0
    if not isinstance(node, SCOPE_NODES):
        return None, 0
    index = _last() if _last is not None else None
    if index is not None:
        position = index.scopes.get(node)
        if position is not None:
            return index, position
    for index in _INDEXES.values():
        position = index.scopes.get(node)
        if position is not None:
            _last = weakref.ref(index)
            return index, position
    return None, 0


def walk(node: ast.AST) -> List[ast.AST]:
    """Every node under ``node``, in ``ast.walk``'s breadth-first order."""
    return nodes(node, ast.AST)


def nodes(node: ast.AST, kinds: Kinds) -> List[Any]:
    """The nodes of :func:`walk` that are instances of ``kinds``.

    Under a scope node the index answers without visiting the other
    nodes, so a rule asks for the one or two node types it inspects.
    Under any other node the (small) subtree is walked afresh.
    """
    index, position = _index_of(node)
    if index is None:
        return [found for found in _bfs(node) if isinstance(found, kinds)]
    return index.nodes(node, position, kinds)


def scope_order(node: ast.AST, closed: Kinds, kinds: Kinds = ast.AST) -> List[Any]:
    """The nodes under ``node`` that a stack walk yields, of ``kinds``.

    The walk pops a node and yields its children, then pushes them;
    it yields a ``closed`` child (a nested function, say) but never
    pushes it, so its subtree is left out.  A root no index holds gets
    an index of its own for this one query.
    """
    index, position = _index_of(node)
    if index is None:
        index, position = NodeIndex(node), 0
    return index.scope_order(position, closed, kinds)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    snippet: str

    def fingerprint(self) -> str:
        """Line-number-independent identity used by the baseline."""
        digest = hashlib.sha1(self.snippet.strip().encode("utf-8")).hexdigest()[:16]
        return f"{self.rule_id}:{self.path}:{digest}"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint(),
        }


class ModuleContext:
    """Everything a rule may want to know about one module."""

    def __init__(self, path: Path, source: str, tree: ast.Module, display_path: str):
        self.path = path
        self.source = source
        self.tree = tree
        #: Path as reported in findings (relative to CWD when possible).
        self.display_path = display_path
        self.lines: List[str] = source.splitlines()
        #: Constant-folded module-level integer constants (``NAME = 16``,
        #: ``MAX = (1 << BITS) - 1``, ...), for width cross-checking.
        self.constants: Dict[str, int] = collect_module_constants(tree)

    @cached_property
    def _import_aliases(self) -> Dict[str, Set[str]]:
        aliases: Dict[str, Set[str]] = {}
        for node in nodes(self.tree, ast.Import):
            for alias in node.names:
                aliases.setdefault(alias.name, set()).add(alias.asname or alias.name)
        return aliases

    @cached_property
    def _from_import_names(self) -> Dict[str, Dict[str, str]]:
        names: Dict[str, Dict[str, str]] = {}
        for node in nodes(self.tree, ast.ImportFrom):
            if node.module is not None:
                imported = names.setdefault(node.module, {})
                for alias in node.names:
                    imported[alias.asname or alias.name] = alias.name
        return names

    def module_aliases(self, module: str) -> AbstractSet[str]:
        """Names (anywhere in the file) bound to ``module`` by ``import``."""
        return self._import_aliases.get(module, frozenset())

    def from_imports(self, module: str) -> Mapping[str, str]:
        """Local name -> original name for ``from <module> import ...``."""
        return self._from_import_names.get(module, {})

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def in_packages(self, names: Iterable[str]) -> bool:
        """Whether any path component matches ``names``.

        Used to scope rules to simulation code (``sim``, ``core``,
        ``radio``, ...).  Purely path-based by design: fixture trees in
        tests opt in by directory naming.
        """
        wanted = set(names)
        return any(part in wanted for part in self.path.parts)

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule_id=rule.rule_id,
            path=self.display_path,
            line=int(lineno),
            col=int(col),
            message=message,
            snippet=self.source_line(int(lineno)),
        )


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id`` (stable, e.g. ``DET001``) and
    ``description`` and implement :meth:`check`.  ``level`` is the
    SARIF severity (``"error"``/``"warning"``/``"note"``) and
    ``help_anchor`` an anchor into ``docs/static-analysis.md`` — both
    feed the SARIF rule catalogue in :mod:`.sarif`.
    """

    rule_id: str = ""
    description: str = ""
    level: str = "error"
    help_anchor: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.rule_id}>"


_REGISTRY: Dict[str, Type[Rule]] = {}

#: The rule-pack modules of this package.  Importing one registers its
#: rules; the registry readers below import them all, so importing the
#: framework (or :mod:`.sanitizer.runtime`, under the simulation kernel)
#: loads no rule.
RULE_PACKS = (
    "determinism",
    "rngstreams",
    "wire_rules",
    "seed_rules",
    "exec_rules",
    "purity",
    "obs_rules",
    "flow_rules",
    "range_rules",
)


def _load_rule_packs() -> None:
    for pack in RULE_PACKS:
        importlib.import_module(f"{__package__}.{pack}")


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add ``cls`` to the global rule registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY and _REGISTRY[cls.rule_id] is not cls:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def registry() -> Dict[str, Type[Rule]]:
    """A copy of the rule registry (id -> rule class)."""
    _load_rule_packs()
    return dict(_REGISTRY)


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    _load_rule_packs()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


class ProjectRule:
    """Base class for rules that inspect the whole project at once.

    Subclasses implement :meth:`check_project` over a
    :class:`~repro.analysis.symbols.ProjectContext` and emit findings
    whose ``path`` names the module the finding anchors to — that is
    where suppression comments and baseline fingerprints apply.
    ``level``/``help_anchor`` feed the SARIF catalogue exactly as on
    :class:`Rule`.
    """

    rule_id: str = ""
    description: str = ""
    level: str = "error"
    help_anchor: str = ""

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, project: "ProjectContext", module_path: str, node: ast.AST, message: str
    ) -> Finding:
        """A finding anchored to ``node`` inside the module at ``module_path``."""
        module = project.by_path[module_path]
        lineno = int(getattr(node, "lineno", 1))
        return Finding(
            rule_id=self.rule_id,
            path=module_path,
            line=lineno,
            col=int(getattr(node, "col_offset", 0)),
            message=message,
            snippet=module.ctx.source_line(lineno),
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.rule_id}>"


_PROJECT_REGISTRY: Dict[str, Type[ProjectRule]] = {}


def register_project(cls: Type[ProjectRule]) -> Type[ProjectRule]:
    """Class decorator: add ``cls`` to the project-rule registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"rule id {cls.rule_id} already used by a module rule")
    if cls.rule_id in _PROJECT_REGISTRY and _PROJECT_REGISTRY[cls.rule_id] is not cls:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _PROJECT_REGISTRY[cls.rule_id] = cls
    return cls


def project_registry() -> Dict[str, Type[ProjectRule]]:
    """A copy of the project-rule registry (id -> rule class)."""
    _load_rule_packs()
    return dict(_PROJECT_REGISTRY)


def all_project_rules() -> List[ProjectRule]:
    """Fresh instances of every registered project rule, sorted by id."""
    _load_rule_packs()
    return [_PROJECT_REGISTRY[rule_id]() for rule_id in sorted(_PROJECT_REGISTRY)]


class Baseline:
    """Grandfathered findings, keyed by fingerprint with counts.

    The committed file lets the CI gate go green on a tree with known,
    triaged debt: each entry tolerates up to ``count`` findings with
    that fingerprint.  Fixing a finding and regenerating the baseline
    ratchets the debt down; *new* findings are never masked.
    """

    VERSION = 1

    def __init__(self, entries: Optional[Dict[str, int]] = None):
        self.entries: Dict[str, int] = dict(entries or {})

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        data = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(data, dict) or data.get("version") != cls.VERSION:
            raise ValueError(f"{path}: not a version-{cls.VERSION} lint baseline")
        raw = data.get("entries", {})
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: malformed baseline entries")
        entries: Dict[str, int] = {}
        for key, count in raw.items():
            entries[str(key)] = int(count)
        return cls(entries)

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        entries: Dict[str, int] = {}
        for finding in findings:
            fp = finding.fingerprint()
            entries[fp] = entries.get(fp, 0) + 1
        return cls(entries)

    def dump(self, path: Path) -> None:
        payload = {
            "version": self.VERSION,
            "entries": {k: self.entries[k] for k in sorted(self.entries)},
        }
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    def filter(self, findings: Sequence[Finding]) -> List[Finding]:
        """Findings not covered by the baseline, preserving order."""
        remaining = dict(self.entries)
        kept: List[Finding] = []
        for finding in findings:
            fp = finding.fingerprint()
            if remaining.get(fp, 0) > 0:
                remaining[fp] -= 1
            else:
                kept.append(finding)
        return kept


def _suppressed_rules(line: str) -> Optional[frozenset[str]]:
    """Rule ids suppressed by ``line``'s trailing comment.

    Returns ``None`` for no suppression, an empty set for a blanket
    ``# lint: ignore``, or the listed rule ids.
    """
    match = _SUPPRESS_RE.search(line)
    if match is None:
        return None
    listed = match.group("rules")
    if listed is None:
        return frozenset()
    return frozenset(part.strip() for part in listed.split(",") if part.strip())


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    #: ``(path, message)`` for files that could not be parsed.
    errors: List[Tuple[str, str]] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors


class Linter:
    """Runs a set of rules over files and directories."""

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        baseline: Optional[Baseline] = None,
        project_rules: Optional[Sequence[ProjectRule]] = None,
    ):
        self.rules: List[Rule] = list(rules) if rules is not None else all_rules()
        self.baseline = baseline
        self.project_rules: List[ProjectRule] = (
            list(project_rules) if project_rules is not None else all_project_rules()
        )
        #: The :class:`ProjectContext` built by the most recent
        #: project-mode run; lets callers (the CLI's proof ledger)
        #: reuse the parsed tree instead of re-reading every file.
        self.last_project: Optional[ProjectContext] = None

    # ------------------------------------------------------------------
    def lint_paths(self, paths: Sequence[Path], project: bool = False) -> LintReport:
        report = LintReport()
        contexts: List[ModuleContext] = []
        for path in self._expand(paths):
            report.files_checked += 1
            ctx = self._lint_file(path, report)
            if ctx is not None:
                contexts.append(ctx)
        if project and contexts:
            self._lint_project(contexts, report)
        if self.baseline is not None:
            report.findings = self.baseline.filter(report.findings)
        return report

    def _lint_project(
        self, contexts: List[ModuleContext], report: LintReport
    ) -> None:
        from .symbols import build_project

        project_ctx = build_project(contexts)
        self.last_project = project_ctx
        by_path: Dict[str, ModuleContext] = {
            ctx.display_path: ctx for ctx in contexts
        }
        collected: List[Finding] = []
        for rule in self.project_rules:
            for finding in rule.check_project(project_ctx):
                ctx = by_path.get(finding.path)
                line = ctx.source_line(finding.line) if ctx is not None else ""
                suppressed = _suppressed_rules(line)
                if suppressed is not None and (
                    not suppressed or finding.rule_id in suppressed
                ):
                    continue
                collected.append(finding)
        collected.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        report.findings.extend(collected)

    def _expand(self, paths: Sequence[Path]) -> Iterator[Path]:
        """Every ``.py`` file under ``paths``, each once, in first-seen order.

        Overlapping arguments (``DIR DIR/pkg/m.py``) name one file
        twice; linting it twice would double its findings and spend a
        baseline entry on the copy.
        """
        seen: Set[Path] = set()
        for path in self._python_files(paths):
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield path

    @staticmethod
    def _python_files(paths: Sequence[Path]) -> Iterator[Path]:
        for path in paths:
            if path.is_dir():
                for candidate in sorted(path.rglob("*.py")):
                    if not _SKIP_DIRS.intersection(candidate.parts):
                        yield candidate
            elif path.suffix == ".py":
                yield path

    def _display_path(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(Path.cwd()).as_posix()
        except ValueError:
            return path.as_posix()

    def _lint_file(self, path: Path, report: LintReport) -> Optional[ModuleContext]:
        display = self._display_path(path)
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, ValueError) as exc:
            report.errors.append((display, str(exc)))
            return None
        ctx = ModuleContext(path=path, source=source, tree=tree, display_path=display)
        for rule in self.rules:
            for finding in rule.check(ctx):
                suppressed = _suppressed_rules(ctx.source_line(finding.line))
                if suppressed is not None and (
                    not suppressed or finding.rule_id in suppressed
                ):
                    continue
                report.findings.append(finding)
        return ctx
