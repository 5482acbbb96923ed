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

Rules walk the syntax tree through :func:`walk`, which keeps each
scope's node order on the scope node itself: every rule shares one
walk per scope, and the cache is freed with the tree.
"""

from __future__ import annotations

import ast
import hashlib
import importlib
import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
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
    TypeVar,
)

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
    "cached_walk",
    "project_registry",
    "register",
    "register_project",
    "registry",
    "walk",
]

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ignore(?:\[(?P<rules>[A-Z0-9,\s]+)\])?")

#: Directory names never descended into when expanding lint paths.
_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".mypy_cache", ".pytest_cache", "build", "dist"}
)

#: Node types whose walks are memoised on the node: the scope roots
#: rules iterate over again and again.
SCOPE_NODES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

NodeT = TypeVar("NodeT", bound=ast.AST)


def cached_walk(
    node: ast.AST, attr: str, build: Callable[[ast.AST], Iterable[NodeT]]
) -> Iterable[NodeT]:
    """``build(node)``, kept as a tuple in ``node.<attr>`` for scope nodes.

    The cache lives on the tree, so it dies with it.  It is only valid
    while the tree is unchanged: rules must never mutate the AST.
    """
    if not isinstance(node, SCOPE_NODES):
        return build(node)
    cached: Optional[Tuple[NodeT, ...]] = getattr(node, attr, None)
    if cached is None:
        cached = tuple(build(node))
        setattr(node, attr, cached)
    return cached


def walk(node: ast.AST) -> Iterable[ast.AST]:
    """Every node under ``node``, in ``ast.walk``'s breadth-first order.

    Memoised on :data:`SCOPE_NODES` (see :func:`cached_walk`); any
    other node is walked afresh.
    """
    return cached_walk(node, "_walk", ast.walk)


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
        for node in walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    aliases.setdefault(alias.name, set()).add(
                        alias.asname or alias.name
                    )
        return aliases

    @cached_property
    def _from_import_names(self) -> Dict[str, Dict[str, str]]:
        names: Dict[str, Dict[str, str]] = {}
        for node in walk(self.tree):
            if isinstance(node, ast.ImportFrom) and node.module is not None:
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
