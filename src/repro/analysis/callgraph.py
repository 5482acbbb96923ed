"""Project call graph over resolved function references.

Built on :class:`~repro.analysis.symbols.ProjectContext`: one node per
known function/method, one edge per call whose target the symbol table
can resolve to a project-local definition.  Calls that do not resolve
(stdlib, third-party, instance methods) simply produce no edge — the
graph under-approximates calls into the outside world and
over-approximates nothing, which is the right polarity for
reachability-style rules ("is any impure function reachable from
``trial_key``?"): a missing edge can hide a finding but never invent
one.

Nested ``def``s are attributed to their enclosing top-level function:
their call sites count as the outer function's, matching how purity
leaks in practice (the closure runs under the outer frame).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from .core import nodes
from .symbols import ProjectContext

__all__ = ["CallGraph", "build_callgraph"]


@dataclass
class CallGraph:
    """Directed call edges between project function refs."""

    #: caller ref -> set of resolved callee refs
    edges: Dict[str, Set[str]] = field(default_factory=dict)

    def callees(self, ref: str) -> Set[str]:
        return self.edges.get(ref, set())

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Every ref transitively callable from ``roots`` (roots included)."""
        seen: Set[str] = set()
        frontier: List[str] = [root for root in roots if root in self.edges]
        seen.update(frontier)
        while frontier:
            current = frontier.pop()
            for callee in self.edges.get(current, ()):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return seen

    def path_from(self, roots: Iterable[str], target: str) -> Optional[List[str]]:
        """A shortest root->target call chain, for finding messages."""
        parents: Dict[str, Optional[str]] = {}
        frontier: List[str] = []
        for root in roots:
            if root in self.edges and root not in parents:
                parents[root] = None
                frontier.append(root)
        index = 0
        while index < len(frontier):
            current = frontier[index]
            index += 1
            if current == target:
                chain: List[str] = []
                node: Optional[str] = current
                while node is not None:
                    chain.append(node)
                    node = parents[node]
                return list(reversed(chain))
            for callee in sorted(self.edges.get(current, ())):
                if callee not in parents:
                    parents[callee] = current
                    frontier.append(callee)
        return None


def build_callgraph(project: ProjectContext) -> CallGraph:
    """Resolve every call site in every known function into edges.

    Built once per project and kept on it: every later call returns the
    same graph, so callers must not mutate it.
    """
    if project.callgraph is None:
        project.callgraph = _resolve_edges(project)
    return project.callgraph


def _resolve_edges(project: ProjectContext) -> CallGraph:
    graph = CallGraph()
    for info in project.functions():
        module = project.modules[info.module]
        callees: Set[str] = set()
        for node in nodes(info.node, ast.Call):
            ref = project.resolve_call(module, node.func)
            if ref is not None and ref != info.ref:
                callees.add(ref)
        graph.edges[info.ref] = callees
    return graph
