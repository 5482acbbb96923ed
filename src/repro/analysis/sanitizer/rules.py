"""Rule descriptors for the dynamic sanitizer findings (SAN001-SAN004).

These are ordinary :class:`repro.analysis.core.Rule` subclasses so the
SARIF catalogue, ``--list-rules``, severity levels, and help anchors
all work unchanged — but they are **not** ``@register``-ed: a SAN rule
has no AST ``check()`` (its :meth:`~repro.analysis.core.Rule.check`
yields nothing), findings come from the detectors in :mod:`.detectors`
observing an instrumented run.  Keeping them out of the static
registry means ``python -m repro.lint`` without ``--sanitize`` is
byte-identical to the pre-DetSan behaviour.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from ..core import Finding, ModuleContext, Rule

__all__ = ["SANITIZER_RULES", "SanitizerRule", "sanitizer_rules_by_id"]

_DETSAN_ANCHOR = "dynamic-analysis-detsan"


class SanitizerRule(Rule):
    """A rule whose findings are produced by runtime detectors."""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())


class UnregisteredDrawRule(SanitizerRule):
    rule_id = "SAN001"
    description = (
        "RNG draw outside any registered repro.sim.rng stream, or one "
        "stream drawn from divergent call-site sets across processes"
    )
    help_anchor = _DETSAN_ANCHOR


class TieOrderRule(SanitizerRule):
    rule_id = "SAN002"
    description = (
        "scenario result or canonical trace changes when same-timestamp "
        "events are deterministically shuffled — a real tie-order "
        "dependency in the event queue"
    )
    help_anchor = _DETSAN_ANCHOR


class HashOrderRule(SanitizerRule):
    rule_id = "SAN003"
    description = (
        "scenario result or canonical trace differs across "
        "PYTHONHASHSEED values — iteration order of a hash-keyed "
        "container is leaking into results"
    )
    help_anchor = _DETSAN_ANCHOR


class StateDriftRule(SanitizerRule):
    rule_id = "SAN004"
    description = (
        "designated module state (RNG fallback counters, the global "
        "random instance) drifted across a trial call or a fork "
        "boundary"
    )
    help_anchor = _DETSAN_ANCHOR


#: Fresh instances, sorted by id — the dynamic analog of ``all_rules()``.
SANITIZER_RULES: List[Rule] = [
    UnregisteredDrawRule(),
    TieOrderRule(),
    HashOrderRule(),
    StateDriftRule(),
]


def sanitizer_rules_by_id() -> Dict[str, Rule]:
    return {rule.rule_id: rule for rule in SANITIZER_RULES}
