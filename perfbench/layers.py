"""The benchmark's metric catalogue and the layer -> workload map.

``END_TO_END`` and ``PER_LAYER`` list every metric the benchmark prints
(untraced and traced runs respectively).  ``WORKLOADS`` records why each
workload exists and which layers it must (and must not) exercise; the
traced run checks this, so a workload that stops exercising what it was
chosen for fails loudly.  Which end-to-end metric each layer should
move, and where, is the table in README.md.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit, better, bound): bound is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("work_per_s", "1/s", "higher", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("op_tail_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

#: rule modules and project rules of the analysis layer at the pinned
#: commit; rules added later book to the ``other`` buckets.
RULE_MODULES = ("determinism", "flow_rules", "obs_rules", "rngstreams", "wire_rules")
PROJECT_RULES = (
    "EXEC001",
    "EXEC002",
    "EXEC003",
    "PURE001",
    "RANGE001",
    "RANGE002",
    "SEED001",
    "SEED002",
    "WIRE004",
)

PER_LAYER: List[Tuple[str, str]] = [
    ("sim.engine.events", "count"),
    ("sim.engine.self_s", "s"),
    ("radio.medium.transmit.calls", "count"),
    ("radio.medium.transmit.self_s", "s"),
    ("radio.send.self_s", "s"),
    ("radio.deliveries", "count"),
    ("radio.rf_drops", "count"),
    ("aff.driver.send.calls", "count"),
    ("aff.driver.send.self_s", "s"),
    ("aff.fragmenter.self_s", "s"),
    ("aff.wire.encode.self_s", "s"),
    ("aff.wire.decode.calls", "count"),
    ("aff.wire.decode.self_s", "s"),
    ("aff.reassembler.accept.calls", "count"),
    ("aff.reassembler.accept.self_s", "s"),
    ("aff.delivered_per_intro", "ratio"),
    ("core.selector.select.self_s", "s"),
    ("core.selector.observe.calls", "count"),
    ("core.selector.observe.self_s", "s"),
    ("core.transactions.begin.calls", "count"),
    ("core.transactions.self_s", "s"),
    ("harness.trial.self_s", "s"),
    ("flow.simulate.self_s", "s"),
    ("flow.window_plan.self_s", "s"),
    ("flow.sample_window.calls", "count"),
    ("flow.sample_window.self_s", "s"),
    ("flow.frame_window.calls", "count"),
    ("flow.frame_window.self_s", "s"),
    ("flow.frame_txn_share", "ratio"),
    ("flow.window_range.self_s", "s"),
    ("flow.shard.partition.self_s", "s"),
    ("flow.shard.merge.self_s", "s"),
    ("exec.tasks", "count"),
    ("exec.failures", "count"),
    ("exec.run.self_s", "s"),
    ("exec.task_busy_s", "s"),
    ("exec.dispatch_s", "s"),
    ("exec.parallel_efficiency", "ratio"),
    ("analysis.files", "count"),
    ("analysis.parse.self_s", "s"),
    *[(f"analysis.rules.{m}.self_s", "s") for m in RULE_MODULES + ("other",)],
    ("analysis.project.build.self_s", "s"),
    *[(f"analysis.project_rules.{r}.self_s", "s") for r in PROJECT_RULES + ("other",)],
    ("analysis.ledger.self_s", "s"),
    ("unaccounted_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

#: span -> the self-time metric it books to, where that is not "<span>.self_s"
_SELF_ALIASES = {
    "core.transactions.begin": "core.transactions.self_s",
    "core.transactions.end": "core.transactions.self_s",
}

#: spans whose call counts are reported, as "<span>.calls"
COUNTED_SPANS = (
    "radio.medium.transmit",
    "aff.driver.send",
    "aff.wire.decode",
    "aff.reassembler.accept",
    "core.selector.observe",
    "core.transactions.begin",
    "flow.sample_window",
    "flow.frame_window",
)

_ALL = "sim radio aff core harness flow exec analysis".split()


def _others(*main: str) -> Tuple[str, ...]:
    return tuple(layer for layer in _ALL if layer not in main)


#: per workload: why it was chosen, the layers that must carry its
#: self time, the layers it bypasses (which must book ~nothing) and,
#: where the executor only wraps the work, the most ``exec.dispatch_s``
#: may take of the traced wall.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "fig4_discrete": {
        "why": (
            "Paper's Figure-4 testbed run serially; sim.engine, radio, aff and "
            "core selectors do the work; predicted flat on flow, exec dispatch "
            "and analysis"
        ),
        "main": ("sim", "radio", "aff", "core", "harness"),
        "bypass": ("flow", "analysis"),
        "max_dispatch_share": 0.02,
    },
    "hybrid_burst": {
        "why": (
            "20k-node hybrid flow run whose burst windows replay through "
            "core.transactions at density ~264; flow and core do the work, no "
            "sim, radio, aff or exec"
        ),
        "main": ("flow", "core"),
        "bypass": _others("flow", "core"),
        "max_dispatch_share": 0.02,
    },
    "flow_sharded": {
        "why": (
            "1M-node flow run sharded over 2 forked workers; the executor's "
            "fork, pipe and JSON path plus the NumPy window sampler; no "
            "discrete core"
        ),
        "main": ("flow", "exec"),
        "bypass": _others("flow", "exec"),
    },
    "lint_tree": {
        "why": (
            "In-process lint --project plus proof ledger over a frozen copy of "
            "src/; repro.analysis parse, rules and range engine do all the "
            "work, no simulation layer"
        ),
        "main": ("analysis",),
        "bypass": _others("analysis"),
    },
}

def self_metric(span: str) -> str:
    """The ``*.self_s`` metric a span's self time is reported under."""
    if span in _SELF_ALIASES:
        return _SELF_ALIASES[span]
    for prefix, known in (
        ("analysis.rules.", RULE_MODULES),
        ("analysis.project_rules.", PROJECT_RULES),
    ):
        if span.startswith(prefix) and span[len(prefix):] not in known:
            return f"{prefix}other.self_s"
    return f"{span}.self_s"


def layer_of(metric: str) -> str:
    return metric.split(".", 1)[0]
