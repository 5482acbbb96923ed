"""Deterministic metrics: counters, gauges, fixed-bucket histograms.

The paper's claims are counted claims — collisions per identifier
width, checksum-detected losses, frame escalations — so the metrics
layer is built for *bit-identical aggregation*, not wall-clock
telemetry:

* **counters** are monotone integers (integer addition commutes, so
  merge order across workers cannot change a total);
* **gauges** are integer high-watermarks merged by ``max`` (also
  order-independent);
* **histograms** carry *declared* constant bucket edges and integer
  bucket counts only — no float sums, so there is no float-ordering
  sensitivity anywhere in the registry.

Activation is the metrics part of the one instrumentation slot
(:mod:`repro.instruments`), beside :mod:`.spans`: :func:`collecting`
installs a :class:`MetricsRegistry` for the dynamic extent of a run,
and the module-level :func:`inc` / :func:`gauge_max` / :func:`observe`
hooks are no-ops when no registry is active, so instrumented hot paths
cost one slot read when metrics are off.

Like :mod:`.spans`, this module imports nothing from the rest of the
package at module scope but the slot — the simulation kernel imports
it, and the envelope/exec layers sit *above* the kernel.
Serialization helpers defer their envelope imports to call time.

Snapshots are canonical JSONL (one sorted metric per line between a
header and a footer, same framing discipline as trace envelopes), so
``cmp`` on two snapshot files is a meaningful determinism check; see
``repro metrics {show,export,diff}``.
"""

from __future__ import annotations

import json
import os
import pathlib
from contextlib import contextmanager
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .. import instruments as _slot
from ..util import codec

__all__ = [
    "MetricsReadError",
    "MetricsRegistry",
    "SNAPSHOT_KIND",
    "SNAPSHOT_SCHEMA",
    "active_metrics",
    "collecting",
    "diff_registries",
    "gauge_max",
    "inc",
    "observe",
    "read_snapshot",
    "render_prometheus",
    "write_snapshot",
]

#: Envelope kind stamped into snapshot headers.
SNAPSHOT_KIND = "repro.obs/metrics"

#: Bumped only when the line format changes incompatibly.
SNAPSHOT_SCHEMA = 1

Number = Union[int, float]


class MetricsReadError(Exception):
    """A metrics snapshot could not be parsed."""


def _check_edges(name: str, edges: Sequence[Number]) -> Tuple[Number, ...]:
    """Validate declared histogram edges: finite, strictly increasing."""
    result = tuple(edges)
    if not result:
        raise ValueError(f"histogram {name!r}: bucket edges must be non-empty")
    previous: Optional[Number] = None
    for edge in result:
        if isinstance(edge, bool) or not isinstance(edge, (int, float)):
            raise ValueError(
                f"histogram {name!r}: edge {edge!r} is not a number"
            )
        if isinstance(edge, float) and (edge != edge or edge in (
            float("inf"), float("-inf")
        )):
            raise ValueError(f"histogram {name!r}: edge {edge!r} is not finite")
        if previous is not None and not edge > previous:
            raise ValueError(
                f"histogram {name!r}: edges must be strictly increasing "
                f"({previous!r} >= {edge!r})"
            )
        previous = edge
    return result


class MetricsRegistry:
    """Append-only store of counters, gauges and fixed-edge histograms.

    One name has exactly one kind for the registry's lifetime; re-using
    a counter name as a gauge (or re-declaring a histogram with
    different edges) raises ``ValueError`` instead of silently forking
    the metric.
    """

    def __init__(self) -> None:
        self._kinds: Dict[str, str] = {}
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, int] = {}
        #: name -> (declared edges, per-bucket counts; len(edges)+1 long,
        #: the last bucket is the overflow bucket).
        self._histograms: Dict[str, Tuple[Tuple[Number, ...], List[int]]] = {}

    # -- recording -----------------------------------------------------

    def _claim(self, name: str, kind: str) -> None:
        existing = self._kinds.get(name)
        if existing is None:
            self._kinds[name] = kind
        elif existing != kind:
            raise ValueError(
                f"metric {name!r} is already registered as a "
                f"{existing}, not a {kind}"
            )

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` (a non-negative int) to counter ``name``."""
        if isinstance(amount, bool) or not isinstance(amount, int):
            raise ValueError(f"counter {name!r}: amount must be an int")
        if amount < 0:
            raise ValueError(
                f"counter {name!r}: counters are monotone (amount {amount})"
            )
        self._claim(name, "counter")
        self._counters[name] = self._counters.get(name, 0) + amount

    def gauge_max(self, name: str, value: int) -> None:
        """Raise gauge ``name`` to ``value`` if that is a new high-water."""
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"gauge {name!r}: value must be an int")
        self._claim(name, "gauge")
        current = self._gauges.get(name)
        if current is None or value > current:
            self._gauges[name] = value

    def observe(
        self, name: str, value: Number, edges: Sequence[Number]
    ) -> None:
        """Count ``value`` into histogram ``name`` with declared ``edges``.

        A value lands in the first bucket whose edge is >= the value;
        values above the last edge land in the overflow bucket.  The
        edges are part of the metric's identity: observing with a
        different edge tuple is an error, never a silent re-bucketing.
        """
        self._claim(name, "histogram")
        existing = self._histograms.get(name)
        if existing is None:
            declared = _check_edges(name, edges)
            counts = [0] * (len(declared) + 1)
            self._histograms[name] = (declared, counts)
        else:
            declared, counts = existing
            if tuple(edges) != declared:
                raise ValueError(
                    f"histogram {name!r}: declared edges {declared!r} "
                    f"do not match {tuple(edges)!r}"
                )
        index = len(declared)
        for i, edge in enumerate(declared):
            if value <= edge:
                index = i
                break
        counts[index] += 1

    # -- reading -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._kinds)

    def names(self) -> List[str]:
        return sorted(self._kinds)

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> int:
        return self._gauges.get(name, 0)

    def histogram(
        self, name: str
    ) -> Optional[Tuple[Tuple[Number, ...], List[int]]]:
        entry = self._histograms.get(name)
        if entry is None:
            return None
        edges, counts = entry
        return edges, list(counts)

    def to_json(self) -> Dict[str, Dict[str, Any]]:
        """Canonical JSON table: ``{name: {kind, value | edges+buckets}}``.

        This is the wire form carried in worker result messages and the
        per-line form of snapshot files; :meth:`merge_json` consumes it.
        """
        table: Dict[str, Dict[str, Any]] = {}
        for name in self.names():
            kind = self._kinds[name]
            if kind == "counter":
                table[name] = {"kind": kind, "value": self._counters.get(name, 0)}
            elif kind == "gauge":
                table[name] = {"kind": kind, "value": self._gauges.get(name, 0)}
            else:
                edges, counts = self._histograms[name]
                table[name] = {
                    "kind": kind,
                    "edges": list(edges),  # finite: _check_edges
                    "buckets": list(counts),
                }
        return table

    # -- merging -------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (sum / max / bucketwise sum)."""
        for name, value in other._counters.items():
            self.inc(name, value)
        for name, value in other._gauges.items():
            self.gauge_max(name, value)
        for name, (edges, counts) in other._histograms.items():
            self._merge_histogram(name, edges, counts)

    def merge_json(self, table: Dict[str, Any]) -> None:
        """Fold a :meth:`to_json` table (e.g. from a worker message)."""
        for name in sorted(table):
            entry = table[name]
            if not isinstance(entry, dict):
                raise ValueError(f"metric {name!r}: malformed entry {entry!r}")
            kind = entry.get("kind")
            if kind == "counter":
                self.inc(name, int(entry.get("value", 0)))
            elif kind == "gauge":
                self.gauge_max(name, int(entry.get("value", 0)))
            elif kind == "histogram":
                edges = tuple(entry.get("edges", ()))
                counts = [int(c) for c in entry.get("buckets", ())]
                self._merge_histogram(name, edges, counts)
            else:
                raise ValueError(f"metric {name!r}: unknown kind {kind!r}")

    def _merge_histogram(
        self, name: str, edges: Sequence[Number], counts: Sequence[int]
    ) -> None:
        self._claim(name, "histogram")
        existing = self._histograms.get(name)
        if existing is None:
            declared = _check_edges(name, edges)
            if len(counts) != len(declared) + 1:
                raise ValueError(
                    f"histogram {name!r}: {len(counts)} buckets for "
                    f"{len(declared)} edges"
                )
            self._histograms[name] = (declared, [int(c) for c in counts])
            return
        declared, mine = existing
        if tuple(edges) != declared:
            raise ValueError(
                f"histogram {name!r}: cannot merge edges {tuple(edges)!r} "
                f"into {declared!r}"
            )
        if len(counts) != len(mine):
            raise ValueError(
                f"histogram {name!r}: bucket count mismatch "
                f"({len(counts)} vs {len(mine)})"
            )
        for i, c in enumerate(counts):
            mine[i] += int(c)


# -- activation: the metrics part of the instrumentation slot ----------


def active_metrics() -> Optional[MetricsRegistry]:
    """The registry installed by :func:`collecting`, or ``None``."""
    registry: Optional[MetricsRegistry] = _slot.active().metrics
    return registry


@contextmanager
def collecting(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Install ``registry`` (or a fresh one) for the ``with`` body."""
    installed = registry if registry is not None else MetricsRegistry()
    with _slot.installed(_slot.active()._replace(metrics=installed)):
        yield installed


def inc(name: str, amount: int = 1) -> None:
    """Count into the active registry; no-op when metrics are off."""
    registry = _slot.active().metrics
    if registry is not None:
        registry.inc(name, amount)


def gauge_max(name: str, value: int) -> None:
    """High-watermark into the active registry; no-op when off."""
    registry = _slot.active().metrics
    if registry is not None:
        registry.gauge_max(name, value)


def observe(name: str, value: Number, edges: Sequence[Number]) -> None:
    """Histogram-observe into the active registry; no-op when off."""
    registry = _slot.active().metrics
    if registry is not None:
        registry.observe(name, value, edges)


# -- snapshots ---------------------------------------------------------


def write_snapshot(
    path: Union[str, "os.PathLike[str]"],
    registry: MetricsRegistry,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write a canonical JSONL snapshot; returns the metric count.

    Byte layout: a header line, one line per metric in sorted-name
    order, a footer with the metric count.  Two runs that produced the
    same counts produce the same bytes, so snapshot files can be
    compared with ``cmp`` (and are, in CI).
    """
    from .. import __version__

    table = registry.to_json()
    target = pathlib.Path(path)
    tmp = target.with_name(target.name + ".tmp")
    lines = [
        codec.dumps(
            {
                "kind": SNAPSHOT_KIND,
                "schema": SNAPSHOT_SCHEMA,
                "writer": __version__,
                "meta": meta or {},
            }
        )
    ]
    for name in sorted(table):
        entry = dict(table[name])
        entry["name"] = name
        lines.append(codec.dumps(entry))
    lines.append(codec.dumps({"end": True, "metrics": len(table)}))
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    os.replace(tmp, target)
    return len(table)


def read_snapshot(
    path: Union[str, "os.PathLike[str]"]
) -> Tuple[MetricsRegistry, Dict[str, Any]]:
    """Parse a snapshot back into a registry; returns (registry, meta)."""
    text = pathlib.Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise MetricsReadError(f"{path}: empty metrics snapshot")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise MetricsReadError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") != SNAPSHOT_KIND:
        raise MetricsReadError(
            f"{path}: not a {SNAPSHOT_KIND} snapshot "
            f"(header {lines[0][:80]!r})"
        )
    if header.get("schema") != SNAPSHOT_SCHEMA:
        raise MetricsReadError(
            f"{path}: unsupported schema {header.get('schema')!r}"
        )
    meta = header.get("meta")
    if not isinstance(meta, dict):
        meta = {}
    registry = MetricsRegistry()
    seen = 0
    closed = False
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MetricsReadError(
                f"{path}:{lineno}: malformed line: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise MetricsReadError(f"{path}:{lineno}: not an object")
        if record.get("end") is True:
            if record.get("metrics") != seen:
                raise MetricsReadError(
                    f"{path}: footer claims {record.get('metrics')} "
                    f"metric(s), read {seen}"
                )
            closed = True
            continue
        if closed:
            raise MetricsReadError(f"{path}:{lineno}: data after footer")
        name = record.get("name")
        if not isinstance(name, str):
            raise MetricsReadError(f"{path}:{lineno}: metric without a name")
        try:
            registry.merge_json({name: record})
        except ValueError as exc:
            raise MetricsReadError(f"{path}:{lineno}: {exc}") from exc
        seen += 1
    if not closed:
        raise MetricsReadError(f"{path}: truncated snapshot (no footer)")
    return registry, meta


# -- Prometheus text export --------------------------------------------


def _prometheus_name(name: str) -> str:
    return "repro_" + name.replace(".", "_").replace("-", "_")


def _prometheus_edge(edge: Number) -> str:
    if isinstance(edge, float):
        return repr(edge)
    return str(edge)


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format.

    ``_sum`` series are deliberately absent: the registry tracks no
    float sums (by design — see the module docstring), and Prometheus
    treats a histogram without ``_sum`` as valid.
    """
    out: List[str] = []
    table = registry.to_json()
    for name in sorted(table):
        entry = table[name]
        kind = entry["kind"]
        flat = _prometheus_name(name)
        if kind == "counter":
            out.append(f"# TYPE {flat}_total counter")
            out.append(f"{flat}_total {entry['value']}")
        elif kind == "gauge":
            out.append(f"# TYPE {flat} gauge")
            out.append(f"{flat} {entry['value']}")
        else:
            edges = entry["edges"]
            buckets = [int(b) for b in entry["buckets"]]
            out.append(f"# TYPE {flat} histogram")
            cumulative = 0
            for edge, count in zip(edges, buckets[:-1]):
                cumulative += count
                out.append(
                    f'{flat}_bucket{{le="{_prometheus_edge(edge)}"}} '
                    f"{cumulative}"
                )
            cumulative += buckets[-1]
            out.append(f'{flat}_bucket{{le="+Inf"}} {cumulative}')
            out.append(f"{flat}_count {cumulative}")
    return "\n".join(out) + ("\n" if out else "")


# -- diff --------------------------------------------------------------


def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def diff_registries(
    left: MetricsRegistry,
    right: MetricsRegistry,
    include_exec: bool = False,
) -> List[str]:
    """Human-readable differences between two registries.

    ``exec.*`` metrics are excluded by default: they count the
    *decomposition* of a run (trials dispatched, cache traffic), which
    legitimately differs between a serial in-process run and a sharded
    one even when every simulated count agrees.  Pass ``include_exec``
    to compare them anyway (meaningful when both sides used the same
    decomposition).
    """
    lines: List[str] = []
    left_table = left.to_json()
    right_table = right.to_json()
    names = sorted(set(left_table) | set(right_table))
    for name in names:
        if not include_exec and _layer_of(name) == "exec":
            continue
        a = left_table.get(name)
        b = right_table.get(name)
        if a is None:
            lines.append(f"only in right: {name} ({_describe(b)})")
        elif b is None:
            lines.append(f"only in left: {name} ({_describe(a)})")
        elif a != b:
            lines.append(f"{name}: left {_describe(a)} != right {_describe(b)}")
    return lines


def _describe(entry: Optional[Dict[str, Any]]) -> str:
    if entry is None:
        return "absent"
    if entry["kind"] == "histogram":
        return f"histogram buckets={entry['buckets']}"
    return f"{entry['kind']} {entry['value']}"
