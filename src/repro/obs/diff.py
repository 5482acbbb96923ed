"""Field-by-field comparison of two exported traces.

``python -m repro obs diff`` turns the parallelism correctness story
("``shards=N``/``--workers N`` runs are bit-identical to serial") into a
mechanical check: record two traces of the same scenario, diff them,
exit 0.  The comparison is streaming — both traces are walked in
lockstep, so diffing million-event traces needs constant memory — and
exact: records compare by their canonical serialized line, so a NaN
only matches a NaN and ``-0.0`` only matches ``-0.0``.

Headers are compared leniently: ``writer`` version and ``meta``
differences are reported as notes, not divergences, because two runs
of the same scenario at different worker counts legitimately differ
there (and meta deliberately excludes worker counts for that reason).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Any, Dict, List, Optional, Tuple, Union

from ..sim.trace import TraceRecord
from .envelope import _record_line, read_header, read_trace

__all__ = ["Divergence", "TraceDiff", "diff_traces"]

PathLike = Union[str, pathlib.Path]

#: Matching records remembered as rolling context for the first report.
CONTEXT = 3


@dataclass
class Divergence:
    """One pair of records (or a missing side) that failed to match."""

    index: int
    left: Optional[TraceRecord]
    right: Optional[TraceRecord]

    def differing_fields(self) -> List[str]:
        """Which parts of the record differ: time, category, field names."""
        if self.left is None or self.right is None:
            return ["<record missing>"]
        out = []
        if _record_line(
            TraceRecord(self.left.time, "", {})
        ) != _record_line(TraceRecord(self.right.time, "", {})):
            out.append("time")
        if self.left.category != self.right.category:
            out.append("category")
        keys = sorted(set(self.left.fields) | set(self.right.fields))
        for key in keys:
            a = {key: self.left.fields.get(key, "<absent>")}
            b = {key: self.right.fields.get(key, "<absent>")}
            if _record_line(TraceRecord(0.0, "", a)) != _record_line(
                TraceRecord(0.0, "", b)
            ):
                out.append(f"fields.{key}")
        return out

    def render(self) -> List[str]:
        lines = [f"record #{self.index} diverges: {', '.join(self.differing_fields())}"]
        lines.append(f"  left:  {_describe(self.left)}")
        lines.append(f"  right: {_describe(self.right)}")
        return lines


def _describe(record: Optional[TraceRecord]) -> str:
    if record is None:
        return "<no record — trace ended>"
    return _record_line(record)


@dataclass
class TraceDiff:
    """Outcome of comparing two traces."""

    left: str
    right: str
    records: int = 0
    divergences: int = 0
    first: Optional[Divergence] = None
    context: List[TraceRecord] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return self.divergences == 0

    def render(self) -> str:
        lines = [f"obs diff: {self.left} vs {self.right}"]
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.identical:
            lines.append(f"identical: {self.records} records, 0 divergent")
            return "\n".join(lines)
        lines.append(
            f"DIVERGED: {self.divergences} divergent of {self.records} compared"
        )
        if self.first is not None:
            if self.context:
                lines.append(f"last {len(self.context)} matching record(s):")
                for record in self.context:
                    lines.append(f"  = {_record_line(record)}")
            lines.extend(self.first.render())
        return "\n".join(lines)


def _header_notes(
    left: Dict[str, Any], right: Dict[str, Any]
) -> List[str]:
    notes = []
    if left.get("writer") != right.get("writer"):
        notes.append(
            f"writer versions differ: {left.get('writer')!r} vs {right.get('writer')!r}"
        )
    if left.get("meta") != right.get("meta"):
        notes.append("headers carry different meta (not counted as divergence)")
    return notes


def diff_traces(
    left_path: PathLike, right_path: PathLike, max_divergences: int = 0
) -> TraceDiff:
    """Compare two traces record-by-record.

    ``max_divergences`` > 0 stops the walk early after that many
    mismatches (the first divergence, with context, is always captured);
    0 means count them all.
    """
    diff = TraceDiff(left=str(left_path), right=str(right_path))
    diff.notes = _header_notes(read_header(left_path), read_header(right_path))
    pairs = zip_longest(read_trace(left_path), read_trace(right_path))
    for index, (a, b) in enumerate(pairs):
        diff.records += 1
        if a is not None and b is not None and _record_line(a) == _record_line(b):
            if diff.first is None:
                diff.context.append(a)
                if len(diff.context) > CONTEXT:
                    diff.context.pop(0)
            continue
        diff.divergences += 1
        if diff.first is None:
            diff.first = Divergence(index=index, left=a, right=b)
        if max_divergences and diff.divergences >= max_divergences:
            break
    return diff
