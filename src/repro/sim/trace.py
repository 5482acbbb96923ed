"""Structured event tracing for simulations.

A :class:`TraceRecorder` collects timestamped, categorised records that
experiments can filter and aggregate after a run.  Tracing is the *only*
side channel the experiment harness uses — protocol code never inspects
traces, so instrumentation cannot change behaviour.

Records are plain :class:`TraceRecord` dataclasses: ``(time, category,
fields)``.  Categories used across the reproduction include
``"frame.tx"``, ``"frame.rx"``, ``"frame.drop"``, ``"packet.sent"``,
``"packet.delivered"``, ``"packet.collision"``, ``"txn.begin"``,
``"txn.end"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["TraceRecord", "TraceRecorder", "NullRecorder"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry: when it happened, what kind, and its payload."""

    time: float
    category: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


class TraceRecorder:
    """Collects :class:`TraceRecord` objects during a simulation run.

    Parameters
    ----------
    categories:
        If given, only these categories are recorded; everything else is
        dropped at emit time (cheap filtering for long runs).
    """

    def __init__(self, categories: Optional[set[str]] = None):
        self._records: List[TraceRecord] = []
        self._categories = categories
        self._counts: Dict[str, int] = {}
        self._recorded: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def emit(self, time: float, category: str, **fields: Any) -> None:
        """Record an event.  ``fields`` become the record payload."""
        self._counts[category] = self._counts.get(category, 0) + 1
        if self._categories is not None and category not in self._categories:
            return
        self._recorded[category] = self._recorded.get(category, 0) + 1
        self._records.append(TraceRecord(time=time, category=category, fields=fields))

    def tally(self, category: str, n: int) -> None:
        """Count ``n`` events of ``category`` without storing records.

        What a producer calls in place of ``n`` :meth:`emit` calls when
        the recorder keeps no records (a :class:`NullRecorder`): the
        counters end the same, one call instead of ``n``.  ``n`` of 0
        leaves them untouched.
        """
        if n:
            self._counts[category] = self._counts.get(category, 0) + n

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def records(self) -> List[TraceRecord]:
        """All stored records in emission order."""
        return list(self._records)

    def count(self, category: str) -> int:
        """How many events of ``category`` were emitted (even if filtered)."""
        return self._counts.get(category, 0)

    def select(
        self,
        category: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[TraceRecord]:
        """Filter stored records by category, time window, and predicate."""
        out = []
        for rec in self._records:
            if category is not None and rec.category != category:
                continue
            if since is not None and rec.time < since:
                continue
            if until is not None and rec.time > until:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def clear(self) -> None:
        """Drop all stored records and counters."""
        self._records.clear()
        self._counts.clear()
        self._recorded.clear()

    def emitted_counts(self) -> Dict[str, int]:
        """Category -> events *emitted*, including category-filtered ones.

        Emission counters are always maintained (they are O(1)), even by
        :class:`NullRecorder` and for categories a filtered recorder
        drops — they answer "what happened", not "what was kept".
        """
        return dict(self._counts)

    def recorded_counts(self) -> Dict[str, int]:
        """Category -> records actually *stored* (post category filter).

        For an unfiltered :class:`TraceRecorder` this equals
        :meth:`emitted_counts`; with a ``categories`` filter it counts
        only the kept records, and for :class:`NullRecorder` it is
        empty.
        """
        return dict(self._recorded)


class NullRecorder(TraceRecorder):
    """A recorder that stores nothing — use when traces are not needed.

    ``emit`` still maintains category counters (they are O(1)), because
    several components report summary statistics from them.  Producers
    on a hot path (the broadcast medium) recognise this class and charge
    it once per frame through :meth:`tally` instead.
    """

    def emit(self, time: float, category: str, **fields: Any) -> None:
        self._counts[category] = self._counts.get(category, 0) + 1
