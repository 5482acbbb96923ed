"""Generic reassembly buffers with timeout eviction.

Both the AFF receiver and the static-address baseline need the same
machinery: hold partially received fragments keyed by some identifier,
detect completion, and evict stale entries so memory stays bounded when
introductions are lost.  :class:`ReassemblyBuffer` provides it, protocol-
agnostic: keys are opaque, fragments are ``(offset, bytes)`` spans.

Corruption from identifier collisions is *visible* here: two senders
writing different packets under the same key produce overlapping or
inconsistent spans, or a checksum mismatch at completion — exactly the
failure mode the paper describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Generic, Hashable, List, Optional, Tuple, TypeVar

__all__ = ["PartialPacket", "ReassemblyBuffer", "ReassemblyStats"]

K = TypeVar("K", bound=Hashable)


@dataclass
class ReassemblyStats:
    """Counters describing a buffer's lifetime behaviour."""

    started: int = 0
    completed: int = 0
    evicted: int = 0
    overlap_conflicts: int = 0
    length_conflicts: int = 0


@dataclass
class PartialPacket:
    """Reassembly state for one in-progress packet."""

    total_length: Optional[int] = None
    expected_checksum: Optional[int] = None
    spans: List[Tuple[int, bytes]] = field(default_factory=list)
    first_seen: float = 0.0
    last_update: float = 0.0
    #: opaque metadata the protocol layer may attach (e.g. observed origin)
    meta: dict = field(default_factory=dict)

    def bytes_held(self) -> int:
        return sum(len(data) for _, data in self.spans)

    def add_span(self, offset: int, data: bytes) -> bool:
        """Insert a fragment span.

        Returns False (and ignores the span) if it conflicts with an
        existing span: same offset but different bytes, or overlapping a
        previous span with disagreeing content.  Duplicate identical
        spans are accepted silently (radio retransmission is benign).
        """
        end = offset + len(data)
        for prev_offset, prev_data in self.spans:
            prev_end = prev_offset + len(prev_data)
            if end <= prev_offset or offset >= prev_end:
                continue  # disjoint
            # Overlapping: contents must agree on the shared region.
            lo = max(offset, prev_offset)
            hi = min(end, prev_end)
            if data[lo - offset : hi - offset] != prev_data[lo - prev_offset : hi - prev_offset]:
                return False
            if offset >= prev_offset and end <= prev_end:
                return True  # fully covered duplicate; nothing new to add
        self.spans.append((offset, data))
        return True

    def is_complete(self) -> bool:
        """True when spans contiguously cover [0, total_length)."""
        if self.total_length is None:
            return False
        covered = 0
        for offset, data in sorted(self.spans):
            if offset > covered:
                return False
            covered = max(covered, offset + len(data))
        return covered >= self.total_length

    def assemble(self) -> bytes:
        """Concatenate the spans into the full payload.

        Only valid when :meth:`is_complete` is True.
        """
        if self.total_length is None:
            raise ValueError("cannot assemble before the total length is known")
        out = bytearray(self.total_length)
        for offset, data in sorted(self.spans):
            usable = data[: max(0, self.total_length - offset)]
            out[offset : offset + len(usable)] = usable
        return bytes(out)


class ReassemblyBuffer(Generic[K]):
    """Keyed collection of :class:`PartialPacket` with staleness eviction.

    Parameters
    ----------
    timeout:
        Entries idle longer than this (simulated seconds) are removed by
        :meth:`evict_stale`.  The AFF driver calls it on every fragment
        arrival, matching a real driver's timer wheel closely enough.
    max_entries:
        Hard cap; inserting beyond it evicts the least-recently-updated
        entry first (memory is precious on sensor nodes).
    """

    def __init__(self, timeout: float = 30.0, max_entries: int = 1024):
        if timeout <= 0:
            raise ValueError("reassembly timeout must be positive")
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.timeout = timeout
        self.max_entries = max_entries
        self._entries: Dict[K, PartialPacket] = {}
        # Lower bound on every entry's ``last_update`` (inf when empty):
        # lowered on every touch, made tight again by each real scan.
        self._oldest = math.inf
        self.stats = ReassemblyStats()

    # ------------------------------------------------------------------
    def get_or_create(self, key: K, now: float) -> PartialPacket:
        """Fetch the partial packet for ``key``, creating it if absent."""
        entry = self._entries.get(key)
        if entry is None:
            if len(self._entries) >= self.max_entries:
                self._evict_lru()
            entry = PartialPacket(first_seen=now, last_update=now)
            self._entries[key] = entry
            self.stats.started += 1
        entry.last_update = now
        if now < self._oldest:
            self._oldest = now
        return entry

    def peek(self, key: K) -> Optional[PartialPacket]:
        """Fetch without creating or touching timestamps."""
        return self._entries.get(key)

    def complete(self, key: K) -> PartialPacket:
        """Remove and return a finished entry."""
        entry = self._entries.pop(key)
        self.stats.completed += 1
        return entry

    def drop(self, key: K) -> None:
        """Remove an entry without counting it as completed."""
        if self._entries.pop(key, None) is not None:
            self.stats.evicted += 1

    def evict_stale(self, now: float) -> int:
        """Remove entries idle for longer than ``timeout``.  Returns count."""
        # Exact, not a heuristic: float subtraction is monotone, so no
        # entry is stale unless ``now - oldest`` already exceeds timeout.
        if not now - self._oldest > self.timeout:
            return 0
        stale = [
            key
            for key, entry in self._entries.items()
            if now - entry.last_update > self.timeout
        ]
        for key in stale:
            del self._entries[key]
        self._oldest = min(
            (entry.last_update for entry in self._entries.values()),
            default=math.inf,
        )
        self.stats.evicted += len(stale)
        return len(stale)

    def _evict_lru(self) -> None:
        victim = min(self._entries, key=lambda k: self._entries[k].last_update)
        del self._entries[victim]
        self.stats.evicted += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def keys(self):
        return self._entries.keys()
