"""AFF receiver side: reconstruct packets from identifier-keyed fragments.

The receiver's *only* key is the AFF identifier — no source address
exists (that is the whole point).  Consequences the paper calls out, all
modelled here:

* Two concurrent packets with the same identifier interleave into one
  reassembly entry; the checksum then fails (or spans conflict) and the
  corrupted packet "is never delivered" (Section 5).
* A lost introduction leaves data fragments orphaned until timeout.
* Stale entries must be evicted (we reuse
  :class:`~repro.net.reassembly.ReassemblyBuffer`'s timeout machinery).

Delivered packets are handed to a callback with their byte payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..net.checksum import ChecksumFn, fletcher16
from ..net.reassembly import ReassemblyBuffer
from .. import instruments
from .wire import DataFragment, Fragment, IntroFragment

__all__ = ["Reassembler", "ReassemblerStats"]

DeliveryCallback = Callable[[bytes], None]


@dataclass
class ReassemblerStats:
    """Receiver-side outcome counters."""

    fragments_accepted: int = 0
    packets_delivered: int = 0
    checksum_failures: int = 0
    span_conflicts: int = 0
    intro_conflicts: int = 0
    evictions: int = 0


class Reassembler:
    """Reassembles AFF fragments keyed solely by AFF identifier.

    Parameters
    ----------
    checksum:
        Must match the sender's function.
    timeout:
        Idle seconds before a partial packet is evicted.
    deliver:
        Called with each successfully verified payload.
    """

    def __init__(
        self,
        checksum: ChecksumFn = fletcher16,
        timeout: float = 30.0,
        deliver: Optional[DeliveryCallback] = None,
        max_entries: int = 1024,
        on_conflict: Optional[Callable[[int], None]] = None,
        keep_orphan_spans: bool = False,
    ):
        self.checksum = checksum
        self.deliver = deliver
        #: called with the identifier whenever a collision is detected
        #: (intro or span conflict) — drivers hook collision notification
        #: broadcasts here (Section 3.2).
        self.on_conflict = on_conflict
        #: Orphan-span policy when an introduction arrives over data that
        #: has no introduction yet.  False (default): discard them — an
        #: introduction is transmitted first, so on an in-order radio
        #: (like the RPC's FIFO packet controller) orphans are always a
        #: stale or colliding packet's leftovers, and discarding keeps
        #: identifier reuse harmless.  True: keep them and let the final
        #: checksum arbitrate — required when the host reorders delivery
        #: (a packet's own data can then precede its introduction), at
        #: the cost of more losses under heavy identifier reuse.
        self.keep_orphan_spans = keep_orphan_spans
        self.stats = ReassemblerStats()
        self._buffer: ReassemblyBuffer[int] = ReassemblyBuffer(
            timeout=timeout, max_entries=max_entries
        )
        self._delivered: List[bytes] = []
        # Instruments, bound once at construction: observational-only
        # span profiling, and deterministic counters (fragments,
        # conflicts, checksum fates), one None-check per accept when off.
        installed = instruments.active()
        self._profiler = installed.profiler
        self._metrics = installed.metrics

    # ------------------------------------------------------------------
    @property
    def delivered(self) -> List[bytes]:
        """All payloads delivered so far (also passed to the callback)."""
        return list(self._delivered)

    @property
    def pending(self) -> int:
        """Partial packets currently buffered."""
        return len(self._buffer)

    # ------------------------------------------------------------------
    def accept(self, fragment: Fragment, now: float = 0.0) -> Optional[bytes]:
        """Feed one received fragment; returns the payload if one completes.

        Collision pathologies are handled as the paper prescribes — the
        entry is dropped, nothing is delivered:

        * a second introduction disagreeing on length/checksum
          ("other inconsistencies"),
        * overlapping spans with different bytes,
        * a completed packet whose checksum fails.
        """
        prof = self._profiler
        if prof is None:
            return self._accept(fragment, now)
        t0 = prof.clock()
        payload = self._accept(fragment, now)
        prof.add("aff.reassemble", prof.clock() - t0)
        return payload

    def _accept(self, fragment: Fragment, now: float) -> Optional[bytes]:
        metrics = self._metrics
        self.stats.evictions += self._buffer.evict_stale(now)
        if not isinstance(fragment, (IntroFragment, DataFragment)):
            # Control fragments (e.g. collision notifications) carry no
            # reassembly state; they are the driver's business.
            return None
        self.stats.fragments_accepted += 1
        if metrics is not None:
            metrics.inc("aff.fragments_rx")
        entry = self._buffer.get_or_create(fragment.identifier, now)

        if isinstance(fragment, IntroFragment):
            # An introduction always begins a transaction (the sender
            # transmits it first), so any pre-existing state under this
            # identifier is a stale or colliding transaction.  Newest
            # wins: the old packet is lost (counted), the new one gets a
            # clean slate — identifier reuse over time stays harmless.
            if entry.total_length is not None and (
                entry.total_length != fragment.total_length
                or entry.expected_checksum != fragment.checksum
            ):
                self.stats.intro_conflicts += 1
                if metrics is not None:
                    metrics.inc("aff.id_collisions")
                if self.on_conflict is not None:
                    self.on_conflict(fragment.identifier)
                entry = self._reset_entry(fragment.identifier, now)
            elif (
                entry.total_length is None
                and entry.spans
                and not self.keep_orphan_spans
            ):
                # In-order radios: data never precedes its own intro, so
                # these spans belong to a stale or colliding packet.
                entry = self._reset_entry(fragment.identifier, now)
            entry.total_length = fragment.total_length
            entry.expected_checksum = fragment.checksum
        elif isinstance(fragment, DataFragment):
            if not entry.add_span(fragment.offset, fragment.payload):
                # Conflicting bytes: two packets share the identifier.
                # Keep only the newest fragment; the older packet is lost.
                self.stats.span_conflicts += 1
                if metrics is not None:
                    metrics.inc("aff.id_collisions")
                if self.on_conflict is not None:
                    self.on_conflict(fragment.identifier)
                entry = self._reset_entry(fragment.identifier, now)
                entry.add_span(fragment.offset, fragment.payload)

        if entry.is_complete():
            payload = entry.assemble()
            self._buffer.complete(fragment.identifier)
            if self.checksum(payload) != entry.expected_checksum:
                self.stats.checksum_failures += 1
                if metrics is not None:
                    metrics.inc("aff.checksum_failures")
                return None
            self.stats.packets_delivered += 1
            if metrics is not None:
                metrics.inc("aff.packets_delivered")
            self._delivered.append(payload)
            if self.deliver is not None:
                self.deliver(payload)
            return payload
        return None

    def _reset_entry(self, identifier: int, now: float):
        """Discard the entry for ``identifier`` and start a fresh one."""
        self._buffer.drop(identifier)
        return self._buffer.get_or_create(identifier, now)

    def flush_stale(self, now: float) -> int:
        """Explicitly evict idle partial packets (also done on accept)."""
        evicted = self._buffer.evict_stale(now)
        self.stats.evictions += evicted
        return evicted
