"""The instrumented receiver: measuring what AFF alone would have lost.

Reproduces the paper's measurement methodology (Section 5.1): "In the
instrumented driver, each node has a globally unique identifier; the
fragment format is augmented to include this identifier along with the
randomly selected AFF identifier.  By examining both the AFF identifier
and the guaranteed unique node identifier of received fragments, the
receiver's driver is able to determine how many packets would have been
lost due to AFF identifier collisions if the unique ID had not been
present."

In the simulation the guaranteed-unique identity rides in the frame's
``ground_truth`` instrumentation field (set by
:class:`~repro.aff.driver.AffDriver`) rather than in extra payload
bytes — same information, and it provably cannot influence protocol
behaviour because the AFF reassembler never sees it.

Per received fragment the receiver maintains three accountings:

* **unique-id delivery** — a packet counts as *received using the unique
  identifiers* once all its fragments arrived (keyed by the hidden
  ground-truth key, so collisions cannot corrupt it).  This is the
  experiment's denominator.
* **would-be-lost detection** — the paper's criterion: a packet *would
  have been lost* to AFF if, while its fragments were arriving, a
  fragment of a *different* packet carrying the **same AFF identifier**
  also arrived.  Both packets are marked collided (the receiver cannot
  tell their fragments apart without the unique id).
* **end-to-end AFF delivery** — the real address-free reassembler, keyed
  only by AFF identifier.  A stricter, implementation-dependent measure:
  with newest-transaction-wins reassembly one of two colliding packets
  often still gets through, so this loss rate sits *below* the
  would-be-lost rate.

``collision_loss_rate`` reports the paper's Figure 4 observable
(would-be-lost / received-unique); ``e2e_loss_rate`` reports the real
delivery shortfall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

from ..net.checksum import ChecksumFn, fletcher16
from ..obs.metrics import active_metrics
from ..radio.frame import Frame
from ..radio.radio import Radio
from .driver import observe_collision_width
from .reassembler import Reassembler
from .wire import FragmentCodec, MalformedFragmentError, NotifyFragment

__all__ = ["InstrumentedReceiver", "InstrumentedCounts"]

PacketKey = Tuple


@dataclass
class InstrumentedCounts:
    """The delivery counts the paper's experiment reports."""

    received_unique: int = 0  # deliverable using the hidden unique ids
    would_be_lost: int = 0  # of those, flagged as AFF-identifier collisions
    received_aff: int = 0  # actually delivered by the AFF pipeline

    @property
    def would_be_received(self) -> int:
        """The paper's 'received based on the AFF identifier alone'."""
        return self.received_unique - self.would_be_lost

    def collision_loss_rate(self) -> float:
        """Fraction of receivable packets lost to AFF identifier collisions
        (the paper's Figure 4 observable)."""
        if self.received_unique == 0:
            return float("nan")
        return self.would_be_lost / self.received_unique

    def e2e_loss_rate(self) -> float:
        """Fraction not delivered by the actual AFF reassembler."""
        if self.received_unique == 0:
            return float("nan")
        return max(0, self.received_unique - self.received_aff) / self.received_unique


@dataclass
class _OpenPacket:
    """Arrival-tracking state for one in-flight ground-truth packet."""

    aff_id: int
    expected: int
    seen: Set[int] = field(default_factory=set)
    last_update: float = 0.0
    collided: bool = False


class InstrumentedReceiver:
    """A receive-only node running all three accounting pipelines.

    Parameters
    ----------
    radio:
        This node's radio; the receiver installs itself as the handler.
    id_bits:
        AFF identifier size in use by the senders (needed to decode).
    checksum, reassembly_timeout:
        Must match the senders' configuration.  The timeout also bounds
        how long an incomplete packet stays eligible for collision
        detection.
    notify_collisions:
        Broadcast an identifier-collision notification whenever the
        reassembler detects a conflict (Section 3.2).
    """

    def __init__(
        self,
        radio: Radio,
        id_bits: int,
        checksum: ChecksumFn = fletcher16,
        reassembly_timeout: float = 30.0,
        notify_collisions: bool = False,
    ):
        self.radio = radio
        self.codec = FragmentCodec(id_bits)
        self.notify_collisions = notify_collisions
        self.notifications_sent = 0
        self._metrics = active_metrics()
        self.reassembler = Reassembler(
            checksum=checksum,
            timeout=reassembly_timeout,
            on_conflict=self._on_reassembly_conflict,
        )
        self.timeout = reassembly_timeout
        self.counts = InstrumentedCounts()
        self.malformed_frames = 0
        self.uninstrumented_frames = 0
        self._open: Dict[PacketKey, _OpenPacket] = {}
        # Lower bound on open packets' ``last_update`` (the clock only grows).
        self._oldest = self.sim.now
        radio.set_receive_handler(self._on_frame)

    # ------------------------------------------------------------------
    @property
    def sim(self):
        return self.radio.medium.sim

    def _on_reassembly_conflict(self, identifier: int) -> None:
        """Book the collision-width histogram, then notify iff asked."""
        observe_collision_width(self._metrics, self.codec.id_bits)
        if self.notify_collisions:
            self._broadcast_notification(identifier)

    def _broadcast_notification(self, identifier: int) -> None:
        """Section 3.2: tell the (possibly mutually hidden) senders that
        ``identifier`` just collided at this receiver."""
        encoded = self.codec.encode_notify(NotifyFragment(identifier=identifier))
        self.radio.send(
            Frame(
                payload=encoded,
                origin=self.radio.node_id,
                header_bits=8 * len(encoded),
                payload_bits=0,
                ground_truth={"notify": identifier},
            )
        )
        self.notifications_sent += 1

    def _on_frame(self, frame: Frame) -> None:
        truth = frame.ground_truth
        if not isinstance(truth, dict) or "packet" not in truth:
            self.uninstrumented_frames += 1
            return
        try:
            fragment = self.codec.decode_frame(frame)
        except MalformedFragmentError:
            self.malformed_frames += 1
            return

        now = self.sim.now
        self._evict_stale(now)

        key: PacketKey = truth["packet"]
        state = self._open.get(key)
        if state is None:
            state = _OpenPacket(
                aff_id=truth["identifier"],
                expected=truth["count"],
                last_update=now,
            )
            self._open[key] = state
        state.last_update = now
        state.seen.add(truth["index"])

        # Paper methodology: another open packet under the same AFF id
        # means the receiver could not have told their fragments apart.
        for other_key, other in self._open.items():
            if other_key == key or other.aff_id != state.aff_id:
                continue
            state.collided = True
            other.collided = True

        if len(state.seen) >= state.expected:
            del self._open[key]
            self.counts.received_unique += 1
            if state.collided:
                self.counts.would_be_lost += 1

        # End-to-end AFF pipeline: the real address-free protocol.
        delivered = self.reassembler.accept(fragment, now=now)
        if delivered is not None:
            self.counts.received_aff += 1

    def _evict_stale(self, now: float) -> None:
        # Exact, as in ReassemblyBuffer.evict_stale: while the bound is
        # fresh, no open packet can be stale, so skip the scan.
        if not now - self._oldest > self.timeout:
            return
        stale = [
            key
            for key, state in self._open.items()
            if now - state.last_update > self.timeout
        ]
        for key in stale:
            del self._open[key]
        self._oldest = min(
            (state.last_update for state in self._open.values()), default=now
        )

    # ------------------------------------------------------------------
    def collision_loss_rate(self) -> float:
        """Shortcut to :meth:`InstrumentedCounts.collision_loss_rate`."""
        return self.counts.collision_loss_rate()

    def e2e_loss_rate(self) -> float:
        """Shortcut to :meth:`InstrumentedCounts.e2e_loss_rate`."""
        return self.counts.e2e_loss_rate()
