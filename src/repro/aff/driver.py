"""The AFF driver: binds fragmentation + reassembly to a radio.

This is the reproduction of the paper's Linux fragmentation driver
(Section 5), running over the simulated RPC-like radio:

* ``send(packet)`` draws an AFF identifier from the node's selector,
  fragments, and queues every fragment on the radio (introduction
  first).
* received frames are decoded and, when something consumes the
  result, fed to the reassembler; verified packets go to the delivery
  callback.
* in *listening* mode the driver snoops all traffic on the air and
  feeds overheard identifiers to the selector (Section 3.2 / 5.1).

The driver also keeps the exact bit ledger
(:class:`~repro.net.packets.BitBudget`) and — when given a
:class:`~repro.core.transactions.TransactionLog` — reports ground-truth
transaction intervals, with the transaction spanning from the first
fragment's transmission to the last's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..core.identifiers import IdentifierSelector
from ..core.transactions import Transaction, TransactionLog
from ..net.checksum import ChecksumFn, fletcher16
from ..net.packets import BitBudget, Packet
from ..obs.metrics import MetricsRegistry, active_metrics
from ..radio.frame import Frame
from ..radio.radio import Radio
from ..sim.rng import fallback_stream
from .fragmenter import Fragmenter
from .reassembler import Reassembler
from .wire import (
    DataFragment,
    FragmentCodec,
    IntroFragment,
    MalformedFragmentError,
    NotifyFragment,
)

__all__ = ["AffDriver", "AffDriverStats", "ID_WIDTH_BUCKET_EDGES"]

DeliveryCallback = Callable[[bytes], None]

#: Declared bucket edges for the identifier-collision width histogram
#: (``aff.id_collision_bits``): collisions bucket by the identifier
#: space's bit width, covering the paper's 3..16-bit sweep with an
#: overflow bucket for anything wider.  Constant by lint rule OBS002.
ID_WIDTH_BUCKET_EDGES = (4, 8, 12, 16)


def observe_collision_width(metrics: Optional[MetricsRegistry], id_bits: int) -> None:
    """Bucket one reassembler-detected collision by identifier width (the
    paper's independent variable for Figure 4); no-op with metrics off."""
    if metrics is not None:
        metrics.observe("aff.id_collision_bits", id_bits, ID_WIDTH_BUCKET_EDGES)


@dataclass
class AffDriverStats:
    """Driver-level counters (send side + decode errors)."""

    packets_sent: int = 0
    fragments_sent: int = 0
    malformed_frames: int = 0
    notifications_sent: int = 0
    notifications_heard: int = 0


class AffDriver:
    """Address-free fragmentation service on one node.

    Parameters
    ----------
    radio:
        The node's transceiver.
    selector:
        Identifier selection algorithm (uniform / listening / oracle).
    deliver:
        Callback for successfully reassembled payloads.  A driver with
        neither this nor ``notify_collisions`` is send-only: it decodes
        and listens to overheard frames but never reassembles them,
        since nothing would read the result.
    listening:
        When True, snoop all received introductions into the selector —
        the paper's listening heuristic.  (The selector must make use of
        observations; :class:`UniformSelector` ignores them.)
    notify_collisions:
        When True, broadcast an explicit identifier-collision notification
        whenever this node's reassembler detects one — the paper's
        Section 3.2 mitigation for hidden terminals.  Listening nodes
        that hear the notification avoid that identifier for a while.
        Detection needs reassembly, so this also makes the driver
        reassemble what it overhears.
    listen_duty_cycle:
        Fraction of overheard introductions actually fed to the selector
        (default 1.0 = always listening).  Models the paper's remark that
        "some nodes may choose to minimize the time they spend listening
        because of the significant power requirements of running a
        radio" — a node listening 30% of the time observes ~30% of
        introductions.
    checksum, reassembly_timeout:
        Passed through to fragmenter/reassembler.
    txn_log:
        Optional ground-truth transaction log (experiment instrumentation).
    budget:
        Optional shared bit ledger; a private one is created otherwise.
    """

    def __init__(
        self,
        radio: Radio,
        selector: IdentifierSelector,
        deliver: Optional[DeliveryCallback] = None,
        listening: bool = False,
        notify_collisions: bool = False,
        listen_duty_cycle: float = 1.0,
        listen_rng=None,
        checksum: ChecksumFn = fletcher16,
        reassembly_timeout: float = 30.0,
        keep_orphan_spans: bool = False,
        txn_log: Optional[TransactionLog] = None,
        budget: Optional[BitBudget] = None,
    ):
        if not 0.0 <= listen_duty_cycle <= 1.0:
            raise ValueError("listen_duty_cycle must be in [0, 1]")
        self.radio = radio
        self.selector = selector
        self.listening = listening
        self.notify_collisions = notify_collisions
        self.listen_duty_cycle = listen_duty_cycle
        self._listen_rng = (
            listen_rng
            if listen_rng is not None
            else fallback_stream("aff.AffDriver.listen")
        )
        self.codec = FragmentCodec(selector.space.bits)
        self.fragmenter = Fragmenter(
            self.codec, mtu_bytes=radio.max_frame_bytes, checksum=checksum
        )
        # Deterministic counters; the conflict hook below observes the
        # collision-width histogram even when notifications are off.
        self._metrics = active_metrics()
        self.reassembler = Reassembler(
            checksum=checksum,
            timeout=reassembly_timeout,
            deliver=deliver,
            on_conflict=self._on_reassembly_conflict,
            keep_orphan_spans=keep_orphan_spans,
        )
        # Reassembly runs only for a consumer: the delivery callback, or
        # the conflict detection that drives notifications.  A send-only
        # node needs nothing past the introduction's header (_on_frame).
        self._reassembles = deliver is not None or notify_collisions
        self.txn_log = txn_log
        self.budget = budget if budget is not None else BitBudget()
        self.stats = AffDriverStats()
        self._open_txns: Dict[int, Transaction] = {}  # packet seq -> txn
        self._fragments_left: Dict[int, int] = {}  # packet seq -> unsent count

        radio.set_receive_handler(self._on_frame)
        radio.add_tx_listener(self._on_frame_transmitted)

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    @property
    def sim(self):
        return self.radio.medium.sim

    def send(self, packet: Packet) -> int:
        """Fragment and queue ``packet``.  Returns the AFF identifier used."""
        identifier = self.selector.select()
        self.selector.note_transaction_begin(identifier)
        plan = self.fragmenter.fragment(packet.payload, identifier)

        if self.txn_log is not None:
            audience = self.radio.medium.topology.neighbors(self.radio.node_id)
            txn = self.txn_log.begin(
                owner=self.radio.node_id,
                identifier=identifier,
                time=self.sim.now,
                audience=audience,
            )
            self._open_txns[packet.seq] = txn
        self._fragments_left[packet.seq] = plan.fragment_count

        for index, fragment in enumerate(plan.fragments):
            encoded = self.codec.encode(fragment)
            if isinstance(fragment, DataFragment):
                header_bits = self.codec.data_header_bits
                payload_bits = 8 * len(fragment.payload)
            else:
                header_bits = self.codec.intro_header_bits
                payload_bits = 0
            padding = 8 * len(encoded) - header_bits - payload_bits
            frame = Frame(
                payload=encoded,
                origin=self.radio.node_id,
                # Padding bits are transmission overhead, booked as header.
                header_bits=header_bits + padding,
                payload_bits=payload_bits,
                ground_truth={
                    "packet": packet.ground_truth_key(),
                    "seq": packet.seq,
                    "index": index,
                    "count": plan.fragment_count,
                    "identifier": identifier,
                },
            )
            self.budget.charge_transmit("header", frame.header_bits)
            self.budget.charge_transmit("payload", frame.payload_bits)
            self.radio.send(frame)
            self.stats.fragments_sent += 1
            if self._metrics is not None:
                self._metrics.inc("aff.fragments_tx")
        self.stats.packets_sent += 1
        if self._metrics is not None:
            self._metrics.inc("aff.packets_tx")
        return identifier

    def _on_frame_transmitted(self, frame: Frame) -> None:
        """Close the ground-truth transaction when its last fragment airs."""
        truth = frame.ground_truth
        if not isinstance(truth, dict) or "seq" not in truth:
            return
        seq = truth["seq"]
        remaining = self._fragments_left.get(seq)
        if remaining is None:
            return
        remaining -= 1
        if remaining > 0:
            self._fragments_left[seq] = remaining
            return
        del self._fragments_left[seq]
        # The transaction ends when the final fragment's airtime elapses;
        # schedule the close so log updates stay time-ordered.
        txn = self._open_txns.pop(seq, None)
        self.sim.schedule(
            self.radio.medium.airtime(frame),
            self._close_transaction,
            txn,
            truth["identifier"],
        )

    def _close_transaction(self, txn: Optional[Transaction], identifier: int) -> None:
        if txn is not None:
            self.txn_log.end(txn, self.sim.now)
        self.selector.note_transaction_end(identifier)

    def _on_reassembly_conflict(self, identifier: int) -> None:
        """Reassembler-detected identifier collision on this node.

        Books the collision-width histogram, then broadcasts the
        collision notification iff that behaviour was asked for —
        keeping the notification protocol's on-air behaviour identical
        to a build without metrics.
        """
        observe_collision_width(self._metrics, self.selector.space.bits)
        if self.notify_collisions:
            self._broadcast_notification(identifier)

    def _broadcast_notification(self, identifier: int) -> None:
        """Tell the neighbourhood that ``identifier`` just collided here."""
        encoded = self.codec.encode_notify(NotifyFragment(identifier=identifier))
        frame = Frame(
            payload=encoded,
            origin=self.radio.node_id,
            header_bits=8 * len(encoded),
            payload_bits=0,
            ground_truth={"notify": identifier},
        )
        self.budget.charge_transmit("control", frame.header_bits)
        self.radio.send(frame)
        self.stats.notifications_sent += 1

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _on_frame(self, frame: Frame) -> None:
        try:
            fragment = self.codec.decode_frame(frame)
        except MalformedFragmentError:
            self.stats.malformed_frames += 1
            return
        if isinstance(fragment, NotifyFragment):
            # A receiver flagged this identifier as colliding; only senders
            # that maintain learned state can act on it.
            self.selector.note_collision(fragment.identifier)
            self.stats.notifications_heard += 1
            return
        if (
            self.listening
            and isinstance(fragment, IntroFragment)
            and (
                self.listen_duty_cycle >= 1.0
                or self._listen_rng.random() < self.listen_duty_cycle
            )
        ):
            self.selector.observe(fragment.identifier)
            self.selector.note_transaction_begin(fragment.identifier)
            # The overheard transaction stays "visible" for roughly as long
            # as its remaining fragments take to transmit; we estimate that
            # from the announced length (known from the introduction) with
            # headroom for MAC queueing.  Each begin gets exactly one end.
            ttl = self._estimate_transaction_seconds(fragment.total_length)
            self.sim.schedule(
                ttl, self.selector.note_transaction_end, fragment.identifier
            )
        if self._reassembles:
            self.reassembler.accept(fragment, now=self.sim.now)

    def _estimate_transaction_seconds(self, total_length: int) -> float:
        """Rough airtime of one whole packet's fragments (x4 for queueing)."""
        fragments = self.fragmenter.fragments_for_size(total_length)
        frame_airtime = (8 * self.radio.max_frame_bytes) / self.radio.medium.bitrate
        return 4.0 * fragments * frame_airtime
