"""The shared broadcast medium.

Models the essential physics of a low-power radio like the paper's
Radiometrix RPC: a transmission occupies the air for ``bits / bitrate``
seconds and is heard by every attached radio within range (per the
topology).  Two things can destroy a frame on a given link:

* an **RF collision** — another transmission audible at the receiver
  overlaps in time (enabled by default; the ALOHA regime), and
* **channel loss** — the per-link :class:`~repro.radio.channel.Channel`
  model drops it.

The medium also exposes :meth:`busy_at` for carrier-sensing MACs,
numbers the frames it transmits (``Frame.seq``: 1, 2, ... in transmit
order), and emits ``frame.tx`` / ``frame.rx`` / ``frame.drop`` trace
records.

The medium never interprets frame payloads; protocol identifiers are
invisible here.  This separation is what lets the instrumented AFF
experiments distinguish RF losses from identifier-collision losses,
exactly as the paper's instrumented driver did.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .. import instruments
from ..sim.engine import Simulator
from ..sim.rng import fallback_stream
from ..sim.trace import NullRecorder, TraceRecorder
from ..topology.graphs import Topology
from .channel import Channel, PerfectChannel
from .frame import Frame

__all__ = ["BroadcastMedium", "MediumStats", "Transmission"]

#: Default bit rate of an RPC-like radio, bits/second.
DEFAULT_BITRATE = 40_000.0


@dataclass
class Transmission:
    """One in-flight frame occupying the air."""

    frame: Frame
    start: float
    end: float

    def overlaps(self, start: float, end: float) -> bool:
        """True when [start, end) intersects this transmission's window."""
        return self.start < end and start < self.end


@dataclass
class MediumStats:
    """Aggregate medium behaviour over a run."""

    frames_sent: int = 0
    deliveries: int = 0
    rf_collision_drops: int = 0
    channel_drops: int = 0
    out_of_range: int = 0


class BroadcastMedium:
    """Connects radios through a topology with timing-accurate broadcast.

    Parameters
    ----------
    sim:
        The event kernel.
    topology:
        Decides who hears whom.  May mutate during the run (churn).
    bitrate:
        Air bit rate; transmission time is ``size_bits / bitrate``.
    rf_collisions:
        When True, time-overlapping audible transmissions corrupt each
        other at shared receivers.  Turn off to isolate identifier
        collisions from RF collisions in validation runs.
    channel_factory:
        ``(sender, receiver) -> Channel`` for per-link loss; defaults to
        a shared :class:`PerfectChannel`.
    recorder:
        Trace sink; defaults to a counting :class:`NullRecorder`.
    rng:
        Random stream for channel sampling.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        bitrate: float = DEFAULT_BITRATE,
        rf_collisions: bool = True,
        channel_factory: Optional[Callable[[int, int], Channel]] = None,
        recorder: Optional[TraceRecorder] = None,
        rng: Optional[random.Random] = None,
    ):
        if bitrate <= 0:
            raise ValueError("bitrate must be positive")
        self.sim = sim
        self.topology = topology
        self.bitrate = bitrate
        self.rf_collisions = rf_collisions
        self._channel_factory = channel_factory
        self._channels: Dict[Tuple[int, int], Channel] = {}
        self._default_channel = PerfectChannel()
        self.recorder = recorder if recorder is not None else NullRecorder()
        self.rng = rng if rng is not None else fallback_stream("radio.BroadcastMedium")
        self._radios: Dict[int, "object"] = {}
        self._active: List[Transmission] = []
        # Finished transmissions kept until nothing in flight could have
        # overlapped them; needed so a short frame that collided with a
        # longer one still corrupts the longer frame at resolution time.
        self._recent: List[Transmission] = []
        self.stats = MediumStats()
        self._seq = itertools.count(1)
        # Instruments, bound once at construction: observational-only
        # span profiling, and deterministic counters (frames on the
        # air, per-receiver fates), one None-check each when off.
        installed = instruments.active()
        self._profiler = installed.profiler
        self._metrics = installed.metrics

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, node_id: int, radio: "object") -> None:
        """Register ``radio`` as node ``node_id``'s transceiver."""
        if node_id in self._radios:
            raise ValueError(f"node {node_id} already has a radio attached")
        self._radios[node_id] = radio

    def detach(self, node_id: int) -> None:
        self._radios.pop(node_id, None)

    def radio_for(self, node_id: int):
        return self._radios.get(node_id)

    # ------------------------------------------------------------------
    # Channels
    # ------------------------------------------------------------------
    def channel_for(self, sender: int, receiver: int) -> Channel:
        """Per-link channel instance (cached so stateful models persist)."""
        if self._channel_factory is None:
            return self._default_channel
        key = (sender, receiver)
        channel = self._channels.get(key)
        if channel is None:
            channel = self._channel_factory(sender, receiver)
            self._channels[key] = channel
        return channel

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def airtime(self, frame: Frame) -> float:
        """Seconds the frame occupies the air."""
        return frame.size_bits / self.bitrate

    def transmit(self, frame: Frame) -> float:
        """Put ``frame`` on the air now.  Returns its airtime.

        Delivery (or drop) at each in-range receiver resolves at the
        frame's end-of-transmission instant.
        """
        prof = self._profiler
        if prof is None:
            return self._transmit(frame)
        t0 = prof.clock()
        airtime = self._transmit(frame)
        prof.add("radio.transmit", prof.clock() - t0)
        return airtime

    def _transmit(self, frame: Frame) -> float:
        start = self.sim.now
        end = start + self.airtime(frame)
        frame.seq = next(self._seq)
        txn = Transmission(frame=frame, start=start, end=end)
        self._active.append(txn)
        self.stats.frames_sent += 1
        if self._metrics is not None:
            self._metrics.inc("radio.frames_tx")
        recorder = self.recorder
        if isinstance(recorder, NullRecorder):
            recorder.tally("frame.tx", 1)
        else:
            recorder.emit(
                start, "frame.tx", origin=frame.origin, seq=frame.seq,
                bits=frame.size_bits,
            )
        # Snapshot the audience now: churn during flight should not add
        # listeners that were not present at transmission time.
        audience = list(self.topology.neighbors(frame.origin))
        self.sim.schedule(end - start, self._resolve, txn, audience)
        return end - start

    def _resolve(self, txn: Transmission, audience: List[int]) -> None:
        """At end-of-frame: decide per-receiver fate and deliver."""
        # Fixed for the whole fan-out (handlers may schedule or send, but
        # the clock does not move): bound once per transmission.
        metrics = self._metrics
        radios = self._radios
        stats = self.stats
        recorder = self.recorder
        # A recorder that keeps no records is charged its ``frame.rx``
        # count once per frame, and ``emit_rx`` is None.
        emit_rx = None if isinstance(recorder, NullRecorder) else recorder.emit
        delivered = 0
        rf_collisions = self.rf_collisions
        # The default PerfectChannel never drops and draws nothing.
        lossy = self._channel_factory is not None
        rng = self.rng
        frame = txn.frame
        origin = frame.origin
        seq = frame.seq
        bits = frame.size_bits
        now = self.sim.now
        for receiver in audience:
            radio = radios.get(receiver)
            if radio is None:
                stats.out_of_range += 1
                continue
            if rf_collisions and self._corrupted_at(txn, receiver):
                stats.rf_collision_drops += 1
                if metrics is not None:
                    metrics.inc("radio.rf_collisions")
                reason = "rf_collision"
            elif lossy and not self.channel_for(origin, receiver).deliver(rng):
                stats.channel_drops += 1
                if metrics is not None:
                    metrics.inc("radio.channel_drops")
                reason = "channel"
            else:
                stats.deliveries += 1
                if metrics is not None:
                    metrics.inc("radio.frames_rx")
                if emit_rx is None:
                    delivered += 1
                else:
                    emit_rx(now, "frame.rx", origin=origin, receiver=receiver,
                            seq=seq, bits=bits)
                radio._deliver(frame)
                continue
            if delivered:
                # Settle the deliveries before this drop, so the
                # counters meet their categories in event order.
                recorder.tally("frame.rx", delivered)
                delivered = 0
            recorder.emit(now, "frame.drop", reason=reason,
                          origin=origin, receiver=receiver, seq=seq)
        if delivered:
            recorder.tally("frame.rx", delivered)
        self._active.remove(txn)
        self._recent.append(txn)
        self._prune_recent()

    def _prune_recent(self) -> None:
        """Drop finished transmissions no in-flight frame can overlap."""
        if not self._active:
            self._recent.clear()
            return
        horizon = min(t.start for t in self._active)
        self._recent = [t for t in self._recent if t.end > horizon]

    def _corrupted_at(self, txn: Transmission, receiver: int) -> bool:
        """True when another audible transmission overlapped ``txn`` there."""
        heard = self.topology.neighbors(receiver)
        for other in self._active + self._recent:
            if other is txn:
                continue
            if not other.overlaps(txn.start, txn.end):
                continue
            if other.frame.origin == receiver:
                # A half-duplex radio transmitting cannot receive; treat
                # own transmission overlap as corruption too.
                return True
            if other.frame.origin in heard:
                return True
        return False

    # ------------------------------------------------------------------
    # Carrier sense
    # ------------------------------------------------------------------
    def busy_at(self, node_id: int) -> bool:
        """True when ``node_id`` can currently hear energy on the air."""
        heard = self.topology.neighbors(node_id)
        now = self.sim.now
        for txn in self._active:
            if txn.end <= now:
                continue
            if txn.frame.origin == node_id or txn.frame.origin in heard:
                return True
        return False

    @property
    def active_count(self) -> int:
        return len(self._active)
