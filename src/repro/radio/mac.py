"""Medium-access strategies.

The RPC's "simple packet controller" (Section 5) is closest to
:class:`AlohaMac`: it just sends.  :class:`CsmaMac` adds carrier sensing
with random backoff — useful when many senders share the air and we want
identifier collisions, not RF collisions, to dominate losses.
:class:`SlottedMac` aligns transmissions to slot boundaries, halving the
vulnerable window in the classic slotted-ALOHA way.

A MAC owns the outbound queue.  The radio hands it frames via
:meth:`Mac.enqueue`; the MAC decides *when* to call the radio's
``_transmit_now`` and serialises a node's own transmissions (the
hardware is half-duplex and single-channel).  :meth:`Mac.on_drain`
lets a back-pressured sender sleep until the queue empties instead of
polling it.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Optional

from ..sim.engine import Simulator
from ..sim.rng import fallback_stream
from .frame import Frame

__all__ = ["AlohaMac", "CsmaMac", "Mac", "SlottedMac"]


class Mac:
    """Base MAC: queue management and radio binding."""

    def __init__(self) -> None:
        self._radio = None
        self._queue: Deque[Frame] = deque()
        self._busy = False
        self._on_drain: Optional[Callable[[], None]] = None
        self.frames_queued = 0

    def bind(self, radio) -> None:
        """Called once by the radio that owns this MAC."""
        if self._radio is not None:
            raise RuntimeError("MAC already bound to a radio")
        self._radio = radio

    @property
    def sim(self) -> Simulator:
        return self._radio.medium.sim

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def on_drain(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once, right after the pop that next leaves
        the queue empty (the last frame has just gone on the air)."""
        if self._on_drain is not None:
            raise RuntimeError("a drain callback is already pending")
        self._on_drain = callback

    # ------------------------------------------------------------------
    def enqueue(self, frame: Frame) -> None:
        """Accept a frame for transmission."""
        self._queue.append(frame)
        self.frames_queued += 1
        if not self._busy:
            self._busy = True
            self._try_send()

    def _try_send(self) -> None:
        """Attempt to transmit the head-of-line frame (subclass policy)."""
        raise NotImplementedError

    def _transmit_head(self) -> None:
        """Actually put the head frame on the air, then continue the queue."""
        frame = self._queue.popleft()
        airtime = self._radio._transmit_now(frame)
        self.sim.schedule(airtime, self._after_transmit)
        if not self._queue and self._on_drain is not None:
            callback, self._on_drain = self._on_drain, None
            callback()

    def _after_transmit(self) -> None:
        if self._queue:
            self._try_send()
        else:
            self._busy = False


class AlohaMac(Mac):
    """Pure ALOHA: transmit as soon as the previous own frame finishes.

    Optionally inserts a fixed ``gap`` between a node's own frames, which
    models the host-to-radio transfer time of the RPC packet controller.
    """

    def __init__(self, gap: float = 0.0):
        super().__init__()
        if gap < 0:
            raise ValueError("gap must be >= 0")
        self.gap = gap

    def _try_send(self) -> None:
        if self.gap > 0:
            self.sim.schedule(self.gap, self._transmit_head)
        else:
            self._transmit_head()


class SlottedMac(Mac):
    """Slotted ALOHA: transmissions start only on slot boundaries."""

    def __init__(self, slot: float):
        super().__init__()
        if slot <= 0:
            raise ValueError("slot length must be positive")
        self.slot = slot

    def _try_send(self) -> None:
        now = self.sim.now
        next_boundary = ((now // self.slot) + 1) * self.slot
        # Start exactly at a boundary; if we are on one, go immediately.
        wait = 0.0 if abs(now % self.slot) < 1e-12 else next_boundary - now
        self.sim.schedule(wait, self._transmit_head)


class CsmaMac(Mac):
    """Carrier-sense multiple access with random backoff.

    Before sending, listen; if the air is busy, back off a uniform random
    time in ``[0, backoff_max)`` and retry (up to ``max_attempts``, after
    which the frame is sent anyway — better an RF collision than silent
    starvation, and real simple radios behave this way).
    """

    def __init__(
        self,
        backoff_max: float = 0.01,
        max_attempts: int = 16,
        rng: Optional[random.Random] = None,
    ):
        super().__init__()
        if backoff_max <= 0:
            raise ValueError("backoff_max must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.backoff_max = backoff_max
        self.max_attempts = max_attempts
        self.rng = rng if rng is not None else fallback_stream("radio.CsmaMac")
        self.backoffs_taken = 0
        self._attempts = 0

    def _try_send(self) -> None:
        medium = self._radio.medium
        if (
            medium.busy_at(self._radio.node_id)
            and self._attempts < self.max_attempts
        ):
            self._attempts += 1
            self.backoffs_taken += 1
            self.sim.schedule(self.rng.uniform(0, self.backoff_max), self._try_send)
            return
        self._attempts = 0
        self._transmit_head()
