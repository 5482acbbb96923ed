"""Traffic generators driving protocol drivers through the simulator.

Three arrival patterns cover the paper's workloads:

* :class:`ContinuousStreamSender` — the validation experiment's load:
  "each of the five transmitters attempted to transmit a continuous
  stream of random 80-byte packets for two minutes" (Section 5.1).
  Back-pressured: the next packet is offered once the MAC has drained
  the previous one, like a driver feeding a serial radio.
* :class:`PeriodicSender` — the motivating sensor workload: "periodic
  messages consisting of only a few bits to describe the current state"
  (Section 2.3), with optional jitter.
* :class:`PoissonSender` — memoryless arrivals, for load sweeps.

All senders count offered packets and stop at a deadline; they work with
any driver exposing ``send(Packet)`` (AFF or static).
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional

from ..net.packets import Packet
from ..sim.engine import Simulator
from ..sim.rng import fallback_stream

__all__ = [
    "BurstySender",
    "ContinuousStreamSender",
    "PeriodicSender",
    "PoissonSender",
    "random_payload",
]


def random_payload(rng: random.Random, size_bytes: int) -> bytes:
    """Uniformly random bytes — the experiment's packet contents."""
    return rng.randbytes(size_bytes)


class _SenderBase:
    """Shared plumbing: a chain of simulator callbacks that offers packets
    to a driver.

    :meth:`start` posts one zero-delay event that runs :meth:`_begin`;
    each step then schedules the next, so a sender is a small state
    machine on :meth:`Simulator.schedule` and its first random draw
    happens inside the simulation, not at start-up.
    """

    def __init__(
        self,
        sim: Simulator,
        driver,
        node_id: int,
        packet_bytes: int,
        duration: float,
        rng: Optional[random.Random] = None,
        payload_factory: Optional[Callable[[random.Random, int], bytes]] = None,
    ):
        if packet_bytes < 0:
            raise ValueError("packet_bytes must be >= 0")
        if not duration > 0:  # also rejects NaN, which would never end
            raise ValueError("duration must be positive")
        self.sim = sim
        self.driver = driver
        self.node_id = node_id
        self.packet_bytes = packet_bytes
        self.duration = duration
        self.rng = rng if rng is not None else fallback_stream("apps.workloads.sender")
        self.payload_factory = payload_factory or random_payload
        self.packets_offered = 0

    def start(self) -> None:
        self.sim.schedule(0.0, self._begin)

    def _offer(self) -> None:
        self.driver.send(
            Packet(
                payload=self.payload_factory(self.rng, self.packet_bytes),
                origin=self.node_id,
                created_at=self.sim.now,
            )
        )
        self.packets_offered += 1

    def _deadline_passed(self) -> bool:
        return self.sim.now >= self.duration

    def _begin(self) -> None:
        raise NotImplementedError


def _positive(name: str, value: float) -> float:
    """``value`` if it is a finite positive number, else ValueError."""
    if not 0 < value < math.inf:  # also rejects NaN
        raise ValueError(f"{name} must be positive and finite")
    return value


def _non_negative(name: str, value: float) -> float:
    """``value`` if it is a finite number >= 0, else ValueError."""
    if not 0 <= value < math.inf:  # also rejects NaN
        raise ValueError(f"{name} must be >= 0 and finite")
    return value


class ContinuousStreamSender(_SenderBase):
    """Saturating sender with MAC back-pressure.

    Offers a packet, then polls the radio's MAC queue once per frame
    airtime until it has drained; one airtime after the first poll that
    finds it empty, it offers the next — a driver feeding frames to a
    serial-attached radio as fast as it accepts them.

    The polls that must find the queue busy are never scheduled: the
    sender sleeps on :meth:`Mac.on_drain` and, at the pop that empties
    the queue, schedules only the first poll at or after it.  Sends,
    RNG draws and deadlines are those of polling every airtime.

    Starts are staggered uniformly over ``stagger`` seconds (default: a
    handful of frame times) so independently booted hosts do not
    phase-lock, as they would not in any physical testbed.
    """

    def __init__(self, *args, stagger: Optional[float] = None, **kwargs):
        super().__init__(*args, **kwargs)
        if stagger is not None:
            _non_negative("stagger", stagger)
        self.stagger = stagger

    def _begin(self) -> None:
        radio = self.driver.radio
        self._frame_airtime = (8 * radio.max_frame_bytes) / radio.medium.bitrate
        stagger = self.stagger if self.stagger is not None else 20 * self._frame_airtime
        if stagger > 0:
            self.sim.schedule(self.rng.uniform(0, stagger), self._send_next)
        else:
            self._send_next()

    def _send_next(self) -> None:
        if not self._deadline_passed():
            self._offer()
            self._wait_for_drain()

    def _poll(self) -> None:
        if not self._deadline_passed():
            self._wait_for_drain()

    def _wait_for_drain(self) -> None:
        # Once the MAC queue is empty, wait one extra airtime so the
        # final fragment clears the air before the next packet's
        # introduction is queued.  While it is busy, sleep until it
        # drains, remembering when the polls started.
        mac = self.driver.radio.mac
        if mac.queue_depth:
            self._polls_from = self.sim.now
            mac.on_drain(self._drained)
        else:
            self.sim.schedule(self._frame_airtime, self._send_next)

    def _drained(self) -> None:
        # Replay the poll times with the additions the event queue
        # would have made.  Every poll strictly before this pop finds
        # the queue busy whatever the same-time event order, so only
        # its deadline test matters; the first poll at or after the
        # pop runs for real and re-reads the queue.
        now = self.sim.now
        airtime = self._frame_airtime
        poll = self._polls_from + airtime
        while poll < now:
            if poll >= self.duration:
                return
            poll += airtime
        self.sim.schedule_at(poll, self._poll)


class PeriodicSender(_SenderBase):
    """Fixed-interval sender with optional uniform jitter.

    ``interval`` is the period; ``jitter`` adds U(0, jitter) to each
    gap so nodes do not phase-lock (real deployments never do).
    """

    def __init__(self, *args, interval: float = 1.0, jitter: float = 0.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.interval = _positive("interval", interval)
        self.jitter = _non_negative("jitter", jitter)

    def _begin(self) -> None:
        # Desynchronise starts across nodes.
        self.sim.schedule(self.rng.uniform(0, self.interval), self._tick)

    def _tick(self) -> None:
        if self._deadline_passed():
            return
        self._offer()
        gap = self.interval
        if self.jitter:
            gap += self.rng.uniform(0, self.jitter)
        self.sim.schedule(gap, self._tick)


class PoissonSender(_SenderBase):
    """Poisson arrivals at ``rate`` packets/second."""

    def __init__(self, *args, rate: float = 1.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.rate = _positive("rate", rate)

    def _begin(self) -> None:
        self.sim.schedule(self.rng.expovariate(self.rate), self._arrive)

    def _arrive(self) -> None:
        if not self._deadline_passed():
            self._offer()
            self._begin()


class BurstySender(_SenderBase):
    """On/off bursts: event-driven sensors.

    A motion sensor is silent until something happens, then reports
    rapidly for a while.  Modelled as alternating exponential ON and OFF
    periods; during ON, packets go out every ``burst_interval`` seconds.
    This produces exactly the temporally *clustered* transactions that
    make the effective density spiky — the regime where the
    mixed-duration model and adaptive estimators earn their keep.
    """

    def __init__(
        self,
        *args,
        mean_on: float = 2.0,
        mean_off: float = 10.0,
        burst_interval: float = 0.2,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.mean_on = _positive("mean_on", mean_on)
        self.mean_off = _positive("mean_off", mean_off)
        self.burst_interval = _positive("burst_interval", burst_interval)
        self.bursts = 0

    def _begin(self) -> None:
        # Start somewhere random inside an OFF period.
        self.sim.schedule(self.rng.uniform(0, self.mean_off), self._start_burst)

    def _start_burst(self) -> None:
        if self._deadline_passed():
            return
        self.bursts += 1
        self._burst_end = min(
            self.sim.now + self.rng.expovariate(1.0 / self.mean_on),
            self.duration,
        )
        self._emit()

    def _emit(self) -> None:
        if self.sim.now < self._burst_end:
            self._offer()
            self.sim.schedule(self.burst_interval, self._emit)
        else:
            off = self.rng.expovariate(1.0 / self.mean_off)
            self.sim.schedule(off, self._start_burst)
