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

import random
from typing import Callable, Optional

from ..net.packets import Packet
from ..sim.engine import Simulator
from ..sim.process import Process, Timeout, spawn
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
    """Shared plumbing: spawn a process that offers packets to a driver."""

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
        self.process: Optional[Process] = None

    def start(self) -> Process:
        self.process = spawn(self.sim, self._run(), name=f"sender{self.node_id}")
        return self.process

    def _make_packet(self) -> Packet:
        return Packet(
            payload=self.payload_factory(self.rng, self.packet_bytes),
            origin=self.node_id,
            created_at=self.sim.now,
        )

    def _deadline_passed(self) -> bool:
        return self.sim.now >= self.duration

    def _run(self):
        raise NotImplementedError


class ContinuousStreamSender(_SenderBase):
    """Saturating sender with MAC back-pressure.

    Offers a packet, then polls (at one frame-airtime granularity) until
    the radio's MAC queue drains before offering the next — a driver
    feeding frames to a serial-attached radio as fast as it accepts them.

    Starts are staggered uniformly over ``stagger`` seconds (default: a
    handful of frame times) so independently booted hosts do not
    phase-lock, as they would not in any physical testbed.
    """

    def __init__(self, *args, stagger: Optional[float] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.stagger = stagger

    def _run(self):
        radio = self.driver.radio
        frame_airtime = (8 * radio.max_frame_bytes) / radio.medium.bitrate
        stagger = self.stagger if self.stagger is not None else 20 * frame_airtime
        if stagger > 0:
            yield Timeout(self.rng.uniform(0, stagger))
        while not self._deadline_passed():
            self.driver.send(self._make_packet())
            self.packets_offered += 1
            while radio.mac.queue_depth > 0:
                yield Timeout(frame_airtime)
                if self._deadline_passed():
                    return
            # One extra airtime so the final fragment clears the air
            # before the next packet's introduction is queued.
            yield Timeout(frame_airtime)


class PeriodicSender(_SenderBase):
    """Fixed-interval sender with optional uniform jitter.

    ``interval`` is the period; ``jitter`` adds U(0, jitter) to each
    gap so nodes do not phase-lock (real deployments never do).
    """

    def __init__(self, *args, interval: float = 1.0, jitter: float = 0.0, **kwargs):
        super().__init__(*args, **kwargs)
        if not interval > 0:
            raise ValueError("interval must be positive")
        if jitter < 0:
            raise ValueError("jitter must be >= 0")
        self.interval = interval
        self.jitter = jitter

    def _run(self):
        # Desynchronise starts across nodes.
        yield Timeout(self.rng.uniform(0, self.interval))
        while not self._deadline_passed():
            self.driver.send(self._make_packet())
            self.packets_offered += 1
            gap = self.interval
            if self.jitter:
                gap += self.rng.uniform(0, self.jitter)
            yield Timeout(gap)


class PoissonSender(_SenderBase):
    """Poisson arrivals at ``rate`` packets/second."""

    def __init__(self, *args, rate: float = 1.0, **kwargs):
        super().__init__(*args, **kwargs)
        if not rate > 0:
            raise ValueError("rate must be positive")
        self.rate = rate

    def _run(self):
        while True:
            yield Timeout(self.rng.expovariate(self.rate))
            if self._deadline_passed():
                return
            self.driver.send(self._make_packet())
            self.packets_offered += 1


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
        if not (mean_on > 0 and mean_off > 0):
            raise ValueError("mean_on and mean_off must be positive")
        if not burst_interval > 0:
            raise ValueError("burst_interval must be positive")
        self.mean_on = mean_on
        self.mean_off = mean_off
        self.burst_interval = burst_interval
        self.bursts = 0

    def _run(self):
        # Start somewhere random inside an OFF period.
        yield Timeout(self.rng.uniform(0, self.mean_off))
        while not self._deadline_passed():
            self.bursts += 1
            burst_end = min(
                self.sim.now + self.rng.expovariate(1.0 / self.mean_on),
                self.duration,
            )
            while self.sim.now < burst_end:
                self.driver.send(self._make_packet())
                self.packets_offered += 1
                yield Timeout(self.burst_interval)
            off = self.rng.expovariate(1.0 / self.mean_off)
            yield Timeout(off)
