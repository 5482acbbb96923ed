"""Flow-level transaction-stream descriptors.

The discrete-event core simulates every 27-byte frame, which caps
scenario size at hundreds of nodes.  The flow layer abstracts one level
up: a :class:`TransactionStream` summarises an aggregate of per-node
packet workloads as a Poisson *arrival rate* plus a per-transaction
*duration* — exactly the two quantities the paper's Eq. 4 needs, via
Little's law ``T = λ·E[D]`` (:func:`repro.core.model.effective_density`).
A :class:`FlowScenario` is a set of such streams over a horizon,
partitioned into fixed-width concurrency windows by the sampler
(:mod:`repro.flow.sampler`).

Builders here do the aggregation:

* :func:`aggregate_node_workload` folds ``n_nodes`` individually
  negligible per-node packet processes into one stream, deriving the
  transaction duration from the payload's fragment count the same way
  the AFF stack's fragmenter would (intro frame + payload frames, one
  host-link gap each).
* :func:`figure4_scenario` reproduces a Figure-4 grid point (density
  ``T``, unit durations) as a single stationary stream — the
  calibration workload.
* :func:`massive_scenario` is the 10k-node family: a network-wide
  telemetry baseline plus a phased event burst that pushes density past
  any reasonable hybrid switch threshold for part of the horizon.

Stream descriptors are frozen dataclasses with a stable canonical
form (their field dict), so flow trials get content-addressed cache
keys and fan out across :class:`repro.exec.TrialRunner` workers like
any other trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..core.model import effective_density

__all__ = [
    "FlowScenario",
    "TransactionStream",
    "aggregate_node_workload",
    "figure4_scenario",
    "massive_scenario",
    "scenario_peak_density",
]

#: Frame geometry used to turn payload bytes into a transaction
#: duration: the paper's 27-byte frame carries an 8-byte payload after
#: identifier + checksum overhead, and the reference host link moves
#: one frame per ``_FRAME_AIRTIME`` seconds.
_FRAME_PAYLOAD_BYTES = 8
_FRAME_AIRTIME = 0.01


@dataclass(frozen=True)
class TransactionStream:
    """One aggregated transaction stream.

    ``arrival_rate`` is the Poisson rate (transactions/second) of the
    aggregate as seen at one point of contention; ``duration`` is the
    per-transaction airtime in seconds.  The stream offers load only
    inside ``[start, stop)`` — phased workloads (bursts, duty cycles)
    are expressed as several streams with different activity windows.
    """

    label: str
    arrival_rate: float
    duration: float
    start: float = 0.0
    stop: float = math.inf

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("stream label must be non-empty")
        if not 0 <= self.arrival_rate < math.inf:
            raise ValueError("arrival_rate must be finite and >= 0")
        if not self.duration > 0:
            raise ValueError("duration must be positive")
        if math.isnan(self.start):
            raise ValueError("stream start must not be NaN")
        if not self.stop > self.start:
            raise ValueError("stream must end after it starts")

    def overlap(self, t0: float, t1: float) -> float:
        """Seconds of ``[t0, t1)`` during which this stream is active."""
        return max(0.0, min(t1, self.stop) - max(t0, self.start))

    @property
    def density(self) -> float:
        """The stream's own steady-state density ``λ·E[D]`` while active."""
        return effective_density(self.arrival_rate, [self.duration])


@dataclass(frozen=True)
class FlowScenario:
    """A flow-level workload: streams over a windowed horizon."""

    id_bits: int
    horizon: float
    window: float
    streams: Tuple[TransactionStream, ...]

    def __post_init__(self) -> None:
        if self.id_bits < 0:
            raise ValueError("id_bits must be >= 0")
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        if not 0 < self.window <= self.horizon:
            raise ValueError("window must be in (0, horizon]")
        if not self.streams:
            raise ValueError("scenario needs at least one stream")
        labels = [stream.label for stream in self.streams]
        if len(set(labels)) != len(labels):
            raise ValueError("stream labels must be unique")

    @property
    def n_windows(self) -> int:
        return math.ceil(self.horizon / self.window)


def transaction_duration(payload_bytes: int) -> float:
    """Airtime of one transaction carrying ``payload_bytes`` of data.

    One introductory frame plus ``ceil(payload / frame payload)``
    payload frames, one frame airtime each — the AFF fragmenter's
    frame count collapsed to a duration.
    """
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be >= 0")
    frames = 1 + math.ceil(payload_bytes / _FRAME_PAYLOAD_BYTES)
    return frames * _FRAME_AIRTIME


def aggregate_node_workload(
    label: str,
    n_nodes: int,
    packets_per_node: float,
    payload_bytes: int = 16,
    start: float = 0.0,
    stop: float = math.inf,
) -> TransactionStream:
    """Aggregate ``n_nodes`` per-node packet processes into one stream.

    Each node offers ``packets_per_node`` transactions per second; the
    superposition of many sparse per-node processes is (asymptotically)
    Poisson with the summed rate, which is what makes the flow
    abstraction exact in the regime it targets.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if packets_per_node < 0:
        raise ValueError("packets_per_node must be >= 0")
    return TransactionStream(
        label=label,
        arrival_rate=n_nodes * packets_per_node,
        duration=transaction_duration(payload_bytes),
        start=start,
        stop=stop,
    )


def figure4_scenario(
    id_bits: int,
    density: float,
    horizon: float = 300.0,
    window: float = 25.0,
) -> FlowScenario:
    """One Figure-4 grid point as a stationary unit-duration stream.

    With ``duration = 1`` the arrival rate *is* the density ``T = λ·E[D]``
    — the same workload :func:`repro.core.montecarlo.simulate_collision_rate`
    draws with ``FixedDuration(1.0)``, which is what calibration compares
    against.
    """
    if density <= 0:
        raise ValueError("density must be positive")
    return FlowScenario(
        id_bits=id_bits,
        horizon=horizon,
        window=window,
        streams=(
            TransactionStream(
                label="figure4", arrival_rate=density, duration=1.0
            ),
        ),
    )


def massive_scenario(
    n_nodes: int = 10_000,
    id_bits: int = 10,
    horizon: float = 600.0,
    window: float = 10.0,
    packets_per_node: float = 0.2,
    burst_fraction: float = 0.05,
    burst_multiplier: float = 8.0,
) -> FlowScenario:
    """The 10k-node scenario family: baseline telemetry plus a burst.

    Every node reports telemetry at ``packets_per_node`` transactions
    per second for the whole horizon; in the middle of the run a
    ``burst_fraction`` of the nodes floods at ``burst_multiplier`` times
    that rate for a tenth of the horizon (a detected-event storm).  The
    burst windows are exactly the contended neighbourhoods the hybrid
    switch exists for.

    At the defaults this is ~1.2M transactions over the horizon —
    infeasible per-frame, seconds at flow level.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if not 0.0 < burst_fraction <= 1.0:
        raise ValueError("burst_fraction must be in (0, 1]")
    if burst_multiplier < 1.0:
        raise ValueError("burst_multiplier must be >= 1")
    burst_nodes = max(1, int(n_nodes * burst_fraction))
    burst_start = 0.45 * horizon
    burst_stop = 0.55 * horizon
    baseline = aggregate_node_workload(
        "telemetry", n_nodes, packets_per_node, payload_bytes=16
    )
    burst = aggregate_node_workload(
        "event-burst",
        burst_nodes,
        packets_per_node * burst_multiplier,
        payload_bytes=64,
        start=burst_start,
        stop=burst_stop,
    )
    return FlowScenario(
        id_bits=id_bits,
        horizon=horizon,
        window=window,
        streams=(baseline, burst),
    )


def scenario_peak_density(scenario: FlowScenario) -> float:
    """The highest steady-state density any window of the horizon offers.

    Evaluated at window granularity from each stream's activity span —
    the quantity to compare against a hybrid switch threshold when
    sizing a run.
    """
    peak = 0.0
    for index in range(scenario.n_windows):
        t0 = index * scenario.window
        t1 = min(t0 + scenario.window, scenario.horizon)
        width = t1 - t0
        if width <= 0:
            continue
        rate = 0.0
        weighted_duration = 0.0
        for stream in scenario.streams:
            share = stream.overlap(t0, t1) / width
            if share > 0:
                rate += stream.arrival_rate * share
                weighted_duration += stream.arrival_rate * share * stream.duration
        if rate > 0:
            peak = max(peak, weighted_duration)
    return peak
