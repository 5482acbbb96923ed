"""The Section 5.1 validation experiment, as a reusable harness.

Reproduces the paper's testbed in simulation: ``n_senders`` transmitters
continuously streaming random packets to one instrumented receiver, all
fully connected (or any other topology), for a fixed duration; repeated
over seeds; collision-loss rates aggregated as mean ± stddev.

The defaults mirror the paper exactly: 5 transmitters, 80-byte packets
(five fragments on a 27-byte-MTU radio: one introduction + four data),
two-minute trials, ten trials per configuration, selection either
uniform-random or listening.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, List, Optional

from .. import __version__
from ..exec import (
    ExecError,
    TrialRunner,
    TrialSpec,
    canonical_point,
    derive_trial_seed,
    trial_key,
)
from ..aff.driver import AffDriver
from ..aff.instrumented import InstrumentedReceiver
from ..apps.workloads import ContinuousStreamSender
from ..core.identifiers import (
    IdentifierSpace,
    ListeningSelector,
    OracleSelector,
    UniformSelector,
)
from ..core.transactions import TransactionLog
from ..radio.mac import AlohaMac
from ..radio.medium import BroadcastMedium
from ..radio.radio import Radio
from ..sim.engine import Simulator
from ..sim.rng import RngRegistry
from ..sim.trace import TraceRecorder
from ..topology.graphs import FullMesh, Topology
from .results import aggregate_trials

__all__ = ["CollisionTrialConfig", "TrialResult", "run_collision_trial", "replicate"]

#: selector algorithm names accepted by the harness
SELECTORS = ("uniform", "listening", "oracle")


@dataclass
class CollisionTrialConfig:
    """Parameters of one collision-measurement trial (paper defaults)."""

    id_bits: int = 8
    n_senders: int = 5
    packet_bytes: int = 80
    duration: float = 120.0
    mtu_bytes: int = 27
    bitrate: float = 40_000.0
    #: Host-to-radio transfer rate.  The RPC packet controller accepts
    #: frames over a slow serial link, so a host's own frames are spaced
    #: out and different hosts' fragments interleave on the air — the
    #: regime in which all T senders' transactions genuinely overlap.
    host_link_bitrate: float = 9600.0
    selector: str = "uniform"
    #: receiver broadcasts explicit collision notifications (Section 3.2);
    #: only matters with learning selectors ("listening").
    notify_collisions: bool = False
    #: fraction of introductions a listening sender actually overhears
    #: (radio duty-cycling, Section 3.2's power remark)
    listen_duty_cycle: float = 1.0
    seed: int = 0
    rf_collisions: bool = False
    channel_factory: Optional[Callable] = None
    topology_factory: Optional[Callable[[int], Topology]] = None
    reassembly_timeout: float = 5.0

    @property
    def host_gap(self) -> float:
        """Seconds to shuttle one frame from host to radio."""
        return (8 * self.mtu_bytes) / self.host_link_bitrate

    def __post_init__(self) -> None:
        if self.selector not in SELECTORS:
            raise ValueError(
                f"selector must be one of {SELECTORS}, got {self.selector!r}"
            )
        if self.n_senders < 1:
            raise ValueError("need at least one sender")
        # Checked here so a bad value fails before any trial is built:
        # an infinite duration or bitrate never ends a trial, a NaN
        # timeout never evicts, and a zero host link divides by zero.
        for name in ("duration", "bitrate", "host_link_bitrate", "reassembly_timeout"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not 0.0 <= self.listen_duty_cycle <= 1.0:
            raise ValueError(
                f"listen_duty_cycle must be in [0, 1], got {self.listen_duty_cycle!r}"
            )


@dataclass
class TrialResult:
    """Outcome of one trial.

    ``collision_loss_rate`` follows the paper's methodology (packets
    that *would have been lost* to identifier collisions, out of those
    receivable with unique ids); ``e2e_loss_rate`` is the stricter real
    delivery shortfall of the AFF reassembler.
    """

    config: CollisionTrialConfig
    received_unique: int
    received_aff: int
    would_be_lost: int
    collision_loss_rate: float
    e2e_loss_rate: float
    measured_density: float
    packets_offered: int
    ground_truth_collision_rate: float
    frames_delivered: int
    frames_dropped_rf: int
    frames_dropped_channel: int


#: Receiver node id convention: senders are 0..n-1, the receiver is n.
def _build_topology(config: CollisionTrialConfig) -> Topology:
    if config.topology_factory is not None:
        return config.topology_factory(config.n_senders)
    return FullMesh(range(config.n_senders + 1))


def _make_selector(config: CollisionTrialConfig, rng: random.Random, shared_oracle):
    space = IdentifierSpace(config.id_bits)
    if config.selector == "uniform":
        return UniformSelector(space, rng)
    if config.selector == "listening":
        return ListeningSelector(space, rng, density_hint=config.n_senders)
    return OracleSelector(space, rng, active=shared_oracle)


def run_collision_trial(
    config: CollisionTrialConfig,
    recorder: Optional[TraceRecorder] = None,
) -> TrialResult:
    """Run one trial and report the paper's Figure 4 observables.

    ``recorder`` optionally captures the medium's frame-level trace
    stream (``frame.tx`` / ``frame.rx`` / ``frame.drop``) for export via
    :mod:`repro.obs` — observational only, results are identical with
    or without it.
    """
    rngs = RngRegistry(config.seed)
    sim = Simulator()
    topology = _build_topology(config)
    medium = BroadcastMedium(
        sim,
        topology,
        bitrate=config.bitrate,
        rf_collisions=config.rf_collisions,
        channel_factory=config.channel_factory,
        recorder=recorder,
        rng=rngs.stream("medium"),
    )
    txn_log = TransactionLog()
    shared_oracle = OracleSelector.shared_registry()

    receiver_id = config.n_senders
    receiver_radio = Radio(
        medium,
        receiver_id,
        max_frame_bytes=config.mtu_bytes,
        mac=AlohaMac(gap=config.host_gap),
    )
    receiver = InstrumentedReceiver(
        receiver_radio,
        id_bits=config.id_bits,
        reassembly_timeout=config.reassembly_timeout,
        notify_collisions=config.notify_collisions,
    )

    senders: List[ContinuousStreamSender] = []
    for node in range(config.n_senders):
        radio = Radio(
            medium,
            node,
            max_frame_bytes=config.mtu_bytes,
            mac=AlohaMac(gap=config.host_gap),
        )
        selector = _make_selector(config, rngs.stream(f"selector.{node}"), shared_oracle)
        driver = AffDriver(
            radio,
            selector,
            listening=(config.selector == "listening"),
            listen_duty_cycle=config.listen_duty_cycle,
            listen_rng=rngs.stream(f"duty.{node}"),
            reassembly_timeout=config.reassembly_timeout,
            txn_log=txn_log,
        )
        sender = ContinuousStreamSender(
            sim,
            driver,
            node_id=node,
            packet_bytes=config.packet_bytes,
            duration=config.duration,
            rng=rngs.stream(f"traffic.{node}"),
        )
        sender.start()
        senders.append(sender)

    # Run past the deadline so in-flight fragments resolve.
    sim.run(until=config.duration + 1.0)

    return TrialResult(
        config=config,
        received_unique=receiver.counts.received_unique,
        received_aff=receiver.counts.received_aff,
        would_be_lost=receiver.counts.would_be_lost,
        collision_loss_rate=receiver.collision_loss_rate(),
        e2e_loss_rate=receiver.e2e_loss_rate(),
        measured_density=txn_log.measured_density(),
        packets_offered=sum(s.packets_offered for s in senders),
        ground_truth_collision_rate=txn_log.collision_rate(),
        frames_delivered=medium.stats.deliveries,
        frames_dropped_rf=medium.stats.rf_collision_drops,
        frames_dropped_channel=medium.stats.channel_drops,
    )


#: TrialResult fields that cross the worker/cache boundary (everything
#: but the config, which the parent re-attaches — configs may hold
#: callables that have no JSON form).
_OBSERVABLE_FIELDS = tuple(
    f.name for f in fields(TrialResult) if f.name != "config"
)


def _trial_observables(config: CollisionTrialConfig) -> Dict[str, Any]:
    """Run one trial, returning its observables as a JSON-safe dict."""
    result = run_collision_trial(config)
    return {name: getattr(result, name) for name in _OBSERVABLE_FIELDS}


def replicate(
    config: CollisionTrialConfig,
    trials: int = 10,
    runner: Optional[TrialRunner] = None,
) -> tuple[float, float, List[TrialResult]]:
    """Run ``trials`` seeded replicates; returns (mean, stddev, results).

    Matches the paper's protocol: "Ten trials were executed for each
    identifier size."  Replicate ``k`` runs with
    ``derive_seed(config.seed, f"trial:{point}:{k}")`` where ``point``
    is the canonical form of the configuration (minus its seed) — see
    :mod:`repro.exec.keys` for why the additive ``seed + 1000*k``
    convention was retired.

    Pass a :class:`repro.exec.TrialRunner` to fan replicates out across
    worker processes and/or serve them from the result cache; worker
    count never changes the returned values.  Failed replicates are
    dropped from the aggregate (their structured failure records are in
    the runner's telemetry); if *every* replicate fails, the first
    failure is raised as :class:`repro.exec.ExecError`.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    runner = runner if runner is not None else TrialRunner()
    point = canonical_point(
        {
            f.name: getattr(config, f.name)
            for f in fields(config)
            if f.name != "seed"
        }
    )
    specs: List[TrialSpec] = []
    configs: List[CollisionTrialConfig] = []
    for k in range(trials):
        seed = derive_trial_seed(config.seed, point, k)
        trial_config = replace(config, seed=seed)
        configs.append(trial_config)
        key = None
        if runner.cache is not None:
            key = trial_key(
                "repro.experiments.harness.run_collision_trial",
                {"config": trial_config},
                seed,
                __version__,
            )
        specs.append(
            TrialSpec(
                fn=_trial_observables,
                kwargs={"config": trial_config},
                label=f"collision-trial#{k}",
                cache_key=key,
            )
        )
    outcomes = runner.run(specs)
    results = [
        TrialResult(config=trial_config, **outcome.value)
        for trial_config, outcome in zip(configs, outcomes)
        if outcome.ok
    ]
    if not results:
        failures = [o.failure for o in outcomes if o.failure is not None]
        detail = failures[0].render() if failures else "no outcomes"
        raise ExecError(f"all {trials} replicates failed; first: {detail}")
    mean, stdev = aggregate_trials([r.collision_loss_rate for r in results])
    return mean, stdev, results
