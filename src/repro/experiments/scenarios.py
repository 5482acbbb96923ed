"""Extension experiments beyond the paper's four figures.

These measure claims the paper makes qualitatively (Sections 2.3, 3.2,
4.4, 6) but did not plot:

* :func:`measured_efficiency` — end-to-end Eq. 1 efficiency of the real
  AFF stack vs the static-address stack on the radio (not the analytic
  model): total bits on the air vs payload bits delivered.
* :func:`dynamic_allocation_overhead` — the Section 2.3 argument: a
  claim/defend local-address protocol's control traffic vs churn rate,
  amortised against a low data rate, compared with RETRI's zero
  maintenance cost.
* :func:`hidden_terminal_experiment` — Section 3.2's caveat: listening
  cannot avoid identifiers it cannot hear.  Same workload on a full mesh
  vs a star (all senders mutually hidden).
* :func:`interest_scenario` / :func:`codebook_scenario` — the Section 6
  application contexts, measuring misdirection/mis-decode rates and
  header bits per useful event for RETRI vs static identifiers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..aff.driver import AffDriver
from ..aff.static_frag import StaticDriver
from ..apps.codebook import CodebookReceiver, CodebookSender
from ..apps.interest import InterestSink, InterestSource
from ..apps.workloads import PeriodicSender
from ..core.identifiers import IdentifierSpace, ListeningSelector, UniformSelector
from ..core.policies import DynamicLocalPolicy, RetriPolicy, StaticGlobalPolicy
from ..exec import TrialRunner, TrialSpec
from ..net.packets import BitBudget
from ..radio.mac import CsmaMac
from ..radio.medium import BroadcastMedium
from ..radio.radio import Radio
from ..sim.engine import Simulator
from ..sim.rng import RngRegistry
from ..topology.graphs import FullMesh, Star
from .harness import CollisionTrialConfig, run_collision_trial
from .results import Table

__all__ = [
    "EfficiencyMeasurement",
    "codebook_scenario",
    "density_estimation_accuracy",
    "density_step_tracking",
    "dynamic_allocation_overhead",
    "flooding_scenario",
    "hidden_terminal_experiment",
    "interest_scenario",
    "massive_flow_scenario",
    "measured_efficiency",
]


# ----------------------------------------------------------------------
# Measured end-to-end efficiency (AFF stack vs static stack)
# ----------------------------------------------------------------------
@dataclass
class EfficiencyMeasurement:
    """Eq. 1 computed from real on-air ledgers."""

    scheme: str
    header_bits: int
    total_bits_transmitted: int
    useful_bits_received: int
    packets_delivered: int

    @property
    def efficiency(self) -> float:
        if self.total_bits_transmitted == 0:
            return float("nan")
        return self.useful_bits_received / self.total_bits_transmitted


def measured_efficiency(
    scheme: str,
    id_bits: int,
    n_senders: int = 5,
    packet_bytes: int = 2,
    interval: float = 1.0,
    duration: float = 60.0,
    mtu_bytes: int = 27,
    seed: int = 0,
) -> EfficiencyMeasurement:
    """Run periodic small-packet traffic and measure delivered efficiency.

    ``scheme`` is ``"aff"`` or ``"static"``; ``id_bits`` sets the AFF
    identifier size or the static address width respectively.
    """
    if scheme not in ("aff", "static"):
        raise ValueError("scheme must be 'aff' or 'static'")
    rngs = RngRegistry(seed)
    sim = Simulator()
    topology = FullMesh(range(n_senders + 1))
    medium = BroadcastMedium(
        sim, topology, rf_collisions=False, rng=rngs.stream("medium")
    )
    budget = BitBudget()
    receiver_id = n_senders
    delivered_counter = {"n": 0}

    def counting_deliver(payload: bytes) -> None:
        budget.credit_useful(8 * len(payload))
        delivered_counter["n"] += 1

    receiver_radio = Radio(
        medium, receiver_id, max_frame_bytes=mtu_bytes,
        mac=CsmaMac(rng=rngs.stream("mac.rx")),
    )
    sender_policy = None
    if scheme == "aff":
        rx_selector = UniformSelector(IdentifierSpace(id_bits), rngs.stream("sel.rx"))
        AffDriver(receiver_radio, rx_selector, deliver=counting_deliver)
    else:
        sender_policy = StaticGlobalPolicy(addr_bits=id_bits, rng=rngs.stream("policy"))
        StaticDriver(receiver_radio, sender_policy, deliver=counting_deliver)

    senders = []
    for node in range(n_senders):
        radio = Radio(
            medium, node, max_frame_bytes=mtu_bytes,
            mac=CsmaMac(rng=rngs.stream(f"mac.{node}")),
        )
        if scheme == "aff":
            selector = UniformSelector(
                IdentifierSpace(id_bits), rngs.stream(f"sel.{node}")
            )
            driver = AffDriver(radio, selector, budget=budget)
        else:
            driver = StaticDriver(radio, sender_policy, budget=budget)
        sender = PeriodicSender(
            sim,
            driver,
            node_id=node,
            packet_bytes=packet_bytes,
            duration=duration,
            rng=rngs.stream(f"traffic.{node}"),
            interval=interval,
            jitter=interval / 4,
        )
        sender.start()
        senders.append(sender)

    sim.run(until=duration + 2.0)
    return EfficiencyMeasurement(
        scheme=scheme,
        header_bits=id_bits,
        total_bits_transmitted=budget.total_transmitted,
        useful_bits_received=budget.useful_received,
        packets_delivered=delivered_counter["n"],
    )


# ----------------------------------------------------------------------
# Dynamic local allocation overhead vs churn (Section 2.3)
# ----------------------------------------------------------------------
def dynamic_allocation_overhead(
    n_nodes: int = 50,
    addr_bits: int = 10,
    churn_events: int = 100,
    data_bits_per_node: int = 256,
    seed: int = 0,
) -> Dict[str, float]:
    """Cost of keeping locally unique addresses under churn.

    Simulates ``churn_events`` node replacements (leave + join, each join
    re-running the claim/defend protocol against the current occupancy),
    then amortises total control bits against the useful data each node
    transmits.  Returns effective efficiencies for the dynamic scheme and
    for RETRI at the same header size (which has no control traffic and
    pays only its collision rate, here taken from the analytic model with
    T = number of concurrently transmitting nodes = n_nodes in the worst
    case of a fully connected cluster).
    """
    from ..core import model as _model

    rng = random.Random(seed)
    policy = DynamicLocalPolicy(addr_bits=addr_bits, rng=rng)
    for node in range(n_nodes):
        policy.join(node)
    live = list(range(n_nodes))
    next_id = n_nodes
    for _ in range(churn_events):
        victim = rng.choice(live)
        live.remove(victim)
        policy.leave(victim)
        policy.join(next_id)
        live.append(next_id)
        next_id += 1

    total_data_bits = n_nodes * data_bits_per_node
    header_per_packet = addr_bits
    # One packet per node per "epoch" with data_bits_per_node of payload.
    total_header_bits = n_nodes * header_per_packet
    control = policy.control_bits_spent
    dynamic_efficiency = total_data_bits / (
        total_data_bits + total_header_bits + control
    )
    p_ok = _model.p_success(addr_bits, n_nodes)
    retri_efficiency = (total_data_bits * p_ok) / (total_data_bits + total_header_bits)
    return {
        "control_bits": float(control),
        "claims_sent": float(policy.claims_sent),
        "conflicts": float(policy.conflicts_resolved),
        "dynamic_efficiency": dynamic_efficiency,
        "retri_efficiency": float(retri_efficiency),
    }


# ----------------------------------------------------------------------
# Hidden terminals: listening's blind spot (Section 3.2)
# ----------------------------------------------------------------------
def _star_factory(n: int) -> Star:
    return Star(hub=n, leaves=range(n))


def _hidden_terminal_trial(
    topology: str, selector: str, id_bits: int, n_senders: int,
    duration: float, seed: int,
) -> float:
    """One (topology, selector) cell of the hidden-terminal comparison."""
    config = CollisionTrialConfig(
        id_bits=id_bits,
        n_senders=n_senders,
        duration=duration,
        selector=selector,
        seed=seed,
        topology_factory=(_star_factory if topology == "star" else None),
    )
    return run_collision_trial(config).collision_loss_rate


def hidden_terminal_experiment(
    id_bits: int = 5,
    n_senders: int = 5,
    duration: float = 60.0,
    seed: int = 0,
    runner: Optional[TrialRunner] = None,
) -> Dict[str, float]:
    """Collision-loss rate of listening selection: full mesh vs star.

    In the star, senders cannot hear each other, so listening degenerates
    to uniform selection; in the full mesh it avoids most collisions.
    Returns the four measured rates.  The four cells are independent
    trials and fan out across the ``runner``'s workers; all cells keep
    the caller's seed, so results match the historical serial loop
    exactly.
    """
    runner = runner if runner is not None else TrialRunner()
    cells = [
        (topology, selector)
        for topology in ("mesh", "star")
        for selector in ("uniform", "listening")
    ]
    outcomes = runner.run(
        [
            TrialSpec(
                fn=_hidden_terminal_trial,
                kwargs=dict(
                    topology=topology,
                    selector=selector,
                    id_bits=id_bits,
                    n_senders=n_senders,
                    duration=duration,
                    seed=seed,
                ),
                label=f"hidden-terminal:{topology}.{selector}",
            )
            for topology, selector in cells
        ]
    )
    return {
        f"{topology}.{selector}": (
            float(outcome.value) if outcome.ok else float("nan")
        )
        for (topology, selector), outcome in zip(cells, outcomes)
    }


# ----------------------------------------------------------------------
# Multi-hop flooding with RETRI duplicate suppression
# ----------------------------------------------------------------------
def flooding_scenario(
    id_bits: int = 8,
    rows: int = 6,
    cols: int = 6,
    n_floods: int = 40,
    flood_interval: float = 0.2,
    payload_bytes: int = 8,
    dedup_window: float = 5.0,
    static: bool = False,
    seed: int = 0,
) -> Dict[str, float]:
    """Flood a grid; measure coverage, cost, and collision suppression.

    Floods are originated from random nodes at ``flood_interval`` spacing
    (several are in flight at once), each with a unique ground-truth
    payload.  Coverage is the fraction of nodes that delivered a flood's
    payload; identifier collisions suppress forwarding in part of the
    mesh and show up as lost coverage.  With ``static=True`` the
    identifier field carries the traditional (source, seq) pair instead —
    collision-free, but the field must be wide enough for
    ``log2(nodes) + seq`` bits, which is what RETRI saves.
    """
    from ..apps.flooding import FloodNode
    from ..topology.graphs import Grid

    rngs = RngRegistry(seed)
    sim = Simulator()
    grid = Grid(rows, cols)
    n_nodes = rows * cols
    medium = BroadcastMedium(sim, grid, rf_collisions=False,
                             rng=rngs.stream("medium"))
    budget = BitBudget()

    delivered_by_payload: Dict[bytes, set] = {}
    nodes: Dict[int, FloodNode] = {}
    for node_id in sorted(grid.nodes):
        radio = Radio(medium, node_id, max_frame_bytes=64,
                      mac=CsmaMac(rng=rngs.stream(f"mac.{node_id}")))

        def deliver(payload: bytes, node_id=node_id) -> None:
            delivered_by_payload.setdefault(payload, set()).add(node_id)

        nodes[node_id] = FloodNode(
            sim,
            radio,
            UniformSelector(IdentifierSpace(id_bits), rngs.stream(f"sel.{node_id}")),
            dedup_window=dedup_window,
            static_source=(node_id if static else None),
            deliver=deliver,
            budget=budget,
            rng=rngs.stream(f"fwd.{node_id}"),
        )

    traffic = rngs.stream("traffic")
    payloads = []
    for i in range(n_floods):
        origin = traffic.randrange(n_nodes)
        payload = i.to_bytes(4, "big") + traffic.randbytes(payload_bytes - 4)
        payloads.append((origin, payload))
        sim.schedule(
            i * flood_interval + traffic.uniform(0, flood_interval / 4),
            nodes[origin].originate,
            payload,
        )
    sim.run(until=n_floods * flood_interval + 20.0)

    coverages = []
    for origin, payload in payloads:
        covered = delivered_by_payload.get(payload, set()) | {origin}
        coverages.append(len(covered) / n_nodes)
    total_tx = sum(n.stats.originated + n.stats.forwarded for n in nodes.values())
    suppressed = sum(n.stats.suppressed_duplicates for n in nodes.values())
    return {
        "mean_coverage": sum(coverages) / len(coverages),
        "min_coverage": min(coverages),
        "full_coverage_fraction": sum(1 for c in coverages if c >= 1.0) / len(coverages),
        "transmissions": float(total_tx),
        "suppressed": float(suppressed),
        "header_bits_per_flood": budget.transmitted("header") / n_floods,
        "total_bits": float(budget.total_transmitted),
    }


# ----------------------------------------------------------------------
# Density estimation accuracy (the paper's closing future work)
# ----------------------------------------------------------------------
def density_estimation_accuracy(
    n_senders: int = 5,
    id_bits: int = 8,
    duration: float = 30.0,
    seed: int = 0,
) -> Dict[str, float]:
    """How well can a passive node estimate the transaction density ``T``?

    Runs the standard continuous-stream workload and feeds every
    estimator the same signal an eavesdropping node actually has:
    overheard introductions (begin) and an airtime-derived TTL (end).
    Returns each estimator's final estimate alongside the ground-truth
    time-weighted density from the omniscient transaction log.
    """
    from ..aff.wire import FragmentCodec, IntroFragment, MalformedFragmentError
    from ..apps.workloads import ContinuousStreamSender
    from ..core.estimators import (
        EwmaEstimator,
        InstantaneousEstimator,
        LittlesLawEstimator,
        WindowedTimeAverageEstimator,
    )
    from ..core.transactions import TransactionLog
    from ..radio.mac import AlohaMac

    rngs = RngRegistry(seed)
    sim = Simulator()
    topology = FullMesh(range(n_senders + 1))
    medium = BroadcastMedium(sim, topology, rf_collisions=False,
                             rng=rngs.stream("medium"))
    txn_log = TransactionLog()
    mtu = 27
    host_gap = (8 * mtu) / 9600.0

    estimators = {
        "instantaneous": InstantaneousEstimator(),
        "ewma": EwmaEstimator(),
        "windowed": WindowedTimeAverageEstimator(window=2.0),
        "littles_law": LittlesLawEstimator(window=5.0),
    }
    codec = FragmentCodec(id_bits)
    observer_radio = Radio(medium, n_senders, max_frame_bytes=mtu,
                           mac=AlohaMac(gap=host_gap))

    frame_airtime = (8 * mtu) / medium.bitrate

    def observe(frame):
        try:
            fragment = codec.decode_frame(frame)
        except MalformedFragmentError:
            return
        if not isinstance(fragment, IntroFragment):
            return
        now = sim.now
        fragments = 1 + -(-fragment.total_length // codec.max_payload_in_frame(mtu))
        # Paper-faithful end signal: transactions are assumed same-length,
        # so the observer uses the announced size to infer duration.  The
        # 4x headroom mirrors the AFF driver's own TTL heuristic.
        ttl = 4.0 * fragments * frame_airtime
        for est in estimators.values():
            est.observe_begin(now)
        for est in estimators.values():
            sim.schedule(ttl, est.observe_end, now + ttl)

    observer_radio.set_receive_handler(observe)

    for node in range(n_senders):
        radio = Radio(medium, node, max_frame_bytes=mtu, mac=AlohaMac(gap=host_gap))
        selector = UniformSelector(IdentifierSpace(id_bits), rngs.stream(f"s{node}"))
        driver = AffDriver(radio, selector, txn_log=txn_log)
        ContinuousStreamSender(
            sim, driver, node_id=node, packet_bytes=80, duration=duration,
            rng=rngs.stream(f"t{node}"),
        ).start()

    sim.run(until=duration)
    truth = txn_log.measured_density()
    out = {"ground_truth": truth}
    for name, est in estimators.items():
        value = est.estimate(sim.now)
        out[name] = value
        out[f"{name}_error"] = abs(value - truth) / truth
    return out


def density_step_tracking(
    low_senders: int = 2,
    high_senders: int = 10,
    phase_seconds: float = 20.0,
    id_bits: int = 8,
    sample_interval: float = 1.0,
    seed: int = 0,
) -> Dict[str, object]:
    """How fast does a listening node's T estimate track a load step?

    Phase 1: ``low_senders`` stream continuously; phase 2: the remaining
    senders switch on too.  A passive listening driver's internal
    density estimate is sampled over time and compared with the
    per-phase ground truth.  Returns the sampled trajectory plus
    per-phase summary statistics (the benchmark asserts the estimate
    settles near each phase's truth).
    """
    from ..aff.wire import IntroFragment, MalformedFragmentError
    from ..apps.workloads import ContinuousStreamSender
    from ..core.identifiers import ListeningSelector
    from ..core.transactions import TransactionLog
    from ..radio.mac import AlohaMac

    rngs = RngRegistry(seed)
    sim = Simulator()
    total = high_senders
    topology = FullMesh(range(total + 1))
    medium = BroadcastMedium(sim, topology, rf_collisions=False,
                             rng=rngs.stream("medium"))
    mtu = 27
    host_gap = (8 * mtu) / 9600.0
    txn_log = TransactionLog()

    observer_radio = Radio(medium, total, max_frame_bytes=mtu,
                           mac=AlohaMac(gap=host_gap))
    observer_selector = ListeningSelector(
        IdentifierSpace(id_bits), rngs.stream("obs"), density_hint=1.0,
    )
    observer = AffDriver(observer_radio, observer_selector, listening=True)

    for node in range(total):
        radio = Radio(medium, node, max_frame_bytes=mtu,
                      mac=AlohaMac(gap=host_gap))
        driver = AffDriver(
            radio,
            UniformSelector(IdentifierSpace(id_bits), rngs.stream(f"s{node}")),
            txn_log=txn_log,
        )
        if node < low_senders:
            start, duration = 0.0, 2 * phase_seconds
        else:
            start, duration = phase_seconds, 2 * phase_seconds
        sender = ContinuousStreamSender(
            sim, driver, node_id=node, packet_bytes=80,
            duration=duration, rng=rngs.stream(f"t{node}"),
        )
        sim.schedule(start, sender.start)

    samples: List[Tuple[float, float]] = []

    def sample():
        samples.append((sim.now, observer_selector.density_estimate))
        if sim.now < 2 * phase_seconds:
            sim.schedule(sample_interval, sample)

    sim.schedule(sample_interval, sample)
    sim.run(until=2 * phase_seconds + 1.0)

    phase1 = [v for t, v in samples if 0.5 * phase_seconds <= t < phase_seconds]
    phase2 = [v for t, v in samples if t >= 1.5 * phase_seconds]
    return {
        "samples": samples,
        "phase1_mean_estimate": sum(phase1) / len(phase1) if phase1 else float("nan"),
        "phase2_mean_estimate": sum(phase2) / len(phase2) if phase2 else float("nan"),
        "phase1_truth": float(low_senders),
        "phase2_truth": float(high_senders),
        "ground_truth_overall": txn_log.measured_density(),
    }


# ----------------------------------------------------------------------
# Section 6 application scenarios
# ----------------------------------------------------------------------
def interest_scenario(
    id_bits: int = 6,
    n_sources: int = 8,
    duration: float = 120.0,
    static: bool = False,
    seed: int = 0,
) -> Dict[str, float]:
    """Interest reinforcement: misdirection rate and header cost.

    With ``static=True`` sources use fixed unique identifiers drawn from
    the same-width space (collision-free only if the space fits all
    sources) — pass a wider ``id_bits`` to model true static addressing.
    """
    rngs = RngRegistry(seed)
    sim = Simulator()
    sink_id = n_sources
    topology = FullMesh(range(n_sources + 1))
    medium = BroadcastMedium(sim, topology, rf_collisions=False,
                             rng=rngs.stream("medium"))
    budget = BitBudget()
    sink_radio = Radio(medium, sink_id, mac=CsmaMac(rng=rngs.stream("mac.sink")))
    sink = InterestSink(sim, sink_radio, id_bits=id_bits, budget=budget)

    sources: List[InterestSource] = []
    for node in range(n_sources):
        radio = Radio(medium, node, mac=CsmaMac(rng=rngs.stream(f"mac.{node}")))
        selector = UniformSelector(IdentifierSpace(id_bits), rngs.stream(f"sel.{node}"))
        source = InterestSource(
            sim,
            radio,
            selector,
            static_identifier=(node if static else None),
            budget=budget,
            rng=rngs.stream(f"src.{node}"),
        )
        source.start()
        sources.append(source)

    sim.run(until=duration)
    readings = sum(s.stats.readings_sent for s in sources)
    received = sum(s.stats.reinforcements_received for s in sources)
    correct = sum(s.stats.reinforcements_correct for s in sources)
    misdirected = sum(s.stats.reinforcements_misdirected for s in sources)
    return {
        "readings_sent": float(readings),
        "feedback_sent": float(sink.feedback_sent),
        "reinforcements": float(received),
        "correct": float(correct),
        "misdirected": float(misdirected),
        "misdirection_rate": misdirected / received if received else float("nan"),
        "header_bits_per_correct": (
            budget.transmitted("header") / correct if correct else float("nan")
        ),
    }


def codebook_scenario(
    code_bits: int = 6,
    n_senders: int = 6,
    n_attributes: int = 4,
    reports: int = 200,
    binding_lifetime: float = 30.0,
    static: bool = False,
    notify_clashes: bool = False,
    seed: int = 0,
) -> Dict[str, float]:
    """Attribute compression: mis-decode rate and bits per decoded report."""
    rngs = RngRegistry(seed)
    sim = Simulator()
    receiver_id = n_senders
    topology = FullMesh(range(n_senders + 1))
    medium = BroadcastMedium(sim, topology, rf_collisions=False,
                             rng=rngs.stream("medium"))
    budget = BitBudget()
    # Codebook bindings carry whole attribute strings in one frame; this
    # context is not tied to the RPC's 27-byte limit (Section 6 describes
    # it independently of the fragmentation case study).
    app_mtu = 255
    rx_radio = Radio(medium, receiver_id, max_frame_bytes=app_mtu,
                     mac=CsmaMac(rng=rngs.stream("mac.rx")))
    receiver = CodebookReceiver(sim, rx_radio, code_bits=code_bits,
                                notify_clashes=notify_clashes)

    attributes = [
        f"type=temp,quadrant=Q{i},unit=C,node-class=mica".encode() for i in range(n_attributes)
    ]
    senders: List[CodebookSender] = []
    for node in range(n_senders):
        radio = Radio(medium, node, max_frame_bytes=app_mtu,
                      mac=CsmaMac(rng=rngs.stream(f"mac.{node}")))
        selector = UniformSelector(IdentifierSpace(code_bits), rngs.stream(f"sel.{node}"))
        static_fn = None
        if static:
            # Guaranteed-unique codes: node id in the high bits, attribute
            # index low — requires the space to be wide enough.
            def static_fn(attribute, _node=node):
                return (_node * n_attributes + attributes.index(attribute)) % (
                    1 << code_bits
                )
        senders.append(
            CodebookSender(
                sim,
                radio,
                selector,
                binding_lifetime=binding_lifetime,
                static_code_fn=static_fn,
                budget=budget,
            )
        )

    traffic_rng = rngs.stream("traffic")
    interval = 0.5
    for i in range(reports):
        sender = senders[traffic_rng.randrange(n_senders)]
        attribute = attributes[traffic_rng.randrange(n_attributes)]
        value = traffic_rng.randrange(1 << 16)
        sim.schedule(i * interval + traffic_rng.uniform(0, interval / 2),
                     sender.report, attribute, value)
    sim.run(until=reports * interval + 10.0)

    stats = receiver.stats
    return {
        "reports_heard": float(stats.reports_heard),
        "decoded": float(stats.reports_decoded),
        "correct": float(stats.reports_correct),
        "misdecoded": float(stats.reports_misdecoded),
        "undecodable": float(stats.reports_undecodable),
        "clashes_detected": float(stats.code_clashes_detected),
        "misdecode_rate": stats.misdecode_rate(),
        "bits_per_decoded": (
            budget.total_transmitted / stats.reports_decoded
            if stats.reports_decoded
            else float("nan")
        ),
    }


# ----------------------------------------------------------------------
# Massive flow-level scenario (repro.flow)
# ----------------------------------------------------------------------
def massive_flow_scenario(
    n_nodes: int = 10_000,
    id_bits: int = 10,
    horizon: float = 120.0,
    window: float = 10.0,
    packets_per_node: float = 0.2,
    switch_threshold: float = 70.0,
    seed: int = 0,
    runner: Optional[TrialRunner] = None,
    flow_shards: Optional[int] = None,
) -> Dict[str, float]:
    """The 10k-node family at flow fidelity, with a hybrid cross-check.

    Orders of magnitude beyond what the frame simulator can hold (at
    the defaults, ~240k transactions over the horizon), the workload is
    a network-wide telemetry baseline plus an event-storm burst.  Runs
    the scenario at flow fidelity, then again in hybrid mode so only
    the burst windows (density past ``switch_threshold``) pay for
    frame-level replay — the reported gap between the two is the
    fidelity the analytic sampler gives up inside contended windows.

    With ``runner`` (and optionally ``flow_shards``) both runs shard
    their window plans across the runner's workers — the returned
    numbers are bit-identical to the serial path at any worker/shard
    count (:mod:`repro.flow.shard`).
    """
    from ..flow import (
        massive_scenario,
        scenario_peak_density,
        simulate,
        simulate_sharded,
    )

    scenario = massive_scenario(
        n_nodes=n_nodes,
        id_bits=id_bits,
        horizon=horizon,
        window=window,
        packets_per_node=packets_per_node,
    )
    if runner is not None or flow_shards is not None:
        flow = simulate_sharded(
            scenario,
            seed,
            fidelity="flow",
            shards=flow_shards,
            runner=runner,
        )
        hybrid = simulate_sharded(
            scenario,
            seed,
            fidelity="hybrid",
            switch_threshold=switch_threshold,
            shards=flow_shards,
            runner=runner,
        )
    else:
        flow = simulate(scenario, seed, fidelity="flow")
        hybrid = simulate(
            scenario, seed, fidelity="hybrid", switch_threshold=switch_threshold
        )
    return {
        "nodes": float(n_nodes),
        "peak_density": scenario_peak_density(scenario),
        "flow_transactions": float(flow.transactions),
        "flow_collision_rate": flow.collision_rate,
        "hybrid_collision_rate": hybrid.collision_rate,
        "hybrid_frame_windows": float(hybrid.frame_windows),
        "windows": float(len(flow.windows)),
        "fidelity_gap": abs(flow.collision_rate - hybrid.collision_rate),
    }
