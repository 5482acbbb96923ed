"""ContinuousStreamSender against the polling sender it replaced.

:class:`PollingStreamSender` below is the original back-pressured
sender, kept here only as the oracle: it schedules one poll of the MAC
queue per frame airtime until the queue drains.  The production sender
sleeps on the MAC's drain callback instead and schedules only the poll
that can see an empty queue.  The two must send the same packets at the
same times and leave every RNG in the same state, on every MAC, except
where the polling sender's own answer hung on same-time event order.
"""

import hashlib
import random

import pytest

from repro.aff.driver import AffDriver
from repro.analysis.sanitizer.runtime import DetSanContext, sanitizing
from repro.apps.workloads import ContinuousStreamSender, _non_negative, _SenderBase
from repro.core.identifiers import IdentifierSpace, ListeningSelector
from repro.radio.mac import AlohaMac, CsmaMac, SlottedMac
from repro.radio.medium import BroadcastMedium
from repro.radio.radio import Radio
from repro.sim.engine import Simulator
from repro.topology.graphs import FullMesh


class PollingStreamSender(_SenderBase):
    """The polling ContinuousStreamSender, verbatim apart from its name."""

    def __init__(self, *args, stagger=None, **kwargs):
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
        # Poll once per airtime while the MAC holds fragments; once it
        # is empty, wait one extra airtime so the final fragment clears
        # the air before the next packet's introduction is queued.
        busy = self.driver.radio.mac.queue_depth > 0
        self.sim.schedule(self._frame_airtime, self._poll if busy else self._send_next)


# The Section 5.1 testbed: 27-byte frames at 40 kbps on the air, a
# 9600-baud host link per frame, five senders.
AIRTIME = 8 * 27 / 40_000.0
HOST_GAP = 8 * 27 / 9600.0
# 8192 bps puts every frame's airtime on a multiple of 2**-10 s, so
# sums of airtimes and gaps are exact and same-time events abound.
TIE_BITRATE = 8192.0
TIE_AIRTIME = 8 * 27 / TIE_BITRATE


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _run(sender_cls, make_mac, duration, stagger=None, bitrate=40_000.0, n=5):
    """One sender per node on an ``n``-node mesh with listening selectors.

    Returns the fields the two senders must agree on, plus the events
    fired (which the drain-driven sender may only lower).
    """
    sim = Simulator()
    medium = BroadcastMedium(
        sim, FullMesh(range(n)), bitrate=bitrate, rng=random.Random(7)
    )
    sends, senders, rngs = [], [], [medium.rng]
    for node in range(n):
        mac = make_mac(node)
        selector = ListeningSelector(IdentifierSpace(4), random.Random(50 + node))
        driver = AffDriver(Radio(medium, node, mac=mac), selector, listening=True)

        def recording(packet, _node=node, _send=driver.send):
            sends.append((_node, sim.now, len(packet.payload)))
            return _send(packet)

        driver.send = recording
        sender = sender_cls(
            sim, driver, node_id=node, packet_bytes=80, duration=duration,
            rng=random.Random(100 + node), stagger=stagger,
        )
        sender.start()
        senders.append(sender)
        rngs += [selector.rng, sender.rng]
        if isinstance(mac, CsmaMac):
            rngs.append(mac.rng)
    sim.run(until=duration + 1.0)
    observed = {
        "sends": sends,
        "offered": [s.packets_offered for s in senders],
        "rng_states": _digest([rng.getstate() for rng in rngs]),
        "delivered": medium.stats.deliveries,
    }
    return observed, sim.events_processed


MACS = {
    "aloha-gap0": (lambda node: AlohaMac(), 40_000.0),
    "aloha-host-gap": (lambda node: AlohaMac(gap=HOST_GAP), 40_000.0),
    "aloha-gap0-ties": (lambda node: AlohaMac(), TIE_BITRATE),
    "aloha-gap-1x-airtime-ties": (lambda node: AlohaMac(gap=TIE_AIRTIME), TIE_BITRATE),
    "aloha-gap-3x-airtime-ties": (lambda node: AlohaMac(gap=3 * TIE_AIRTIME), TIE_BITRATE),
    "slotted": (lambda node: SlottedMac(slot=AIRTIME), 40_000.0),
    "slotted-ties": (lambda node: SlottedMac(slot=TIE_AIRTIME), TIE_BITRATE),
    "csma": (lambda node: CsmaMac(backoff_max=0.01, rng=random.Random(200 + node)),
             40_000.0),
}
STAGGERS = {"no-stagger": 0.0, "default-stagger": None}
# 2.0 s ends between polls; 2.013 s and 2.0005 s end while a packet's
# fragments are still queued.
DURATIONS = (2.0, 2.013, 2.0005)


@pytest.mark.parametrize(
    "mac, stagger, duration",
    [
        pytest.param(mac, stagger, duration, id=f"{mac}-{stagger}-{duration}")
        for mac in MACS
        for stagger in STAGGERS
        for duration in DURATIONS
        # Unstaggered slotted senders poll on slot boundaries, where the
        # polling sender's answer depended on FIFO order: see
        # test_poll_on_the_emptying_pop_sees_it.
        if not (mac.startswith("slotted") and stagger == "no-stagger")
    ],
)
def test_matches_polling_sender(mac, stagger, duration):
    make_mac, bitrate = MACS[mac]
    options = dict(stagger=STAGGERS[stagger], bitrate=bitrate)
    expected, polling_events = _run(PollingStreamSender, make_mac, duration, **options)
    observed, events = _run(ContinuousStreamSender, make_mac, duration, **options)
    assert observed["sends"] == expected["sends"]
    assert observed == expected
    assert events <= polling_events


def _sends_under_tie_shuffles(sender_cls, seeds=(1, 2, 3, 4)):
    """The send timeline of one unstaggered slotted sender, plain and
    with DetSan shuffling same-time events under each seed."""
    def run():
        observed, _ = _run(sender_cls, lambda node: SlottedMac(slot=AIRTIME), 2.0,
                           stagger=0.0, n=1)
        return observed["sends"]

    timelines = [run()]
    for seed in seeds:
        with sanitizing(DetSanContext(seed=seed, perturb_ties=True)):
            timelines.append(run())
    return timelines


def test_poll_on_the_emptying_pop_sees_it():
    """A poll due at the very instant the MAC pops its last frame finds
    the queue empty.  The polling sender's poll there was a same-time
    event racing the pop, so its answer followed FIFO order and changed
    when DetSan shuffled ties; the drain-driven sender polls after the
    pop by construction, and its timeline is the same under any order."""
    polling = _sends_under_tie_shuffles(PollingStreamSender)
    assert len({tuple(sends) for sends in polling}) > 1
    drained = _sends_under_tie_shuffles(ContinuousStreamSender)
    assert all(sends == drained[0] for sends in drained)
    # Seeing the pop one airtime sooner only ever sends sooner.
    assert len(drained[0]) >= max(len(sends) for sends in polling)


def _counting_polls(sender_cls, polls):
    class Counting(sender_cls):
        def _poll(self):
            polls.append(self.node_id)
            super()._poll()

    return Counting


def test_testbed_polls_once_per_packet():
    """Under the testbed's host gap nearly every poll found the queue
    busy; the drain-driven sender polls at most once per packet."""
    polling_polls, drained_polls = [], []
    make_mac, _ = MACS["aloha-host-gap"]
    expected, _ = _run(_counting_polls(PollingStreamSender, polling_polls), make_mac, 5.0)
    observed, _ = _run(_counting_polls(ContinuousStreamSender, drained_polls), make_mac, 5.0)
    assert observed == expected
    packets = sum(observed["offered"])
    assert len(polling_polls) > 20 * packets
    # One poll per drained packet; a sender's last packet may drain
    # past the deadline, when its replay ends without a poll.
    assert packets - len(observed["offered"]) <= len(drained_polls) <= packets
