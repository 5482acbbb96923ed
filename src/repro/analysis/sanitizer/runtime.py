"""DetSan runtime: the activation slot and in-process instrumentation.

The sanitizer is the dynamic half of the determinism story: the static
packs (``DET*``/``SEED*``/``EXEC*``/``PURE*``) are deliberately
under-approximating, so hash-order dependence, cross-stream RNG
contamination, and event-queue tie-order sensitivity can only be proven
absent by *running* the code under instrumentation.  This module holds
the runtime pieces that instrumented code touches on its hot paths:

* activation through the sanitizer part of the one instrumentation
  slot (:mod:`repro.instruments`), beside span profiling and metrics —
  :func:`sanitizing` installs a :class:`DetSanContext` for a ``with``
  block, instrumented code asks :func:`active_sanitizer` (usually once,
  at construction) and pays one ``None``-check when the sanitizer is
  off;
* the **RNG draw ledger** (:class:`RngLedger`): every draw from a
  registered :mod:`repro.sim.rng` stream is attributed to
  ``(stream, call site)`` via a shallow stack fingerprint, and draws
  from the :mod:`random` module's hidden global instance are recorded
  as *unregistered* (rule SAN001);
* the **tie perturber**'s rank function (:meth:`DetSanContext.tie_rank`):
  a deterministic pseudo-random ordering key for same-timestamp events,
  derived from the sanitizer seed so perturbed runs are reproducible;
* **fork-state snapshots** (:func:`state_snapshot`): a registry of
  named probes that hash designated module state (RNG fallback
  counters, the global ``random`` instance's state), compared
  before/after trials and across fork boundaries (rule SAN004).

Observations cross process boundaries as plain JSON payloads: a forked
worker drains its ledger into the result message
(:func:`repro.exec.runner.execute_call`) and the parent absorbs it
(:meth:`DetSanContext.absorb`), tagged with the worker's pid so the
analysis in :mod:`.detectors` can compare call-site sets *across*
processes.

This module imports nothing from the rest of the package but the slot
(stdlib only otherwise): the simulation kernel and the RNG registry
import it, so it must sit at the very bottom of the layering, beside
:mod:`repro.obs.spans`.
"""

from __future__ import annotations

import hashlib
import os
import random as _random_module
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Set

from ... import instruments as _slot

__all__ = [
    "DetSanContext",
    "InstrumentedStream",
    "RngLedger",
    "active_sanitizer",
    "register_state_probe",
    "sanitizing",
    "state_snapshot",
]

#: ``random.Random`` methods that consume pseudo-random state.  Draws
#: through any of these on an instrumented stream are booked in the
#: ledger; everything else (``seed``, ``getstate``, ...) passes through
#: unrecorded.
_DRAW_METHODS = frozenset(
    {
        "betavariate",
        "binomialvariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

_THIS_FILE = __file__


def _digest(material: str) -> str:
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def _display_path(filename: str) -> str:
    """``filename`` relative to the CWD when possible (matches lint)."""
    path = Path(filename)
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except (ValueError, OSError):
        return path.as_posix()


def _callsite() -> str:
    """``path:line:function`` of the nearest frame outside this module.

    A *shallow* fingerprint by design: one frame identifies the drawing
    call site without hashing whole stacks (which would make the same
    logical draw look different under trivially different callers).
    Frames inside this module and inside the stdlib ``random`` module
    are skipped so wrappers never attribute draws to themselves.
    """
    random_file = getattr(_random_module, "__file__", "")
    frame = sys._getframe(1)
    for _ in range(16):
        if frame is None:  # pragma: no cover - extremely shallow stacks
            break
        code = frame.f_code
        if code.co_filename not in (_THIS_FILE, random_file):
            return f"{_display_path(code.co_filename)}:{frame.f_lineno}:{code.co_name}"
        back = frame.f_back
        if back is None:
            break
        frame = back
    return "<unknown>:0:<unknown>"


# ----------------------------------------------------------------------
# The RNG draw ledger
# ----------------------------------------------------------------------
class InstrumentedStream:
    """A recording proxy around one registered ``random.Random`` stream.

    Draw methods book ``(stream name, call site)`` in the ledger and
    then delegate to the *underlying* stream object, so the sequence of
    values is bit-identical with the sanitizer on or off — the proxy
    observes, it never draws.
    """

    __slots__ = ("_stream", "_name", "_ledger")

    def __init__(self, stream: Any, name: str, ledger: "RngLedger") -> None:
        object.__setattr__(self, "_stream", stream)
        object.__setattr__(self, "_name", name)
        object.__setattr__(self, "_ledger", ledger)

    def __getattr__(self, attr: str) -> Any:
        value = getattr(object.__getattribute__(self, "_stream"), attr)
        if attr in _DRAW_METHODS:
            name: str = object.__getattribute__(self, "_name")
            ledger: RngLedger = object.__getattribute__(self, "_ledger")

            def _recorded(*args: Any, **kwargs: Any) -> Any:
                ledger.record_draw(name, _callsite())
                return value(*args, **kwargs)

            return _recorded
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<InstrumentedStream {object.__getattribute__(self, '_name')!r}>"


class RngLedger:
    """Per-process draw bookkeeping: who drew from which stream, where.

    Aggregated at record time — a counter per ``(stream, call site)``,
    never a per-draw log — so instrumenting a million-draw trial costs
    a dict increment per draw and ships a few hundred bytes.
    """

    def __init__(self) -> None:
        #: stream names handed out by a registry in this process
        self.registered: Set[str] = set()
        #: stream name -> call site -> draw count
        self.draws: Dict[str, Dict[str, int]] = {}
        #: ``random.<fn>`` global-instance draws: fn -> call site -> count
        self.unregistered: Dict[str, Dict[str, int]] = {}
        self._wrappers: Dict[int, InstrumentedStream] = {}

    def instrument(self, name: str, stream: Any) -> InstrumentedStream:
        """Register ``name`` and return the (cached) recording proxy."""
        self.registered.add(name)
        wrapper = self._wrappers.get(id(stream))
        if wrapper is None:
            wrapper = InstrumentedStream(stream, name, self)
            self._wrappers[id(stream)] = wrapper
        return wrapper

    def record_draw(self, stream: str, site: str) -> None:
        sites = self.draws.setdefault(stream, {})
        sites[site] = sites.get(site, 0) + 1

    def record_unregistered(self, func: str, site: str) -> None:
        sites = self.unregistered.setdefault(func, {})
        sites[site] = sites.get(site, 0) + 1

    def export(self) -> Dict[str, Any]:
        """This process's observations as a JSON-safe payload."""
        return {
            "pid": os.getpid(),
            "registered": sorted(self.registered),
            "draws": {
                stream: dict(sites) for stream, sites in sorted(self.draws.items())
            },
            "unregistered": {
                func: dict(sites)
                for func, sites in sorted(self.unregistered.items())
            },
        }

    def reset(self) -> None:
        """Drop all observations (registered names included)."""
        self.registered.clear()
        self.draws.clear()
        self.unregistered.clear()
        self._wrappers.clear()


# ----------------------------------------------------------------------
# Fork-state snapshot probes
# ----------------------------------------------------------------------
_STATE_PROBES: Dict[str, Callable[[], str]] = {}


def register_state_probe(name: str, probe: Callable[[], str]) -> None:
    """Register a named module-state probe for :func:`state_snapshot`.

    A probe returns a short stable digest of some designated module
    state.  Probes must be read-only and must not import anything:
    probe the module via ``sys.modules`` so an unloaded subsystem
    hashes as ``"unloaded"`` instead of being dragged in.
    """
    _STATE_PROBES[name] = probe


def state_snapshot() -> Dict[str, str]:
    """Digest of every registered probe, keyed by probe name."""
    return {name: _STATE_PROBES[name]() for name in sorted(_STATE_PROBES)}


def _module_attr(module: str, attr: str) -> Any:
    loaded = sys.modules.get(module)
    if loaded is None:
        return None
    return getattr(loaded, attr, None)


def _probe_rng_fallback_counts() -> str:
    counts = _module_attr("repro.sim.rng", "_fallback_counts")
    if counts is None:
        return "unloaded"
    return _digest(repr(sorted(counts.items())))


def _probe_global_random_state() -> str:
    # The hidden module-level instance: any draw through ``random.*``
    # advances it, so this probe catches global-RNG consumption even
    # when the ledger's function patching missed the call path.
    return _digest(repr(_random_module.getstate()))


register_state_probe("sim.rng.fallback_counts", _probe_rng_fallback_counts)
register_state_probe("random.global_state", _probe_global_random_state)


# ----------------------------------------------------------------------
# The sanitizer context
# ----------------------------------------------------------------------
class DetSanContext:
    """One sanitizer activation: ledger, tie seed, drift observations.

    ``perturb_ties`` is deliberately mutable: the tie-order detector
    runs a scenario once with it off (the reference trace) and once
    with it on, under one context, so the draw ledger spans both runs.
    """

    def __init__(self, seed: int = 0, perturb_ties: bool = False) -> None:
        self.seed = int(seed)
        self.perturb_ties = perturb_ties
        self.ledger = RngLedger()
        #: module-state snapshot at fork/activation time (SAN004 anchor)
        self.fork_baseline: Optional[Dict[str, str]] = None
        #: drift observations: probe/phase/before/after/site dicts
        self.drift: List[Dict[str, Any]] = []
        self._absorbed: List[Dict[str, Any]] = []

    # -- tie perturbation ------------------------------------------------
    def tie_rank(self, time: float, seq: int) -> int:
        """Deterministic shuffle key for a same-timestamp event.

        Derived from ``(sanitizer seed, timestamp, sequence number)``
        via SHA-256, so a perturbed run is itself exactly reproducible
        — rerunning with the same sanitizer seed replays the identical
        perturbed order (``seq`` still breaks rank collisions).
        """
        material = f"{self.seed}:{time!r}:{seq}".encode("utf-8")
        return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")

    # -- fork-state drift ------------------------------------------------
    def check_fork_drift(self, snapshot: Dict[str, str]) -> None:
        """Compare ``snapshot`` against the fork-time baseline.

        Called at trial start: drift here means module state changed
        *between* trials (cross-task contamination in a worker that
        runs several trials of its shard), as opposed to inside one.
        """
        if self.fork_baseline is None:
            self.fork_baseline = dict(snapshot)
            return
        for probe in sorted(snapshot):
            before = self.fork_baseline.get(probe)
            if before is None or before == snapshot[probe]:
                continue
            if before == "unloaded":
                # A probed module was imported since the baseline —
                # first-load, not drift.  Re-anchor silently.
                self.fork_baseline[probe] = snapshot[probe]
                continue
            self.record_drift(probe, "fork", before, snapshot[probe], None)

    def record_trial_drift(
        self,
        before: Dict[str, str],
        after: Dict[str, str],
        site: Optional[str],
    ) -> None:
        """Book probes whose state changed across one trial call.

        First-load transitions (``"unloaded"`` before) are not drift:
        a lazy import inside the trial legitimately brings a probed
        module into existence.
        """
        for probe in sorted(after):
            prior = before.get(probe, after[probe])
            if prior != after[probe] and prior != "unloaded":
                self.record_drift(probe, "trial", prior, after[probe], site)
        # Re-anchor so an already-reported mutation is not re-reported
        # as fork-phase drift at the start of the next trial.
        self.fork_baseline = dict(after)

    def record_drift(
        self,
        probe: str,
        phase: str,
        before: str,
        after: str,
        site: Optional[str],
    ) -> None:
        entry = {
            "probe": probe,
            "phase": phase,
            "before": before,
            "after": after,
            "site": site,
        }
        if entry not in self.drift:
            self.drift.append(entry)

    # -- cross-process transport ----------------------------------------
    def after_fork(self) -> None:
        """Reset inherited observations in a freshly forked child.

        The fork copied the parent's ledger by memory; draining it here
        keeps the child's export limited to what the *child* observed
        (the parent still holds its own copy), and re-anchors the
        fork-state baseline at the true fork point.
        """
        self.ledger.reset()
        self.drift = []
        self._absorbed = []
        self.fork_baseline = state_snapshot()

    def export_for_message(self) -> Dict[str, Any]:
        """Drain this process's observations into a result-message payload."""
        payload = self.ledger.export()
        payload["drift"] = list(self.drift)
        self.ledger.draws.clear()
        self.ledger.unregistered.clear()
        self.drift = []
        return payload

    def absorb(self, payload: Dict[str, Any]) -> None:
        """Fold a worker's (or our own round-tripped) payload back in."""
        self._absorbed.append(payload)

    def observations(self) -> List[Dict[str, Any]]:
        """All payloads for analysis: absorbed plus the live ledger."""
        live = self.ledger.export()
        live["drift"] = list(self.drift)
        return [*self._absorbed, live]


# ----------------------------------------------------------------------
# Activation: the sanitizer part of the slot and global-RNG patching
# ----------------------------------------------------------------------
def active_sanitizer() -> Optional[DetSanContext]:
    """The installed sanitizer context, or None when DetSan is off."""
    context: Optional[DetSanContext] = _slot.active().sanitizer
    return context


def _patch_global_random(ledger: RngLedger) -> Dict[str, Any]:
    """Wrap ``random``'s module-level draw functions to record callers.

    The wrappers delegate to the original bound methods, so the global
    instance's sequence is unchanged — only the *fact* of an
    unregistered draw (and its call site) is booked.  Returns the
    originals for :func:`_unpatch_global_random`.
    """
    originals: Dict[str, Any] = {}
    for name in sorted(_DRAW_METHODS):
        original = getattr(_random_module, name, None)
        if original is None:
            continue
        originals[name] = original

        def _wrap(func_name: str, func: Any) -> Any:
            def _recorded(*args: Any, **kwargs: Any) -> Any:
                ledger.record_unregistered(f"random.{func_name}", _callsite())
                return func(*args, **kwargs)

            return _recorded

        setattr(_random_module, name, _wrap(name, original))
    return originals


def _unpatch_global_random(originals: Dict[str, Any]) -> None:
    for name, original in originals.items():
        setattr(_random_module, name, original)


@contextmanager
def sanitizing(
    context: Optional[DetSanContext] = None,
) -> Iterator[DetSanContext]:
    """Install ``context`` (a fresh one by default) for the block.

    Activation patches the :mod:`random` module's global draw
    functions (restored on exit) and takes the initial fork-state
    baseline.  Instrumented code binds the context at construction, so
    objects built inside the block stay instrumented for their
    lifetime; objects built outside it are never touched.
    """
    ctx = context if context is not None else DetSanContext()
    with _slot.installed(_slot.active()._replace(sanitizer=ctx)):
        originals = _patch_global_random(ctx.ledger)
        if ctx.fork_baseline is None:
            ctx.fork_baseline = state_snapshot()
        try:
            yield ctx
        finally:
            _unpatch_global_random(originals)
