"""Deterministic parallel trial execution.

:class:`TrialRunner` fans independent ``(function, kwargs)`` trials out
across forked worker processes and returns their results **in spec
order**, bit-identical to a serial run.  The determinism contract:

1. Every trial's inputs (including its seed, derived via
   :func:`repro.exec.keys.derive_trial_seed`) are fixed before any
   worker starts; nothing about scheduling can influence a result.
2. Sharding is static round-robin — worker ``w`` of ``W`` computes
   trials ``w, w+W, w+2W, ...`` of the pending list — so the
   work assignment itself is a pure function of ``(trials, W)``.
3. Results travel as canonical JSON (the *transport encoding*) whether
   they come from a worker pipe, the in-process serial path, or the
   result cache, so every path yields the same bytes.

Workers are created with ``os.fork`` rather than ``multiprocessing``
so trial closures need not be picklable (sweep call sites routinely
pass lambdas); the fork inherits them by memory.  This is the one
module allowed to fork — lint rule DET006 flags parallelism primitives
anywhere else in the tree.

Failures are data, not control flow: a trial that raises, times out
(per-trial deadline, bounded retry), returns an unserialisable value,
or loses its worker produces a structured :class:`TrialFailure` in its
outcome slot instead of killing the sweep.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .. import instruments
from ..analysis.sanitizer.runtime import state_snapshot
from ..obs.metrics import MetricsRegistry
from ..obs.spans import SpanProfiler
from ..util import codec
from .cache import ResultCache
from .telemetry import RunTelemetry, TrialRecord

__all__ = [
    "ExecError",
    "TrialFailure",
    "TrialOutcome",
    "TrialRunner",
    "TrialSpec",
    "TrialTimeout",
    "execute_call",
]


class ExecError(RuntimeError):
    """Raised by callers when an execution produced no usable results."""


class TrialTimeout(Exception):
    """A trial exceeded its per-attempt deadline."""


# ----------------------------------------------------------------------
# Specs and outcomes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrialSpec:
    """One trial: call ``fn(**kwargs)`` and keep its return value."""

    fn: Callable[..., Any]
    kwargs: Mapping[str, Any]
    label: str = ""
    #: content address for the result cache (None = never cached)
    cache_key: Optional[str] = None


@dataclass(frozen=True)
class TrialFailure:
    """Structured record of why a trial produced no value."""

    label: str
    error_type: str
    message: str
    traceback: str
    attempts: int

    def render(self) -> str:
        return f"{self.label or 'trial'}: {self.error_type}: {self.message}"


@dataclass
class TrialOutcome:
    """Result slot for one spec, in spec order."""

    value: Any
    ok: bool
    cached: bool = False
    duration: float = 0.0
    attempts: int = 0
    worker: Optional[int] = None
    failure: Optional[TrialFailure] = None


# ----------------------------------------------------------------------
# Per-attempt deadline (SIGALRM; main thread only, no-op elsewhere)
# ----------------------------------------------------------------------
def _deadline_unusable(seconds: Optional[float]) -> Optional[str]:
    """Why a requested deadline cannot be enforced here (None = it can).

    ``signal.setitimer``/``SIGALRM`` only work on the main thread of the
    main interpreter; calling them elsewhere raises ``ValueError``.  A
    runner driven from a worker thread therefore degrades to unbounded
    trials — gracefully, with the reason surfaced in run telemetry
    rather than a crash.
    """
    if seconds is None or seconds <= 0:
        return None  # no deadline requested, nothing to enforce
    if not hasattr(signal, "setitimer"):
        return "timeout requested but signal.setitimer is unavailable"
    if threading.current_thread() is not threading.main_thread():
        return (
            "timeout requested off the main thread; SIGALRM deadlines "
            "cannot be armed there, trials run unbounded"
        )
    return None


@contextmanager
def _deadline(seconds: Optional[float]) -> Iterator[None]:
    if seconds is None or seconds <= 0 or _deadline_unusable(seconds):
        yield
        return

    def _expired(signum: int, frame: Any) -> None:
        raise TrialTimeout(f"trial exceeded {seconds:.3f}s deadline")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))  # type: ignore[arg-type]
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# One trial attempt loop, shared by every execution path
# ----------------------------------------------------------------------
def execute_call(
    fn: Callable[..., Any],
    kwargs: Mapping[str, Any],
    timeout: Optional[float],
    retries: int,
) -> Dict[str, Any]:
    """Run ``fn(**kwargs)`` with deadline + bounded retry; return a message.

    Messages are plain JSON dicts — the same shape a forked worker ships
    over its pipe — so the serial path and the per-run fork path share
    one code path from here up.  ``plain`` marks values whose
    encoded form contains no transport tags, letting the parent skip
    the Python-level decode walk (a real cost when a trial ships
    hundreds of kilobytes of results).

    Each attempt runs under the installed instruments
    (:mod:`repro.instruments`), with a fresh profiler and registry in
    place of installed ones, so a failed attempt's partial spans and
    counts never leak into the totals.  What the trial observed, plus
    its ``exec.trial`` span and ``exec.trials``/``exec.retries``
    counts, travels as one ``"instruments"`` payload (:func:`_export`)
    that the parent merges back (:func:`_absorb`); with nothing
    installed there is no payload.  Under DetSan, module-state
    snapshots are also compared at trial entry (fork-phase drift: state
    mutated *between* trials) and across the call (trial-phase drift).
    All of this is observational: the trial's value is identical either
    way.
    """
    san = instruments.active().sanitizer
    pre_state: Dict[str, str] = {}
    if san is not None:
        san.check_fork_drift(state_snapshot())
        pre_state = state_snapshot()
    attempts = 0
    skipped = _deadline_unusable(timeout)
    while True:
        attempts += 1
        trial = _trial_instruments()
        t0 = time.perf_counter()
        try:
            with _deadline(timeout), instruments.installed(trial):
                value = fn(**dict(kwargs))
            encoded, plain = codec.transport(value)
            message: Dict[str, Any] = {
                "ok": True,
                "value": encoded,
                "duration": time.perf_counter() - t0,
                "attempts": attempts,
            }
            if plain:
                message["plain"] = True
        except Exception as exc:
            if attempts <= retries:
                continue
            message = {
                "ok": False,
                "error_type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
                "duration": time.perf_counter() - t0,
                "attempts": attempts,
            }
        if skipped:
            message["deadline_skipped"] = skipped
        if san is not None:
            san.record_trial_drift(pre_state, state_snapshot(), _trial_site(fn))
        parts = _export(trial, message)
        if parts:
            message["instruments"] = parts
        return message


def _trial_instruments() -> instruments.Instruments:
    """One attempt's instruments: a fresh profiler and registry where
    one is installed, and the installed DetSan context, whose ledger
    drains into every message."""
    installed = instruments.active()
    return installed._replace(
        profiler=None if installed.profiler is None else SpanProfiler(),
        metrics=None if installed.metrics is None else MetricsRegistry(),
    )


def _export(trial: instruments.Instruments, message: Dict[str, Any]) -> Dict[str, Any]:
    """The instruments payload of a finished trial.

    Spans and counts ship only from a successful attempt; DetSan's
    observations ship either way.
    """
    parts: Dict[str, Any] = {}
    if message["ok"] and trial.profiler is not None:
        trial.profiler.add("exec.trial", message["duration"])
        parts["spans"] = trial.profiler.to_json()
    if message["ok"] and trial.metrics is not None:
        trial.metrics.inc("exec.trials")
        if message["attempts"] > 1:
            trial.metrics.inc("exec.retries", message["attempts"] - 1)
        parts["metrics"] = trial.metrics.to_json()
    if trial.sanitizer is not None:
        parts["sanitizer"] = trial.sanitizer.export_for_message()
    return parts


def _absorb(parts: Mapping[str, Any], telemetry: Optional[RunTelemetry]) -> None:
    """Merge a trial's payload into the installed instruments and
    ``telemetry``; a worker's draw-ledger observations carry its pid."""
    installed = instruments.active()
    if "spans" in parts:
        installed.profiler.merge(parts["spans"])
        if telemetry is not None:
            telemetry.add_spans(parts["spans"])
    if "metrics" in parts:
        installed.metrics.merge_json(parts["metrics"])
        if telemetry is not None:
            telemetry.add_metrics(parts["metrics"])
    if "sanitizer" in parts:
        installed.sanitizer.absorb(parts["sanitizer"])


def _trial_site(fn: Callable[..., Any]) -> Optional[str]:
    """Where ``fn`` is defined, for attributing state drift to a trial."""
    code = getattr(fn, "__code__", None)
    if code is None:
        return None
    return f"{code.co_filename}:{code.co_firstlineno}"


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class TrialRunner:
    """Shards trials over forked workers; caches; collects telemetry.

    Parameters
    ----------
    workers:
        Worker processes to fork.  ``1`` (the default) runs in-process;
        both paths produce identical results.
    cache:
        Optional :class:`~repro.exec.cache.ResultCache`.  Specs with a
        ``cache_key`` are looked up before execution and stored after.
    timeout:
        Per-attempt deadline in seconds (None = unbounded).
    retries:
        Extra attempts after a failed/timed-out one (total attempts =
        ``retries + 1``).  Retries re-run the identical inputs, so they
        only help against nondeterministic externalities (timeouts).

    What to observe is not a parameter: each trial runs under the
    instruments installed around :meth:`run` (span profiling, metrics,
    DetSan; see :mod:`repro.instruments`), and what it observed merges
    back into them and into :attr:`telemetry`.  Observational only —
    results are bit-identical with any instrument on or off.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.workers = workers
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        #: cumulative telemetry over every :meth:`run` on this runner
        self.telemetry = RunTelemetry(workers=workers)
        #: telemetry of the most recent :meth:`run` only
        self.last_telemetry = RunTelemetry(workers=workers)

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[TrialSpec]) -> List[TrialOutcome]:
        """Execute ``specs``; outcomes align index-for-index with them."""
        started = time.perf_counter()
        telemetry = RunTelemetry(workers=self.workers)
        outcomes: List[TrialOutcome] = [
            TrialOutcome(value=None, ok=False) for _ in specs
        ]

        # Cache traffic is a parent-side decomposition fact, so it books
        # straight into the parent's active registry (cached trials never
        # re-run, hence carry no trial-side metrics of their own).
        registry = instruments.active().metrics

        pending: List[int] = []
        for index, spec in enumerate(specs):
            if self.cache is not None and spec.cache_key is not None:
                hit, stored = self.cache.get(spec.cache_key)
                if hit:
                    if registry is not None:
                        registry.inc("exec.cache_hits")
                    outcomes[index] = TrialOutcome(
                        value=stored, ok=True, cached=True
                    )
                    continue
                telemetry.cache_misses += 1
                if registry is not None:
                    registry.inc("exec.cache_misses")
            pending.append(index)

        effective = max(1, min(self.workers, len(pending)))
        if pending:
            if effective == 1 or not hasattr(os, "fork"):
                effective = 1
                messages = self._run_serial(specs, pending)
            else:
                messages = self._run_forked(specs, pending, effective)
            self._collect(specs, pending, messages, outcomes, telemetry)

        telemetry.workers = effective
        for index, outcome in enumerate(outcomes):
            telemetry.record(
                TrialRecord(
                    index=index,
                    label=specs[index].label,
                    cached=outcome.cached,
                    ok=outcome.ok,
                    attempts=outcome.attempts,
                    duration=outcome.duration,
                    worker=outcome.worker,
                    error=(
                        f"{outcome.failure.error_type}: {outcome.failure.message}"
                        if outcome.failure is not None
                        else None
                    ),
                )
            )
        if self.cache is not None:
            telemetry.cache_writes = self.cache.stats.writes
            telemetry.cache_corrupted = self.cache.stats.corrupted
        telemetry.wall_time = time.perf_counter() - started
        self.last_telemetry = telemetry
        self.telemetry.merge(telemetry)
        return outcomes

    # ------------------------------------------------------------------
    def _execute_one(self, spec: TrialSpec) -> Dict[str, Any]:
        return execute_call(spec.fn, spec.kwargs, self.timeout, self.retries)

    def _run_serial(
        self, specs: Sequence[TrialSpec], pending: Sequence[int]
    ) -> Dict[int, Dict[str, Any]]:
        messages: Dict[int, Dict[str, Any]] = {}
        for index in pending:
            message = self._execute_one(specs[index])
            # Round-trip through JSON so the serial path is byte-for-byte
            # the parallel path (tuples become lists, floats reparse).
            message = json.loads(json.dumps(message, allow_nan=False))
            message["worker"] = 0
            messages[index] = message
        return messages

    def _run_forked(
        self,
        specs: Sequence[TrialSpec],
        pending: Sequence[int],
        workers: int,
    ) -> Dict[int, Dict[str, Any]]:
        shards = [list(pending[w::workers]) for w in range(workers)]
        children: List[Tuple[int, int]] = []  # (pid, read_fd)
        for worker_id, shard in enumerate(shards):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                # Worker child: compute the shard, stream length-prefixed
                # JSON messages back, and _exit without touching the
                # parent's atexit/pytest machinery.
                status = 0
                try:
                    san = instruments.active().sanitizer
                    if san is not None:
                        # Drop ledger state inherited from the parent by
                        # fork and re-anchor the fork-state baseline, so
                        # this child only ever reports what *it* observed.
                        san.after_fork()
                    os.close(read_fd)
                    with os.fdopen(write_fd, "wb", buffering=0) as out:
                        for index in shard:
                            message = self._execute_one(specs[index])
                            message["worker"] = worker_id
                            message["index"] = index
                            data = json.dumps(message, allow_nan=False).encode(
                                "utf-8"
                            )
                            out.write(len(data).to_bytes(4, "big") + data)
                except BaseException:
                    status = 1
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, read_fd))

        messages = self._drain_pipes([fd for _, fd in children])
        for pid, _ in children:
            os.waitpid(pid, 0)
        return messages

    @staticmethod
    def _drain_pipes(fds: Sequence[int]) -> Dict[int, Dict[str, Any]]:
        """Multiplex reads so no worker blocks on a full pipe buffer."""
        messages: Dict[int, Dict[str, Any]] = {}
        buffers: Dict[int, bytearray] = {fd: bytearray() for fd in fds}
        selector = selectors.DefaultSelector()
        for fd in fds:
            selector.register(fd, selectors.EVENT_READ)
        open_fds = set(fds)
        while open_fds:
            for key, _ in selector.select():
                fd = key.fd
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    selector.unregister(fd)
                    os.close(fd)
                    open_fds.discard(fd)
                    continue
                buf = buffers[fd]  # a bytearray: append and front-delete are O(1)
                buf += chunk
                while len(buf) >= 4:
                    size = int.from_bytes(buf[:4], "big")
                    if len(buf) < 4 + size:
                        break
                    message = json.loads(buf[4 : 4 + size].decode("utf-8"))
                    del buf[: 4 + size]
                    messages[message.pop("index")] = message
        selector.close()
        return messages

    def _collect(
        self,
        specs: Sequence[TrialSpec],
        pending: Sequence[int],
        messages: Dict[int, Dict[str, Any]],
        outcomes: List[TrialOutcome],
        telemetry: Optional[RunTelemetry] = None,
    ) -> None:
        for index in pending:
            spec = specs[index]
            message = messages.get(index)
            if (
                telemetry is not None
                and message is not None
                and message.get("deadline_skipped")
                and message["deadline_skipped"] not in telemetry.warnings
            ):
                telemetry.warnings.append(message["deadline_skipped"])
            if message is not None and "instruments" in message:
                _absorb(message["instruments"], telemetry)
            if message is None:
                # Worker died (crash, OOM kill, os._exit in the trial)
                # before reporting this trial.
                outcomes[index] = TrialOutcome(
                    value=None,
                    ok=False,
                    failure=TrialFailure(
                        label=spec.label,
                        error_type="WorkerCrashed",
                        message="worker exited before reporting this trial",
                        traceback="",
                        attempts=0,
                    ),
                )
                continue
            if message["ok"]:
                # "plain" payloads carry no transport tags; skip the
                # Python-level decode walk (hot for large results).
                outcomes[index] = TrialOutcome(
                    value=(
                        message["value"]
                        if message.get("plain")
                        else codec.decode(message["value"])
                    ),
                    ok=True,
                    duration=float(message["duration"]),
                    attempts=int(message["attempts"]),
                    worker=message.get("worker"),
                )
                if self.cache is not None and spec.cache_key is not None:
                    self.cache.put(
                        spec.cache_key,
                        message["value"],
                        meta={"label": spec.label},
                    )
            else:
                outcomes[index] = TrialOutcome(
                    value=None,
                    ok=False,
                    duration=float(message["duration"]),
                    attempts=int(message["attempts"]),
                    worker=message.get("worker"),
                    failure=TrialFailure(
                        label=spec.label,
                        error_type=message["error_type"],
                        message=message["message"],
                        traceback=message["traceback"],
                        attempts=int(message["attempts"]),
                    ),
                )
