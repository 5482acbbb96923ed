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

from ..analysis.sanitizer.runtime import active_sanitizer, state_snapshot
from ..obs.metrics import MetricsRegistry, active_metrics, collecting
from ..obs.spans import SpanProfiler, profiling
from .cache import ResultCache
from .telemetry import RunTelemetry, TrialRecord

__all__ = [
    "ExecError",
    "TrialFailure",
    "TrialOutcome",
    "TrialRunner",
    "TrialSpec",
    "TrialTimeout",
    "decode_jsonable",
    "encode_jsonable",
    "execute_call",
]


class ExecError(RuntimeError):
    """Raised by callers when an execution produced no usable results."""


class TrialTimeout(Exception):
    """A trial exceeded its per-attempt deadline."""


# ----------------------------------------------------------------------
# Transport encoding: JSON with non-finite floats tagged unambiguously
# ----------------------------------------------------------------------
def encode_jsonable(value: Any) -> Any:
    """Encode ``value`` for the result pipe / cache (JSON, no NaN)."""
    if isinstance(value, float) and value != value:
        return {"__float__": "nan"}
    if isinstance(value, float) and value in (float("inf"), float("-inf")):
        return {"__float__": repr(value)}
    if isinstance(value, (list, tuple)):
        return [encode_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode_jsonable(item) for key, item in value.items()}
    return value


def decode_jsonable(value: Any) -> Any:
    """Invert :func:`encode_jsonable`."""
    if isinstance(value, dict):
        if set(value) == {"__float__"}:
            return float(value["__float__"])
        return {key: decode_jsonable(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_jsonable(item) for item in value]
    return value


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
    profile: bool = False,
    metrics: bool = False,
) -> Dict[str, Any]:
    """Run ``fn(**kwargs)`` with deadline + bounded retry; return a message.

    Messages are plain JSON dicts — the same shape a forked worker ships
    over its pipe — so the serial path and the per-run fork path share
    one code path from here up.  ``plain`` marks values whose
    encoded form contains no transport tags, letting the parent skip
    the Python-level decode walk (a real cost when a sharded trial
    ships hundreds of kilobytes of packed segment data).

    With ``profile`` a fresh :class:`repro.obs.spans.SpanProfiler` is
    active around the trial call, and the successful message carries its
    span table under ``"spans"`` — that is how per-layer wall time
    crosses the process boundary from workers back to the parent's
    telemetry.  Profiling is observational: the trial's value is
    identical either way.

    ``metrics`` does the same for the deterministic counter layer: a
    fresh :class:`repro.obs.metrics.MetricsRegistry` is active per
    *attempt* (a failed attempt's partial counts never leak into the
    totals), and the successful message carries the table under
    ``"metrics"``.  The trial itself books ``exec.trials`` and
    ``exec.retries`` into that nested registry, so exec-layer counts
    travel and merge exactly like simulation-layer ones.

    Under an active DetSan context the message likewise carries the
    process's drained draw-ledger observations under ``"sanitizer"``
    (see :mod:`repro.analysis.sanitizer.runtime`), and module-state
    snapshots are compared at trial entry (fork-phase drift: state
    mutated *between* trials) and across the call (trial-phase drift).
    Also purely observational.
    """
    san = active_sanitizer()
    pre_state: Dict[str, str] = {}
    if san is not None:
        san.check_fork_drift(state_snapshot())
        pre_state = state_snapshot()
    attempts = 0
    skipped = _deadline_unusable(timeout)
    while True:
        attempts += 1
        prof = SpanProfiler() if profile else None
        registry = MetricsRegistry() if metrics else None
        t0 = time.perf_counter()
        try:
            with _deadline(timeout):
                if prof is not None and registry is not None:
                    with profiling(prof), collecting(registry):
                        value = fn(**dict(kwargs))
                elif prof is not None:
                    with profiling(prof):
                        value = fn(**dict(kwargs))
                elif registry is not None:
                    with collecting(registry):
                        value = fn(**dict(kwargs))
                else:
                    value = fn(**dict(kwargs))
            encoded = encode_jsonable(value)
            text = json.dumps(encoded, allow_nan=False)  # transportability gate
            message: Dict[str, Any] = {
                "ok": True,
                "value": encoded,
                "duration": time.perf_counter() - t0,
                "attempts": attempts,
            }
            if '"__float__"' not in text:
                message["plain"] = True
            if skipped:
                message["deadline_skipped"] = skipped
            if prof is not None:
                prof.add("exec.trial", message["duration"])
                message["spans"] = prof.to_json()
            if registry is not None:
                registry.inc("exec.trials")
                if attempts > 1:
                    registry.inc("exec.retries", attempts - 1)
                message["metrics"] = registry.to_json()
            if san is not None:
                san.record_trial_drift(pre_state, state_snapshot(), _trial_site(fn))
                message["sanitizer"] = san.export_for_message()
            return message
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
                message["sanitizer"] = san.export_for_message()
            return message


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
    profile:
        When True every trial runs under a span profiler and its
        per-layer wall times flow into :attr:`telemetry` (and across
        worker pipes for forked trials).  Observational only —
        results are bit-identical with profiling on or off.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        profile: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.workers = workers
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        self.profile = profile
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
        registry = active_metrics()
        metrics_on = registry is not None

        pending: List[int] = []
        for index, spec in enumerate(specs):
            if self.cache is not None and spec.cache_key is not None:
                hit, stored = self.cache.get(spec.cache_key)
                if hit:
                    if registry is not None:
                        registry.inc("exec.cache_hits")
                    outcomes[index] = TrialOutcome(
                        value=decode_jsonable(stored), ok=True, cached=True
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
                messages = self._run_serial(specs, pending, metrics_on)
            else:
                messages = self._run_forked(specs, pending, effective, metrics_on)
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
    def _execute_one(
        self, spec: TrialSpec, metrics: bool = False
    ) -> Dict[str, Any]:
        return execute_call(
            spec.fn,
            spec.kwargs,
            self.timeout,
            self.retries,
            profile=self.profile,
            metrics=metrics,
        )

    def _run_serial(
        self,
        specs: Sequence[TrialSpec],
        pending: Sequence[int],
        metrics: bool = False,
    ) -> Dict[int, Dict[str, Any]]:
        messages: Dict[int, Dict[str, Any]] = {}
        for index in pending:
            message = self._execute_one(specs[index], metrics)
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
        metrics: bool = False,
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
                    san = active_sanitizer()
                    if san is not None:
                        # Drop ledger state inherited from the parent by
                        # fork and re-anchor the fork-state baseline, so
                        # this child only ever reports what *it* observed.
                        san.after_fork()
                    os.close(read_fd)
                    with os.fdopen(write_fd, "wb", buffering=0) as out:
                        for index in shard:
                            message = self._execute_one(specs[index], metrics)
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
        san = active_sanitizer()
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
            if (
                san is not None
                and message is not None
                and message.get("sanitizer") is not None
            ):
                # Fold worker-side draw-ledger observations (tagged with
                # the worker's pid) back into the active context.
                san.absorb(message["sanitizer"])
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
                spans = message.get("spans")
                if telemetry is not None and spans:
                    telemetry.add_spans(spans)
                table = message.get("metrics")
                if table:
                    if telemetry is not None:
                        telemetry.add_metrics(table)
                    parent = active_metrics()
                    if parent is not None:
                        parent.merge_json(table)
                # "plain" payloads carry no transport tags; skip the
                # Python-level decode walk (hot for packed segments).
                outcomes[index] = TrialOutcome(
                    value=(
                        message["value"]
                        if message.get("plain")
                        else decode_jsonable(message["value"])
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
