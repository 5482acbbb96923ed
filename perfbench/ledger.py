"""Self-time span ledger and the layer wrappers that feed it.

Each wrapped entry point pushes a frame on one span stack.  When a
call returns, its inclusive time minus the time of the wrapped calls
nested inside it is booked as the span's *self* time, and its inclusive
time is added to the enclosing frame.  Self times therefore never
double-count: the sum of every span's self time equals the inclusive
time of the outermost spans, and ``wall - that sum`` is what no span
covered (``unaccounted_s``).

Trials that run in forked executor workers book into the worker's copy
of the ledger; the worker ships its delta back on the result message
and the parent folds it into its own ledger (see
:meth:`Ledger._fold_children`).

Everything here patches attributes of the program's modules from the
outside.  The program's own source is never edited; a missing entry
point is skipped, so its time falls to the enclosing span.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Set, Tuple

#: message key that carries a forked worker's ledger delta home
CHILD_KEY = "_perfbench_ledger"


class Ledger:
    """Span stack plus self-time, call and counter tables."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: child-time accumulator of every open span, innermost last
        self.stack: List[float] = []
        #: inclusive time of spans opened with an empty stack
        self.top_s = 0.0
        self.pid = os.getpid()
        #: per executor run: (wall, workers, [(worker, duration, ok)])
        self.exec_runs: List[Tuple[float, int, List[Tuple[Any, float, bool]]]] = []
        #: (worker, delta) pairs drained from worker pipes, per open run
        self._children: List[List[Tuple[Any, Dict[str, Any]]]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._patched: Set[Tuple[Any, str]] = set()

    # ------------------------------------------------------------------
    # Booking
    # ------------------------------------------------------------------
    def _close(self, name: str, elapsed: float, child: float) -> None:
        self.self_s[name] += elapsed - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1] += elapsed
        else:
            self.top_s += elapsed

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so each call books self time to ``name``."""
        stack = self.stack
        clock = self.clock
        close = self._close

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                close(name, elapsed, stack.pop())

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> bool:
        """Replace ``owner.attr`` with ``make(original)``; False if absent.

        Only attributes defined on ``owner`` itself are patched, so a
        method inherited by a subclass is wrapped once, on its base.
        """
        namespace = vars(owner)
        if attr not in namespace or (owner, attr) in self._patched:
            return False
        original = namespace[attr]
        replacement = make(original)
        if isinstance(original, staticmethod):
            replacement = staticmethod(replacement)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))
        self._patched.add((owner, attr))
        return True

    def wrap(self, owner: Any, attr: str, name: str) -> bool:
        return self.patch(owner, attr, lambda fn: self.span(name, fn))

    def wrap_consumed(self, owner: Any, attr: str, name: str) -> bool:
        """Wrap a generator method, draining it inside the span.

        Rules yield findings lazily; draining inside the span books the
        rule's work to the rule.  Callers iterate the result fully, so
        the findings and their order are unchanged.
        """

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            return self.span(name, lambda *a, **k: iter(list(fn(*a, **k))))

        return self.patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # The executor: runs, forked workers, and attribution
    # ------------------------------------------------------------------
    def wrap_executor(self, runner_cls: Any) -> None:
        """Book ``TrialRunner`` runs, folding in forked workers' ledgers."""
        ledger = self

        def make_run(fn: Callable[..., Any]) -> Callable[..., Any]:
            def run(runner: Any, specs: Any, *args: Any, **kwargs: Any) -> Any:
                ledger.stack.append(0.0)
                ledger._children.append([])
                t0 = ledger.clock()
                try:
                    return fn(runner, specs, *args, **kwargs)
                finally:
                    elapsed = ledger.clock() - t0
                    child = ledger.stack.pop()
                    children = ledger._children.pop()
                    folded = ledger._fold_children(children, elapsed - child)
                    ledger._close("exec.run", elapsed, child + folded)
                    ledger._record_run(runner)

            return run

        def make_execute_one(fn: Callable[..., Any]) -> Callable[..., Any]:
            def execute_one(runner: Any, *args: Any, **kwargs: Any) -> Any:
                if os.getpid() == ledger.pid:
                    return fn(runner, *args, **kwargs)
                # Forked worker: measure this task against a snapshot of
                # the ledger inherited at fork, and ship the delta home.
                before = (
                    dict(ledger.self_s), dict(ledger.calls), dict(ledger.counts)
                )
                ledger.stack.append(0.0)
                t0 = ledger.clock()
                message = fn(runner, *args, **kwargs)
                elapsed = ledger.clock() - t0
                ledger.self_s["exec.run"] += elapsed - ledger.stack.pop()
                if isinstance(message, dict):
                    message[CHILD_KEY] = {
                        key: _delta(table, old)
                        for key, table, old in zip(
                            ("self_s", "calls", "counts"),
                            (ledger.self_s, ledger.calls, ledger.counts),
                            before,
                        )
                    }
                return message

            return execute_one

        def make_drain(fn: Callable[..., Any]) -> Callable[..., Any]:
            def drain(*args: Any, **kwargs: Any) -> Any:
                messages = fn(*args, **kwargs)
                for message in messages.values():
                    delta = message.pop(CHILD_KEY, None)
                    if delta is not None and ledger._children:
                        ledger._children[-1].append((message.get("worker"), delta))
                return messages

            return drain

        self.patch(runner_cls, "run", make_run)
        self.patch(runner_cls, "_execute_one", make_execute_one)
        self.patch(runner_cls, "_drain_pipes", make_drain)

    def _fold_children(
        self, children: List[Tuple[Any, Dict[str, Any]]], waited: float
    ) -> float:
        """Attribute the parent's wait on workers to the workers' layers.

        Workers run concurrently, so their summed busy time exceeds the
        parent's wall.  The parent's wait (``waited``: its own self time
        in the run) is split over the workers' layers in proportion to
        their summed self times, capped at the slowest worker's busy
        time; whatever the wait exceeds that by stays with the executor
        as dispatch.  Returns the seconds moved out of ``exec.run``.
        """
        if not children:
            return 0.0
        busy: Dict[Any, float] = defaultdict(float)
        merged: Dict[str, float] = defaultdict(float)
        for worker, delta in children:
            for name, seconds in delta["self_s"].items():
                merged[name] += seconds
                busy[worker] += seconds
            for name, count in delta["calls"].items():
                self.calls[name] += count
            for name, count in delta["counts"].items():
                self.counts[name] += count
        total = sum(merged.values())
        if total <= 0 or waited <= 0:
            return 0.0
        moved = min(max(busy.values()), waited)
        share = moved / total
        for name, seconds in merged.items():
            self.self_s[name] += seconds * share
        return moved

    def _record_run(self, runner: Any) -> None:
        telemetry = getattr(runner, "last_telemetry", None)
        records = getattr(telemetry, "records", None)
        if telemetry is None or records is None:
            return
        self.exec_runs.append(
            (
                float(getattr(telemetry, "wall_time", 0.0)),
                int(getattr(telemetry, "workers", 1) or 1),
                [
                    (r.worker, float(r.duration), bool(r.ok))
                    for r in records
                    if not getattr(r, "cached", False)
                ],
            )
        )

    def exec_metrics(self) -> Dict[str, float]:
        """Task counts, busy time, dispatch cost and parallel efficiency."""
        tasks = failures = 0
        busy = dispatch = capacity = 0.0
        for wall, workers, records in self.exec_runs:
            per_worker: Dict[Any, float] = defaultdict(float)
            for worker, duration, ok in records:
                tasks += 1
                failures += 0 if ok else 1
                per_worker[worker] += duration
            run_busy = sum(per_worker.values())
            busy += run_busy
            dispatch += max(0.0, wall - max(per_worker.values(), default=0.0))
            capacity += workers * wall
        return {
            "exec.tasks": float(tasks),
            "exec.failures": float(failures),
            "exec.task_busy_s": busy,
            "exec.dispatch_s": dispatch,
            "exec.parallel_efficiency": busy / capacity if capacity > 0 else 0.0,
        }


def _delta(table: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    return {
        name: value - before.get(name, 0)
        for name, value in table.items()
        if value != before.get(name, 0)
    }


def _counted(fn: Callable[..., Any], count: Callable[..., None]) -> Callable[..., Any]:
    """``fn`` followed by ``count(result, *args)`` on every call."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        count(result, *args)
        return result

    return wrapper


def install(ledger: Ledger) -> None:
    """Wrap the public entry point of every layer the workloads use."""
    from repro.aff import driver, fragmenter, reassembler, wire
    from repro.core import identifiers, transactions
    from repro.exec import runner
    from repro.experiments import harness
    from repro.flow import hybrid, shard
    from repro.radio import mac, medium, radio
    from repro.sim import engine

    counts = ledger.counts

    # sim.engine: the run loop and per-event dispatch.  Callbacks that
    # have no public entry (the medium's receive fan-out, the drivers'
    # receive glue) book here too.
    def count_events(fn: Callable[..., Any]) -> Callable[..., Any]:
        def run(sim: Any, *args: Any, **kwargs: Any) -> Any:
            before = sim.events_processed
            try:
                return fn(sim, *args, **kwargs)
            finally:
                counts["sim.engine.events"] += sim.events_processed - before

        return ledger.span("sim.engine", run)

    ledger.patch(engine.Simulator, "run", count_events)
    ledger.wrap(engine.Simulator, "step", "sim.engine")

    # radio
    ledger.wrap(medium.BroadcastMedium, "transmit", "radio.medium.transmit")
    ledger.wrap(radio.Radio, "send", "radio.send")
    for cls in _classes(mac):
        ledger.wrap(cls, "enqueue", "radio.send")

    # aff
    def count_accept(result: Any, _reassembler: Any, fragment: Any, *_: Any) -> None:
        if isinstance(fragment, wire.IntroFragment):
            counts["aff.intros_accepted"] += 1
        if result is not None:
            counts["aff.packets_delivered"] += 1

    ledger.wrap(driver.AffDriver, "send", "aff.driver.send")
    ledger.wrap(fragmenter.Fragmenter, "fragment", "aff.fragmenter")
    ledger.wrap(wire.FragmentCodec, "encode", "aff.wire.encode")
    ledger.wrap(wire.FragmentCodec, "decode", "aff.wire.decode")
    ledger.patch(
        reassembler.Reassembler,
        "accept",
        lambda fn: ledger.span("aff.reassembler.accept", _counted(fn, count_accept)),
    )

    # core: identifier selection and the transaction log
    for cls in _classes(identifiers):
        ledger.wrap(cls, "select", "core.selector.select")
        ledger.wrap(cls, "observe", "core.selector.observe")
    ledger.wrap(transactions.TransactionLog, "begin", "core.transactions.begin")
    ledger.wrap(transactions.TransactionLog, "end", "core.transactions.end")

    # the Figure-4 trial harness (topology and stack construction)
    ledger.wrap(harness, "run_collision_trial", "harness.trial")

    # flow: both the serial loop's and the shard path's references
    for module in (hybrid, shard):
        ledger.wrap(module, "window_plan", "flow.window_plan")
        ledger.wrap(module, "sample_window", "flow.sample_window")
        ledger.wrap(module, "frame_window", "flow.frame_window")
    ledger.wrap(hybrid, "simulate", "flow.simulate")
    ledger.wrap(shard, "simulate_sharded", "flow.simulate")
    ledger.wrap(shard, "window_range_trial", "flow.window_range")
    ledger.wrap(shard, "partition_plan", "flow.shard.partition")
    ledger.wrap(shard, "merge_range_values", "flow.shard.merge")

    # exec
    ledger.wrap_executor(runner.TrialRunner)

    _install_analysis(ledger)


def _install_analysis(ledger: Ledger) -> None:
    from repro.analysis import core, ranges, symbols

    ledger.wrap(core.Linter, "lint_paths", "analysis.parse")
    # A check inherited from an intermediate class books to the first
    # rule (in id order) that reaches it.
    for _rule_id, cls in sorted(core.registry().items()):
        module = cls.__module__.rsplit(".", 1)[-1]
        for klass in cls.__mro__[: cls.__mro__.index(core.Rule)]:
            ledger.wrap_consumed(klass, "check", f"analysis.rules.{module}")
    for rule_id, cls in sorted(core.project_registry().items()):
        for klass in cls.__mro__[: cls.__mro__.index(core.ProjectRule)]:
            ledger.wrap_consumed(
                klass, "check_project", f"analysis.project_rules.{rule_id}"
            )
    ledger.wrap(symbols, "build_project", "analysis.project.build")
    ledger.wrap(ranges, "build_proof_ledger", "analysis.ledger")


def _classes(module: Any) -> List[type]:
    """Classes defined in ``module`` itself, in a stable order."""
    return sorted(
        (
            value
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
        ),
        key=lambda cls: cls.__qualname__,
    )


__all__ = ["CHILD_KEY", "Ledger", "install"]
