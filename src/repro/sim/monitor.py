"""Online statistics for simulation measurements.

:class:`Counter` and :class:`RunningStats` accumulate observations in
O(1) memory (Welford's algorithm for mean/variance), and
:class:`TimeWeightedValue` integrates a piecewise-constant signal over
simulated time — used e.g. for "average number of concurrent
transactions", the paper's transaction density ``T``.

Every monitor round-trips through JSON (``to_json`` / ``from_json``):
the payload restores the *exact* internal state, so a monitor serialised
mid-run and restored continues bit-identically.  Non-finite floats
(an empty :class:`RunningStats` holds ``inf``/``-inf`` extremes) take
the one JSON codec's tag, :mod:`repro.util.codec`, a leaf below the
simulation kernel.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from ..util.codec import decode, encode

__all__ = ["Counter", "RunningStats", "TimeWeightedValue", "Histogram"]


class Counter:
    """A named bag of monotonically increasing integer counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("Counter.incr amount must be >= 0")
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def to_json(self) -> Dict[str, Any]:
        return {"counts": dict(self._counts)}

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "Counter":
        counter = cls()
        counter._counts = {
            str(name): int(count) for name, count in payload["counts"].items()
        }
        return counter


class RunningStats:
    """Streaming mean / variance / min / max (Welford's algorithm).

    Numerically stable for long runs; O(1) per observation.
    """

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, x: float) -> None:
        """Record one observation."""
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        self._min = min(self._min, x)
        self._max = max(self._max, x)

    def extend(self, xs) -> None:
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        return self._mean if self.n else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); NaN with fewer than 2 points."""
        return self._m2 / (self.n - 1) if self.n >= 2 else math.nan

    @property
    def stdev(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else math.nan  # NaN-propagating

    @property
    def minimum(self) -> float:
        return self._min if self.n else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self.n else math.nan

    def __repr__(self) -> str:
        return f"<RunningStats n={self.n} mean={self.mean:.6g} sd={self.stdev:.6g}>"

    def to_json(self) -> Dict[str, Any]:
        return encode(
            {"n": self.n, "mean": self._mean, "m2": self._m2,
             "min": self._min, "max": self._max}
        )

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "RunningStats":
        payload = decode(payload)
        stats = cls()
        stats.n = int(payload["n"])
        stats._mean = float(payload["mean"])
        stats._m2 = float(payload["m2"])
        stats._min = float(payload["min"])
        stats._max = float(payload["max"])
        return stats


class TimeWeightedValue:
    """Time-integral of a piecewise-constant signal.

    Call :meth:`set` whenever the signal changes; :meth:`average` returns
    the time-weighted mean over the observed window.  This is how we
    measure the paper's transaction density ``T`` — the *average number
    of concurrent transactions* — from a simulation.
    """

    def __init__(self, time: float = 0.0, value: float = 0.0):
        self._start = time
        self._last_time = time
        self._value = value
        self._integral = 0.0

    def set(self, time: float, value: float) -> None:
        """Record that the signal took ``value`` starting at ``time``."""
        if time < self._last_time:
            raise ValueError("TimeWeightedValue updates must be time-ordered")
        self._integral += self._value * (time - self._last_time)
        self._last_time = time
        self._value = value

    def adjust(self, time: float, delta: float) -> None:
        """Increment/decrement the signal (e.g. +1 on txn begin, -1 on end).

        Inlined rather than delegating to :meth:`set`: this runs twice
        per transaction in every ``TransactionLog`` replay, where
        the extra method dispatch is measurable.
        """
        last = self._last_time
        if time < last:
            raise ValueError("TimeWeightedValue updates must be time-ordered")
        value = self._value
        self._integral += value * (time - last)
        self._last_time = time
        self._value = value + delta

    @property
    def current(self) -> float:
        return self._value

    def average(self, now: Optional[float] = None) -> float:
        """Time-weighted mean from construction until ``now`` (or last update)."""
        end = self._last_time if now is None else now
        if end < self._last_time:
            raise ValueError("average(now) must not precede the last update")
        integral = self._integral + self._value * (end - self._last_time)
        span = end - self._start
        return integral / span if span > 0 else self._value

    def to_json(self) -> Dict[str, Any]:
        return encode(
            {"start": self._start, "last_time": self._last_time,
             "value": self._value, "integral": self._integral}
        )

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "TimeWeightedValue":
        payload = decode(payload)
        signal = cls(time=float(payload["start"]), value=float(payload["value"]))
        signal._last_time = float(payload["last_time"])
        signal._integral = float(payload["integral"])
        return signal


class Histogram:
    """Fixed-bin histogram over ``[lo, hi)`` with overflow/underflow bins."""

    def __init__(self, lo: float, hi: float, bins: int):
        if hi <= lo:
            raise ValueError("Histogram needs hi > lo")
        if bins < 1:
            raise ValueError("Histogram needs at least one bin")
        self.lo = lo
        self.hi = hi
        self.bins = bins
        self._width = (hi - lo) / bins
        self.counts: List[int] = [0] * bins
        self.underflow = 0
        self.overflow = 0
        self.n = 0

    def add(self, x: float) -> None:
        self.n += 1
        if x < self.lo:
            self.underflow += 1
        elif x >= self.hi:
            self.overflow += 1
        else:
            self.counts[int((x - self.lo) / self._width)] += 1

    def bin_edges(self) -> List[float]:
        return [self.lo + i * self._width for i in range(self.bins + 1)]

    def normalized(self) -> List[float]:
        """Bin fractions of all in-range observations (empty -> zeros)."""
        total = sum(self.counts)
        if total == 0:
            return [0.0] * self.bins
        return [c / total for c in self.counts]

    def to_json(self) -> Dict[str, Any]:
        return {
            "lo": encode(self.lo),
            "hi": encode(self.hi),
            "bins": self.bins,
            "counts": list(self.counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
            "n": self.n,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "Histogram":
        payload = decode(payload)
        hist = cls(float(payload["lo"]), float(payload["hi"]), int(payload["bins"]))
        counts = [int(count) for count in payload["counts"]]
        if len(counts) != hist.bins:
            raise ValueError(
                f"histogram payload has {len(counts)} counts for "
                f"{hist.bins} bins"
            )
        hist.counts = counts
        hist.underflow = int(payload["underflow"])
        hist.overflow = int(payload["overflow"])
        hist.n = int(payload["n"])
        return hist
