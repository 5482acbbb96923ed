"""Vectorised window sampling, bit-identical to the pure path.

The flow sampler's cost is dominated by two uniform-draw loops per
window — the chunked-Knuth Poisson count and the per-transaction
Bernoulli collision draws (:mod:`repro.flow.sampler`).  Both consume
doubles from a ``random.Random`` (CPython's Mersenne Twister), whose
``random()`` is byte-for-byte the same ``genrand_res53`` recurrence
NumPy's ``Generator(MT19937).random`` implements.  That makes the loops
vectorisable *exactly*: seat the stream's MT19937 state in a NumPy
generator, read the window's uniforms once, in stream order, and hand
the advanced state back — every count, every comparison, and the
stream's final state come out identical to the scalar loop, so fast and
pure runs (and therefore serial and sharded runs at any worker count)
agree bit for bit.

The uniforms pass through one tape of at most :data:`_BLOCK` doubles.
The Poisson phase walks it one Knuth chunk at a time, probing a little
past each chunk's expected stop; the Bernoulli phase counts ``u < p``
over what it read past the last stop, then over fresh blocks until it
has seen exactly ``n`` draws.

Exactness rests on three facts, each pinned by
``tests/test_flow_fastpath.py``:

* ``Generator(MT19937).random`` and ``random.Random.random`` produce
  the same doubles from the same MT19937 state (both are two 32-bit
  words folded to 53 bits);
* ``numpy.multiply.accumulate`` (``cumprod``) over a float64 vector
  performs the same sequential rounding as the scalar
  ``product *= u`` loop, so the Knuth termination index is the same
  draw the scalar loop stops on (each chunk's product starts fresh at
  its first uniform — there is no carried partial product whose
  rounding could differ);
* the stream's end state is the generator's state after the window's
  last draw: read straight off the generator, or, when the tape read
  past that draw (small ``n``, ``n == 0``, an error after the Poisson
  phase), rebuilt by advancing the initial state by exactly the draws
  the scalar loop made.

The fast path steps aside — returning ``None`` so callers fall back to
the scalar loop — when NumPy is unavailable, when a DetSan sanitizer is
active (SAN001's draw ledger must observe every scalar draw), when the
stream is not a plain ``random.Random`` (e.g. an instrumented proxy),
or inside a :func:`pure_sampling` block (used by the equivalence tests
and the ``flow_scaling`` benchmark to measure the speedup).
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Tuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the package
    _np = None  # type: ignore[assignment]

from ..analysis.sanitizer.runtime import active_sanitizer
from .sampler import (
    _POISSON_CHUNK,
    WindowOutcome,
    WindowSpec,
    window_collision_probability,
)

__all__ = ["HAVE_NUMPY", "fastpath_stats", "pure_sampling", "sample_window_fast"]

#: Whether the vectorised path can exist at all in this environment.
HAVE_NUMPY = _np is not None

#: ``random.Random.getstate()`` tuple version this module understands.
_MT_VERSION = 3

#: Doubles per tape refill and per Bernoulli block: 512 KiB, small
#: enough to stay in cache while the window's comparisons read it.
_BLOCK = 1 << 16

#: Below this expected draw count the scalar loop beats the fixed cost
#: of seating the stream in the generator and reading it back: 170-220
#: µs per window on a 2-vCPU host, where the two paths break even at a
#: mean between 1024 and 2048 and the fast path is ~1.5x faster at 4096.
#: The paths are bit-identical, so the cut-over is only about speed.
_MIN_FAST_MEAN = 4096.0


def _probe(mean: float) -> int:
    """Lookahead for one Knuth chunk: three sigma past its mean.

    About one chunk in 10^4 reads further and doubles its probe.
    """
    return int(mean + 3.0 * math.sqrt(mean)) + 16


#: Stop limit and probe of every full chunk (all but a window's last).
_CHUNK_LIMIT = math.exp(-_POISSON_CHUNK)
_CHUNK_PROBE = _probe(_POISSON_CHUNK)

_forced_pure = False


@contextmanager
def pure_sampling() -> Iterator[None]:
    """Force the scalar sampling path within the block (for tests/benchmarks)."""
    global _forced_pure
    previous = _forced_pure
    _forced_pure = True
    try:
        yield
    finally:
        _forced_pure = previous


def _eligible(rng: random.Random) -> bool:
    if _np is None or _forced_pure:
        return False
    if active_sanitizer() is not None:
        return False
    cls = type(rng)
    if not isinstance(rng, random.Random):
        return False
    # An instrumented/overridden stream must keep drawing through its
    # own methods; only the plain C implementation is transplantable.
    return (
        cls.random is random.Random.random
        and cls.getstate is random.Random.getstate
        and cls.setstate is random.Random.setstate
    )


#: The one generator every window is seated in (seating overwrites its
#: whole state, and flow sampling is single-threaded per process).
#: Built on first use, from a fixed seed, so no OS entropy is read.
_source: Any = None
#: The memory every tape views, so no window allocates and faults in its own.
_buffer: Any = None if _np is None else _np.empty(_BLOCK)


def _seat(keys: Tuple[int, ...]) -> Any:
    """The shared generator, positioned at a ``random.Random`` state's words."""
    global _source
    if _source is None:
        _source = _np.random.Generator(_np.random.MT19937(0))
    _source.bit_generator.state = {
        "bit_generator": "MT19937",
        "state": {"key": _np.asarray(keys[:-1], dtype=_np.uint32), "pos": keys[-1]},
    }
    return _source


def _hand_back(
    rng: random.Random, state: Tuple[Any, ...], drawn: int, used: int
) -> None:
    """Leave ``rng`` ``used`` draws past ``state``; the tape drew ``drawn``."""
    if drawn == used:
        source = _source
    else:
        # The tape read past the window's last draw: seat the initial
        # state again and advance it by exactly the scalar loop's draws
        # (each double is two 32-bit words).
        source = _seat(state[1])
        source.bit_generator.random_raw(2 * used, output=False)
    inner = source.bit_generator.state["state"]
    rng.setstate((_MT_VERSION, (*inner["key"].tolist(), int(inner["pos"])), state[2]))


def sample_window_fast(
    window: WindowSpec,
    id_bits: int,
    rng: random.Random,
    model: str = "mixed",
) -> Optional[WindowOutcome]:
    """Vectorised :func:`repro.flow.sampler.sample_window`, or ``None``.

    ``None`` means "not eligible here — run the scalar path"; a
    returned outcome is bit-identical to the scalar path's, including
    the state ``rng`` is left in.
    """
    mean = window.arrival_rate * window.width
    if mean < _MIN_FAST_MEAN or not _eligible(rng):
        return None
    state = rng.getstate()
    if state[0] != _MT_VERSION or len(state[1]) != 625:
        return None
    fill = _seat(state[1]).random
    accumulate = _np.multiply.accumulate
    count_nonzero = _np.count_nonzero
    # The window reads 2n + chunks uniforms for n ~ Poisson(mean).  The
    # tape draws up to that many less three sigma, so it reads past the
    # window's last draw only when n itself falls three sigma short.
    budget = int(2.0 * mean - 6.0 * math.sqrt(mean)) + int(mean // _POISSON_CHUNK)
    tape = _buffer[: min(_BLOCK, max(budget, 0))]
    drawn = pos = end = 0

    # Poisson phase: sampler.poisson's chunk loop.  The gate makes
    # ``mean`` positive and x - 500 > 0 in floating point for every
    # x > 500, so every chunk, the last included, draws.
    n = 0
    remaining = mean
    while True:
        if remaining > _POISSON_CHUNK:
            limit, need = _CHUNK_LIMIT, _CHUNK_PROBE
        else:
            limit, need = math.exp(-remaining), _probe(remaining)
        while True:
            if pos + need > end:
                # Refill: move the unread tail to the front and top up.
                tail = end - pos
                fresh = max(need - tail, min(_BLOCK - tail, budget - drawn))
                if tail + fresh > tape.shape[0]:
                    grown = _np.empty(tail + fresh)
                    grown[:tail] = tape[pos:end]
                    tape = grown
                else:
                    tape[:tail] = tape[pos:end]
                end = tail + fresh
                fill(out=tape[tail:end])
                drawn += fresh
                pos = 0
            # cumprod of [0, 1) uniforms is non-increasing, so the count
            # above the limit is the index of the first draw at or under
            # it: the draw the scalar loop stops on.
            count = int(count_nonzero(accumulate(tape[pos : pos + need]) > limit))
            if count < need:
                break
            need *= 2
        n += count
        pos += count + 1
        if remaining <= _POISSON_CHUNK:
            break
        remaining -= _POISSON_CHUNK
    consumed = drawn - (end - pos)

    if n == 0:
        _hand_back(rng, state, drawn, consumed)
        return WindowOutcome(window.index, "flow", 0, 0, window.density)
    try:
        p = float(window_collision_probability(id_bits, window, model))
    except ValueError:
        # Leave the stream where the scalar path would have left it
        # (past the Poisson draws) before propagating.
        _hand_back(rng, state, drawn, consumed)
        raise
    # Bernoulli phase: the lookahead holds the first draws, then whole
    # blocks through the same buffer until exactly ``n`` are counted.
    collisions = int(count_nonzero(tape[pos : min(end, pos + n)] < p))
    left = n - (end - pos)
    while left > 0:
        block = tape[: min(left, tape.shape[0])]
        fill(out=block)
        drawn += block.shape[0]
        collisions += int(count_nonzero(block < p))
        left -= block.shape[0]
    _hand_back(rng, state, drawn, consumed + n)
    return WindowOutcome(window.index, "flow", n, collisions, window.density)


def fastpath_stats() -> Dict[str, bool]:
    """Why the fast path is (or is not) active right now — for summaries."""
    return {
        "numpy": HAVE_NUMPY,
        "forced_pure": _forced_pure,
        "sanitizer": active_sanitizer() is not None,
    }
