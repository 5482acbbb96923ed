"""Vectorised window sampling, bit-identical to the pure path.

The flow sampler's cost is two uniform-draw loops per window: the
chunked-Knuth Poisson count and the per-transaction Bernoulli draws
(:mod:`repro.flow.sampler`).  This module reads their ``random()``
doubles in bulk through :mod:`repro.sim.bulk` and holds only the tape
logic: one tape of at most :data:`_BLOCK` doubles.  The Poisson phase
walks it one Knuth chunk at a time, probing a little past each chunk's
expected stop; the Bernoulli phase counts ``u < p`` over what it read
past the last stop, then over fresh blocks until it has seen exactly
``n`` draws.

Exactness, pinned by ``tests/test_flow_fastpath.py``, rests on the
reader's doubles being ``random()``'s in stream order, on
``numpy.multiply.accumulate`` rounding like the scalar ``product *= u``
loop (each Knuth chunk's product starts fresh), and on the stream being
handed back just past the window's last draw, also when the tape read
further.  Fast and pure runs, so serial and sharded runs at any worker
count, agree bit for bit.

The fast path steps aside, returning ``None`` so callers run the scalar
loop, past the reader's gate (DetSan, whose SAN001 ledger must see
every draw, or a stream that is not a plain ``random.Random``), below
:data:`_MIN_FAST_MEAN`, and inside :func:`pure_sampling` (equivalence
tests and the ``flow_scaling`` benchmark).
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

import numpy as np

from ..analysis.sanitizer.runtime import active_sanitizer
from ..sim.bulk import seat
from .sampler import (
    _POISSON_CHUNK,
    WindowOutcome,
    WindowSpec,
    window_collision_probability,
)

__all__ = ["fastpath_stats", "pure_sampling", "sample_window_fast"]

#: Doubles per tape refill and per Bernoulli block: 512 KiB, small
#: enough to stay in cache while the window's comparisons read it.
_BLOCK = 1 << 16

#: Below this expected draw count the scalar loop beats the fixed cost
#: of seating the stream and reading it back.  Set when that cost was
#: 170-220 µs a window (break-even between a mean of 1024 and 2048 on a
#: 2-vCPU host); :mod:`repro.sim.bulk` has since cut it, and the
#: crossover awaits re-measuring.  The paths are bit-identical anyway.
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


#: The memory every tape views, so no window allocates and faults in its own.
_buffer = np.empty(_BLOCK)


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
    reader = None if mean < _MIN_FAST_MEAN or _forced_pure else seat(rng)
    if reader is None:
        return None
    fill = reader.doubles
    accumulate = np.multiply.accumulate
    count_nonzero = np.count_nonzero
    # The window reads 2n + chunks uniforms for n ~ Poisson(mean).  The
    # tape draws up to that many less three sigma, so it reads past the
    # window's last draw only when n itself falls three sigma short.
    budget = int(2.0 * mean - 6.0 * math.sqrt(mean)) + int(mean // _POISSON_CHUNK)
    tape = _buffer[: min(_BLOCK, max(budget, 0))]
    pos = end = 0

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
                fresh = max(need - tail, min(_BLOCK - tail, budget - reader.drawn))
                if tail + fresh > tape.shape[0]:
                    grown = np.empty(tail + fresh)
                    grown[:tail] = tape[pos:end]
                    tape = grown
                else:
                    tape[:tail] = tape[pos:end]
                end = tail + fresh
                fill(out=tape[tail:end])
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
    consumed = reader.drawn - (end - pos)

    if n == 0:
        reader.hand_back(consumed)
        return WindowOutcome(window.index, "flow", 0, 0, window.density)
    try:
        p = float(window_collision_probability(id_bits, window, model))
    except ValueError:
        # Leave the stream where the scalar path would have left it
        # (past the Poisson draws) before propagating.
        reader.hand_back(consumed)
        raise
    # Bernoulli phase: the lookahead holds the first draws, then whole
    # blocks through the same buffer until exactly ``n`` are counted.
    collisions = int(count_nonzero(tape[pos : min(end, pos + n)] < p))
    left = n - (end - pos)
    while left > 0:
        block = tape[: min(left, tape.shape[0])]
        fill(out=block)
        collisions += int(count_nonzero(block < p))
        left -= block.shape[0]
    reader.hand_back(consumed + n)
    return WindowOutcome(window.index, "flow", n, collisions, window.density)


def fastpath_stats() -> Dict[str, bool]:
    """Why the fast path is (or is not) active right now — for summaries."""
    return {"forced_pure": _forced_pure, "sanitizer": active_sanitizer() is not None}
