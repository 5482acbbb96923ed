"""The one bulk reader of a ``random.Random``'s Mersenne Twister stream.

Values come out in draw order, and the stream ends where scalar draws
would leave it.  :func:`words` is ``getrandbits(32)`` in bulk: one
``getrandbits`` call, filled from its lowest word up.  :func:`seat` is
``random()`` in bulk: NumPy's ``Generator(MT19937)`` folds two words
into a double as CPython does (``genrand_res53``), so the state is
written into one shared generator through a view of its state struct
(the ``MT19937.state`` dict costs ~70 µs to set).  The stream does not
move until handed back: :meth:`Seated.hand_back` reads the generator's
state back (a fixed 20-40 µs; the flow fast path's long windows), and
:meth:`Seated.redraw` draws the used words again from the stream (10-15
ns a word, nothing fixed; Monte Carlo's short chunks).  :func:`eligible`
is the gate: a plain ``random.Random`` and no DetSan, whose ledger must
book each draw at its call site.  No other module touches MT19937 state.
"""

from __future__ import annotations

import array
import ctypes
import random
from typing import Any, Optional, Tuple

import numpy as np

from ..analysis.sanitizer.runtime import active_sanitizer

__all__ = ["Seated", "eligible", "seat", "words"]

#: ``random.Random.getstate()`` tuple version this module understands.
_MT_VERSION = 3

#: The generator every stream is seated in, and a ``uint32`` view of
#: its 625 state words.  Built at import (``numpy.random`` takes 10-20
#: ms to import), so forked workers inherit it instead of paying that
#: per trial.
_source = np.random.Generator(np.random.MT19937(0))
_view = np.frombuffer(
    (ctypes.c_uint32 * 625).from_address(_source.bit_generator.ctypes.state_address),
    np.uint32,
)


def eligible(rng: random.Random) -> bool:
    """Whether ``rng`` may be read in bulk (the gate)."""
    return type(rng) is random.Random and active_sanitizer() is None


def words(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` ``getrandbits(32)`` values, as ``uint64``."""
    blob = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
    return np.frombuffer(blob, dtype="<u4").astype(np.uint64)


def _seat(keys: Tuple[int, ...]) -> Any:
    """The shared generator, positioned at a ``random.Random`` state's words."""
    _view[:] = np.frombuffer(array.array("I", keys), dtype=np.uint32)
    return _source


class Seated:
    """A stream seated in the shared generator; ``drawn`` doubles read."""

    __slots__ = ("rng", "state", "source", "drawn")

    def __init__(self, rng: random.Random, state: Tuple[Any, ...]) -> None:
        self.rng, self.state, self.source = rng, state, _seat(state[1])
        self.drawn = 0

    def doubles(self, count: Optional[int] = None, out: Any = None) -> np.ndarray:
        """The next ``random()`` values: ``count`` of them, or filling ``out``."""
        values = self.source.random(count, out=out)
        self.drawn += values.shape[0]
        return values

    def hand_back(self, used: int) -> None:
        """Leave the stream ``used`` doubles past its seat, read off the generator."""
        if used != self.drawn:  # read past the scalar loop's last draw
            _seat(self.state[1]).bit_generator.random_raw(2 * used, output=False)
        self.rng.setstate((_MT_VERSION, tuple(_view.tolist()), self.state[2]))

    def redraw(self, count: int) -> None:
        """Advance the stream itself by its next ``count`` doubles' words."""
        self.rng.getrandbits(64 * count)


def seat(rng: random.Random) -> Optional[Seated]:
    """``rng`` seated for bulk ``random()`` reads, or ``None`` past the gate."""
    if not eligible(rng):
        return None
    state = rng.getstate()
    return Seated(rng, state) if state[0] == _MT_VERSION else None
