"""Canonical trial identities: points, derived seeds, cache keys.

Everything the execution layer does — sharding trials across workers,
replaying cached results, comparing serial and parallel runs — rests on
one property: a trial's identity is a *pure function of its inputs*,
never of execution order, object identity, or wall-clock time.  This
module defines that identity.

* :func:`canonical_point` renders a parameter mapping as a canonical
  JSON string (sorted keys, compact separators, callables by qualified
  name) so the same logical point always produces the same bytes.
* :func:`derive_trial_seed` maps ``(base_seed, point, k)`` to replicate
  ``k``'s seed via :func:`repro.sim.rng.derive_seed` — SHA-256 based,
  collision-resistant, stable across platforms.  This replaces the old
  ``base_seed + 1000*k`` convention, whose arithmetic collided across
  base seeds (``base=0, k=1`` equalled ``base=1000, k=0``).
* :func:`trial_key` hashes ``(function, params, seed, version)`` into
  the content address under which a trial's result is cached.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from typing import Any, Mapping

from ..sim.rng import derive_seed
from ..util import codec

__all__ = [
    "canonical_point",
    "canonical_value",
    "derive_trial_seed",
    "trial_key",
]

#: Bump when the canonical encoding itself changes (invalidates all keys).
KEY_SCHEMA = 2


def canonical_value(value: Any) -> Any:
    """A JSON-stable stand-in for ``value``.

    Primitives go through :func:`repro.util.codec.encode` (only a
    non-finite float changes: it takes the codec's tag);
    sequences and mappings recurse (mappings with sorted keys);
    callables are named by module-qualified name (their *identity*, not
    their address); dataclasses flatten to their field dict.  Anything
    else falls back to ``type:repr`` — stable only as far as the type's
    ``__repr__`` is, which is the caller's contract to keep.
    """
    if value is None or isinstance(value, (str, int, float)):
        return codec.encode(value)
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, Mapping):
        return {
            str(key): canonical_value(value[key]) for key in sorted(value, key=str)
        }
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical_value(getattr(value, f.name)) for f in fields(value)
        }
    if callable(value):
        module = getattr(value, "__module__", "?")
        name = getattr(value, "__qualname__", getattr(value, "__name__", repr(value)))
        return f"callable:{module}.{name}"
    return f"{type(value).__module__}.{type(value).__qualname__}:{value!r}"


def canonical_point(params: Mapping[str, Any]) -> str:
    """Canonical string form of one grid point's parameters."""
    return codec.dumps({str(key): canonical_value(params[key]) for key in params})


def derive_trial_seed(base_seed: int, point: str, k: int) -> int:
    """Seed of replicate ``k`` at grid point ``point``.

    ``derive_seed(base_seed, f"trial:{point}:{k}")`` — every (point,
    replicate) pair gets a statistically independent 64-bit seed, and no
    two distinct pairs can alias the way the additive convention did.
    """
    return derive_seed(base_seed, f"trial:{point}:{k}")


def function_name(fn: Any) -> str:
    """The qualified name under which ``fn``'s results are cached."""
    module = getattr(fn, "__module__", "?")
    name = getattr(fn, "__qualname__", getattr(fn, "__name__", repr(fn)))
    return f"{module}.{name}"


def trial_key(fn_name: str, params: Mapping[str, Any], seed: Any, version: str) -> str:
    """Content address of one trial's result.

    SHA-256 over the canonical JSON of ``{schema, fn, params, seed,
    version}``.  Any change to the trial function's name, a parameter,
    the seed, or the package version yields a different key — stale
    results are never *invalidated*, they are simply never found.
    """
    material = codec.dumps(
        {
            "schema": KEY_SCHEMA,
            "fn": fn_name,
            "params": canonical_value(dict(params)),
            "seed": canonical_value(seed),
            "version": version,
        }
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()
