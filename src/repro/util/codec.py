"""The one JSON codec: every number the reproduction writes, spelled one way.

A collision rate with no transactions behind it is NaN, and JSON has
no spelling for NaN or the infinities.  Cache keys, worker pipes,
cache entries, traces, metric snapshots, span tables, monitors and
result files all write such a value through this module as
``{"__float__": "nan" | "inf" | "-inf"}``, so one value has one
serialized form everywhere and a byte comparison of two artefacts is
a determinism check.  Finite floats, ints and bools pass through.

A leaf: it imports only :mod:`json`, so the simulation kernel and the
CLI parser can use it.  No other module spells the tag
(``tests/test_util_codec.py`` keeps it that way).
"""

from __future__ import annotations

import json
from typing import Any, Optional, Tuple

__all__ = ["decode", "dumps", "encode", "loads", "transport"]


def encode(value: Any) -> Any:
    """Encode ``value`` for the result pipe / cache (JSON, no NaN)."""
    if isinstance(value, float) and value != value:
        return {"__float__": "nan"}
    if isinstance(value, float) and value in (float("inf"), float("-inf")):
        return {"__float__": repr(value)}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode(item) for key, item in value.items()}
    return value


def decode(value: Any) -> Any:
    """Invert :func:`encode`."""
    if isinstance(value, dict):
        if set(value) == {"__float__"}:
            return float(value["__float__"])
        return {key: decode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode(item) for item in value]
    return value


def dumps(value: Any, indent: Optional[int] = None) -> str:
    """The canonical JSON text of ``value`` (encoded, keys sorted).

    Compact by default; with ``indent``, the pretty-printed form that
    result files use.
    """
    return json.dumps(
        encode(value),
        sort_keys=True,
        indent=indent,
        separators=(",", ": " if indent is not None else ":"),
        allow_nan=False,
    )


def loads(text: str) -> Any:
    """Parse JSON text written by :func:`dumps` and decode it."""
    return decode(json.loads(text))


def transport(value: Any) -> Tuple[Any, bool]:
    """``(encoded, plain)`` for a value crossing the worker pipe.

    Raises when the value cannot travel as JSON; ``plain`` means the
    encoded form holds no tag, so the receiver may skip :func:`decode`.
    """
    encoded = encode(value)
    text = json.dumps(encoded, allow_nan=False)  # transportability gate
    return encoded, '"__float__"' not in text
