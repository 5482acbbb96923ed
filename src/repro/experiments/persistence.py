"""JSON persistence for experiment results.

Recorded runs should be comparable across machines and months; these
helpers serialise the result containers to plain JSON (round-trippable,
no pickle) so `python -m repro report` output can be archived and
diffed.  Every file goes through :mod:`repro.util.codec`: a non-finite
float anywhere in a payload is written as the codec's tag (JSON has no
NaN, and silently emitting invalid JSON, Python's default, would poison
downstream tooling), and the loaders read it back as a float.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Union

from ..util import codec
from .figures import FigureResult
from .results import Series, Table
from .sweep import SweepPoint, SweepResult

__all__ = [
    "EnvelopeError",
    "SCHEMA_VERSION",
    "figure_from_json",
    "figure_to_json",
    "series_from_json",
    "series_to_json",
    "sweep_from_json",
    "sweep_to_json",
    "save_json",
    "load_json",
    "load_envelope",
    "save_envelope",
]

#: Version stamped into every envelope this package writes.  Bump it
#: when a payload format changes incompatibly: readers reject unknown
#: versions outright instead of mis-parsing them.
SCHEMA_VERSION = 1


class EnvelopeError(ValueError):
    """A persisted file is not a readable envelope of the expected kind."""


# ----------------------------------------------------------------------
# Series
# ----------------------------------------------------------------------
def series_to_json(series: Series) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "label": series.label,
        "x": [float(v) for v in series.x],
        "y": [float(v) for v in series.y],
    }
    if series.yerr is not None:
        out["yerr"] = [float(v) for v in series.yerr]
    return out


def series_from_json(data: Dict[str, Any]) -> Series:
    return Series(
        label=data["label"],
        x=[float(v) for v in data["x"]],
        y=[float(v) for v in data["y"]],
        yerr=[float(v) for v in data["yerr"]] if "yerr" in data else None,
    )


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------
def figure_to_json(figure: FigureResult) -> Dict[str, Any]:
    return {
        "name": figure.name,
        "series": [series_to_json(s) for s in figure.series],
        "table": {
            "title": figure.table.title,
            "headers": figure.table.headers,
            "rows": figure.table.rows,
        },
    }


def figure_from_json(data: Dict[str, Any]) -> FigureResult:
    table = Table(data["table"]["title"], data["table"]["headers"])
    table.rows = [list(row) for row in data["table"]["rows"]]
    return FigureResult(
        name=data["name"],
        series=[series_from_json(s) for s in data["series"]],
        table=table,
    )


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def sweep_to_json(sweep: SweepResult) -> Dict[str, Any]:
    return {
        "axes": sweep.axes,
        "points": [
            {
                "params": point.params,
                "values": list(point.values),
                "mean": point.mean,
                "stdev": point.stdev,
            }
            for point in sweep.points
        ],
    }


def sweep_from_json(data: Dict[str, Any]) -> SweepResult:
    result = SweepResult(axes=list(data["axes"]))
    for entry in data["points"]:
        result.points.append(
            SweepPoint(
                params=dict(entry["params"]),
                values=[float(v) for v in entry["values"]],
                mean=float(entry["mean"]),
                stdev=float(entry["stdev"]),
            )
        )
    return result


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------
def _write_atomic(path: Union[str, pathlib.Path], text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and a rename.

    A reader sees the previous file or the complete new one, never part
    of one; a write that fails leaves the previous file and no temp
    file behind.
    """
    target = pathlib.Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        tmp.write_text(text)
        tmp.replace(target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_json(path: Union[str, pathlib.Path], payload: Dict[str, Any]) -> None:
    """Write a result payload as stable, diffable JSON (atomically)."""
    _write_atomic(path, codec.dumps(payload, indent=2) + "\n")


def load_json(path: Union[str, pathlib.Path]) -> Dict[str, Any]:
    return codec.loads(pathlib.Path(path).read_text())


# ----------------------------------------------------------------------
# Versioned envelopes (cache entries, telemetry, benchmark records)
# ----------------------------------------------------------------------
def save_envelope(
    path: Union[str, pathlib.Path], kind: str, payload: Dict[str, Any]
) -> None:
    """Write ``payload`` wrapped in a ``{"schema": 1, "kind": ...}`` envelope.

    The write is atomic (temp file + rename) so a reader never observes
    a half-written envelope — crucial for the result cache, which treats
    unreadable entries as corruption.
    """
    data = codec.dumps(
        {"schema": SCHEMA_VERSION, "kind": kind, "payload": payload}, indent=2
    )
    _write_atomic(path, data + "\n")


def load_envelope(path: Union[str, pathlib.Path], kind: str) -> Dict[str, Any]:
    """Read an envelope written by :func:`save_envelope`, verifying it.

    Raises :class:`EnvelopeError` when the file is not valid JSON, is
    not an envelope, carries a different schema version, or holds a
    different kind of payload.  Future format changes therefore
    invalidate cleanly: old readers refuse new files and vice versa.
    """
    try:
        data = json.loads(pathlib.Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise EnvelopeError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise EnvelopeError(f"{path}: not an envelope (top level is not an object)")
    if data.get("schema") != SCHEMA_VERSION:
        raise EnvelopeError(
            f"{path}: schema {data.get('schema')!r} != {SCHEMA_VERSION}"
        )
    if data.get("kind") != kind:
        raise EnvelopeError(f"{path}: kind {data.get('kind')!r} != {kind!r}")
    payload = data.get("payload")
    if not isinstance(payload, dict):
        raise EnvelopeError(f"{path}: envelope payload is not an object")
    return codec.decode(payload)
