"""Versioned JSONL envelope for :class:`repro.sim.trace.TraceRecord` streams.

Layout (one JSON object per line):

* line 1 — header: ``{"kind": "repro.obs/trace", "schema": 1,
  "writer": <repro version>, "meta": {...}}``;
* lines 2..N+1 — records: ``{"t": time, "c": category, "f": fields}``
  written by :func:`repro.util.codec.dumps` (keys sorted, non-finite
  floats tagged the way every other artefact tags them), so a record
  has exactly one serialized form;
* last line — footer: ``{"end": true, "records": N}``.

The writer streams: each record goes to disk as it is written, so
million-event runs never buffer a trace in RAM.  Writes go to
``<path>.tmp`` and the file is renamed into place only by a successful
:meth:`TraceWriter.close` — a worker that crashes mid-trace leaves an
orphan ``.tmp`` that shard collection ignores, so shards are always
complete-or-excluded, never truncated mid-record.  The footer guards
the remaining window (a complete-looking file that lost its tail some
other way): readers raise :class:`TraceReadError` when it is missing
or disagrees with the record count.

Comparability is the point of the format: two traces of the same
scenario serialize identically byte for byte iff they recorded the
same events, which is what ``python -m repro obs diff`` checks.
"""

from __future__ import annotations

import json
import pathlib
from types import TracebackType
from typing import Any, Dict, Iterator, List, Optional, Tuple, Type, Union

from ..sim.trace import TraceRecord
from ..util import codec

__all__ = [
    "SCHEMA_VERSION",
    "TRACE_KIND",
    "TraceReadError",
    "TraceWriter",
    "read_header",
    "read_trace",
    "load_trace",
    "write_trace",
]

#: Bump when a line format changes incompatibly; readers reject unknown
#: versions outright instead of mis-parsing them.
SCHEMA_VERSION = 1

TRACE_KIND = "repro.obs/trace"

PathLike = Union[str, pathlib.Path]


class TraceReadError(ValueError):
    """A file is not a complete, readable trace of the expected schema."""


def _record_line(record: TraceRecord) -> str:
    """The canonical one-line form of a record (deterministic bytes)."""
    return codec.dumps(
        {"t": record.time, "c": record.category, "f": dict(record.fields)}
    )


class TraceWriter:
    """Streaming trace writer with atomic finalization.

    Use as a context manager; the target file appears only when the
    ``with`` block exits cleanly (or :meth:`close` is called).  An
    exception mid-write leaves just the ``.tmp``, which readers and
    shard collection ignore.
    """

    def __init__(self, path: PathLike, meta: Optional[Dict[str, Any]] = None):
        from .. import __version__

        self.path = pathlib.Path(path)
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        self._records = 0
        self._closed = False
        self._out = self._tmp.open("w", encoding="utf-8")
        header = {
            "kind": TRACE_KIND,
            "schema": SCHEMA_VERSION,
            "writer": __version__,
            "meta": dict(meta or {}),
        }
        self._out.write(codec.dumps(header) + "\n")

    @property
    def records(self) -> int:
        return self._records

    def write(self, record: TraceRecord) -> None:
        self._out.write(_record_line(record) + "\n")
        self._records += 1

    def emit(self, time: float, category: str, **fields: Any) -> None:
        """Recorder-shaped convenience: write one record."""
        self.write(TraceRecord(time=time, category=category, fields=fields))

    def close(self) -> None:
        """Write the footer and atomically rename the trace into place."""
        if self._closed:
            return
        self._closed = True
        self._out.write(codec.dumps({"end": True, "records": self._records}) + "\n")
        self._out.close()
        self._tmp.replace(self.path)

    def abort(self) -> None:
        """Drop the partial trace (leaves no file behind)."""
        if self._closed:
            return
        self._closed = True
        self._out.close()
        self._tmp.unlink(missing_ok=True)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_trace(
    path: PathLike,
    records: Iterator[TraceRecord],
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write an iterable of records as one trace; returns the count."""
    with TraceWriter(path, meta=meta) as writer:
        for record in records:
            writer.write(record)
        return writer.records


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def _parse_header(path: pathlib.Path, line: str) -> Dict[str, Any]:
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceReadError(f"{path}: header is not valid JSON ({exc})") from exc
    if not isinstance(header, dict) or header.get("kind") != TRACE_KIND:
        raise TraceReadError(f"{path}: not a {TRACE_KIND} file")
    if header.get("schema") != SCHEMA_VERSION:
        raise TraceReadError(
            f"{path}: schema {header.get('schema')!r} != {SCHEMA_VERSION}"
        )
    return header


def read_header(path: PathLike) -> Dict[str, Any]:
    """The trace's header object (kind/schema/writer/meta), validated."""
    target = pathlib.Path(path)
    with target.open("r", encoding="utf-8") as inp:
        first = inp.readline()
    if not first:
        raise TraceReadError(f"{target}: empty file")
    return _parse_header(target, first)


def read_trace(path: PathLike) -> Iterator[TraceRecord]:
    """Stream the records of a trace, verifying header and footer.

    Raises :class:`TraceReadError` for a wrong kind/schema, a malformed
    line, or a missing/disagreeing footer (truncation).  The error for
    a truncated file surfaces only after the intact prefix has been
    yielded — callers that must not observe partial traces should drain
    into a list (:func:`load_trace`) or pre-validate.
    """
    target = pathlib.Path(path)
    with target.open("r", encoding="utf-8") as inp:
        first = inp.readline()
        if not first:
            raise TraceReadError(f"{target}: empty file")
        _parse_header(target, first)
        count = 0
        footer: Optional[Dict[str, Any]] = None
        for lineno, line in enumerate(inp, start=2):
            line = line.strip()
            if not line:
                continue
            if footer is not None:
                raise TraceReadError(f"{target}:{lineno}: data after footer")
            try:
                body = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceReadError(
                    f"{target}:{lineno}: not valid JSON ({exc})"
                ) from exc
            if not isinstance(body, dict):
                raise TraceReadError(f"{target}:{lineno}: not an object")
            if body.get("end") is True:
                footer = body
                continue
            if not {"t", "c", "f"} <= set(body):
                raise TraceReadError(f"{target}:{lineno}: malformed record")
            fields = codec.decode(body["f"])
            if not isinstance(fields, dict):
                raise TraceReadError(f"{target}:{lineno}: fields not an object")
            count += 1
            yield TraceRecord(
                time=float(codec.decode(body["t"])),
                category=str(body["c"]),
                fields=fields,
            )
        if footer is None:
            raise TraceReadError(
                f"{target}: no footer — file truncated after {count} record(s)"
            )
        declared = footer.get("records")
        if declared != count:
            raise TraceReadError(
                f"{target}: footer declares {declared!r} records, read {count}"
            )


def load_trace(path: PathLike) -> Tuple[Dict[str, Any], List[TraceRecord]]:
    """``(header, records)`` of a trace, fully validated before return."""
    header = read_header(path)
    return header, list(read_trace(path))
