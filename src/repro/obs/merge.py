"""Merge per-worker trace shards into one ordered stream.

Forked workers (one per flow window range) each stream their records
into their own shard file; the parent folds the shards into a single
trace with :func:`heapq.merge` — the same k-way heap-merge shape as the
fast event core — so the merge is streaming too and never holds more
than one record per shard in memory.

Ordering must be total and independent of worker scheduling for the
merged trace to be byte-identical to a serial export.  Records are
keyed ``(time, shard_rank, position)``: shard rank is the shard's index
in the sorted shard list (which encodes range order in its file
names), position the record's index within its shard.  Equal-time
records therefore keep shard-major, then FIFO, order — exactly the
order a serial run emits them in.
"""

from __future__ import annotations

import heapq
import pathlib
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..sim.trace import TraceRecord
from .envelope import TraceWriter, read_trace

__all__ = ["collect_shards", "merge_shards", "merge_records", "merge_streams"]

PathLike = Union[str, pathlib.Path]

_Keyed = Tuple[Tuple[float, int, int], TraceRecord]


def _keyed_records(
    rank: int, records: Iterable[TraceRecord]
) -> Iterator[_Keyed]:
    for position, record in enumerate(records):
        yield (record.time, rank, position), record


def merge_streams(
    streams: Sequence[Iterable[TraceRecord]],
) -> Iterator[TraceRecord]:
    """Merge already-time-ordered record streams into one.

    Equal-time records keep stream order (earlier stream first), then
    within-stream order — the total order every trace export uses.
    """
    keyed = [_keyed_records(rank, stream) for rank, stream in enumerate(streams)]
    for _, record in heapq.merge(*keyed):
        yield record


def collect_shards(spool_dir: PathLike, pattern: str = "*.jsonl") -> List[pathlib.Path]:
    """The complete shard files of a spool directory, in sorted order.

    Only finalized shards match: a worker that crashed mid-trace leaves
    a ``*.tmp`` (never renamed into place), which the pattern excludes —
    partial shards are dropped whole, never half-read.
    """
    spool = pathlib.Path(spool_dir)
    return sorted(p for p in spool.glob(pattern) if not p.name.endswith(".tmp"))


def merge_records(shard_paths: Sequence[PathLike]) -> Iterator[TraceRecord]:
    """Stream the records of several shards in merged ``(time, shard)`` order."""
    return merge_streams([read_trace(path) for path in shard_paths])


def merge_shards(
    shard_paths: Sequence[PathLike],
    out_path: PathLike,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Merge shard traces into one trace at ``out_path``; returns record count."""
    with TraceWriter(out_path, meta=meta) as writer:
        for record in merge_records(shard_paths):
            writer.write(record)
        return writer.records
