"""Content-addressed, on-disk trial-result cache.

Entries live at ``<root>/<key[:2]>/<key>.json`` where ``key`` is the
SHA-256 content address from :func:`repro.exec.keys.trial_key` — the
hash of the trial function's qualified name, its parameters, its seed,
and the package version.  Because the *address* encodes the inputs,
invalidation is free: change anything and the lookup simply misses.
Entries are versioned envelopes (see
:mod:`repro.experiments.persistence`), so a future format change makes
old files unreadable-as-envelopes rather than silently mis-parsed;
unreadable or mismatched entries are deleted and recomputed.

Values are stored in the one JSON encoding (:mod:`repro.util.codec`),
which is exactly what workers ship over their result pipes — a cache
hit and a fresh computation are therefore indistinguishable to the
caller, byte for byte.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

__all__ = ["CacheStats", "ResultCache"]

_KIND = "trial-result"


@dataclass
class CacheStats:
    """Traffic counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupted: int = 0

    def reset(self) -> None:
        self.hits = self.misses = self.writes = self.corrupted = 0


class ResultCache:
    """A directory of content-addressed trial results."""

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)`` for ``key``, decoded by the envelope reader.

        A corrupted entry — truncated file, wrong schema, foreign kind,
        or a key mismatch from a hash truncation bug — counts as a miss,
        is deleted, and will be rewritten by the next :meth:`put`.

        Every hit re-stamps the entry's file times, giving
        :meth:`gc` a least-recently-*read* eviction order that works
        on ``noatime`` mounts too.
        """
        from ..experiments.persistence import EnvelopeError, load_envelope

        path = self.path_for(key)
        if not path.exists():
            self.stats.misses += 1
            return False, None
        try:
            payload = load_envelope(path, _KIND)
            if payload.get("key") != key:
                raise EnvelopeError(f"{path}: stored key does not match address")
            value = payload["value"]
        except (EnvelopeError, KeyError, OSError):
            self.stats.corrupted += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return False, None
        self.stats.hits += 1
        try:
            os.utime(path)
        except OSError:
            pass  # read-only cache mounts still serve hits
        return True, value

    def put(self, key: str, value: Any, meta: Optional[Dict[str, Any]] = None) -> None:
        """Store a transport-encoded ``value`` under ``key`` (atomic).

        Every entry is stamped with the writing ``repro.__version__``:
        keys already incorporate the version, so old-version entries can
        never be *read* again — the stamp is what lets :meth:`gc` find
        and drop those orphans.
        """
        from .. import __version__
        from ..experiments.persistence import save_envelope

        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        stamped = dict(meta) if meta else {}
        stamped.setdefault("version", __version__)
        payload = {"key": key, "value": value, "meta": stamped}
        save_envelope(path, _KIND, payload)
        self.stats.writes += 1

    # ------------------------------------------------------------------
    # Management (python -m repro cache)
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[Tuple[pathlib.Path, Optional[str]]]:
        """Yield ``(path, writer_version)`` for every stored entry.

        ``writer_version`` is None for entries that predate version
        stamping or cannot be parsed — both are orphans by definition
        (their keys were minted by some other version's key schema).
        """
        from ..experiments.persistence import EnvelopeError, load_envelope

        for path in sorted(self.root.glob("*/*.json")):
            try:
                payload = load_envelope(path, _KIND)
                version = payload.get("meta", {}).get("version")
            except (EnvelopeError, OSError):
                version = None
            yield path, version if isinstance(version, str) else None

    def disk_stats(self) -> Dict[str, Any]:
        """Entry count, total bytes, and entries-per-writer-version."""
        count = 0
        total_bytes = 0
        versions: Dict[str, int] = {}
        for path, version in self.entries():
            count += 1
            try:
                total_bytes += path.stat().st_size
            except OSError:
                pass
            label = version if version is not None else "(unstamped)"
            versions[label] = versions.get(label, 0) + 1
        return {
            "root": str(self.root),
            "entries": count,
            "bytes": total_bytes,
            "versions": dict(sorted(versions.items())),
        }

    def gc(
        self,
        keep_version: Optional[str] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Drop unreachable entries, then enforce a size cap.

        Entries not written by ``keep_version`` (default: current) go
        first: cache keys fold ``repro.__version__`` in, so entries
        stamped by any other version are unreachable forever — pure
        disk waste.  With ``max_bytes``, surviving entries are then
        evicted least-recently-read first (:meth:`get` re-stamps file
        times on every hit) until the total is within the cap.
        Returns the number of entries removed.
        """
        if keep_version is None:
            from .. import __version__ as keep_version  # type: ignore[no-redef]
        removed = 0
        survivors: List[Tuple[float, int, pathlib.Path]] = []
        for path, version in self.entries():
            if version != keep_version:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
                continue
            if max_bytes is not None:
                try:
                    stat = path.stat()
                except OSError:
                    continue
                survivors.append((stat.st_mtime, stat.st_size, path))
        if max_bytes is not None:
            total = sum(size for _, size, _ in survivors)
            survivors.sort(key=lambda item: (item[0], str(item[2])))
            for _, size, path in survivors:
                if total <= max_bytes:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                removed += 1
                total -= size
        self._prune_empty_dirs()
        return removed

    def purge(self) -> int:
        """Delete every entry.  Returns the number removed."""
        removed = 0
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self._prune_empty_dirs()
        return removed

    def _prune_empty_dirs(self) -> None:
        for shard in self.root.glob("*"):
            if shard.is_dir():
                try:
                    shard.rmdir()  # only succeeds when empty
                except OSError:
                    pass

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def __repr__(self) -> str:
        return f"<ResultCache {self.root} stats={self.stats}>"
