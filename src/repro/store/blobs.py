"""The blob tier: content-addressed, deduplicating document storage.

A blob is one JSON-able document stored under the SHA-256 of its canonical
JSON rendering (:func:`repro.graph.serialize.canonical_json`) — the same
hashes the scheduling cache and daemon coalescing already key on, so a
design stored here and a design posted to ``/schedule`` share one identity.
Writing the same content twice stores it once; that is the whole
deduplication story, and :meth:`BlobStore.stats` measures how much it saved.

The store is its directory: blobs live at ``objects/ab/abcd….json``
(git-style fan-out) and no blob text outlives a call, so every process
sharing the directory sees the same store.  Reads are corruption-tolerant:
an entry whose bytes no longer hash to its name is evicted and reported
missing, never a traceback.  All methods are thread-safe — the daemon
serves many connections over one store.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Any, Callable

from repro.errors import StoreNotFound, StoreWriteError
from repro.graph.serialize import canonical_json
from repro.store.evict import (
    atomic_write_text,
    dir_files,
    enforce_size_cap,
    oldest_first,
    total_bytes,
)


class BlobStats:
    """Write/read accounting for one blob store.

    ``stored_bytes`` is asked of the store when read, not kept as a running
    total: what the directory holds is the only record of it, so
    every process on one directory reports the same number, restarts included
    (a ``BlobStats()`` belonging to no store holds ``int()`` = 0 bytes).
    """

    def __init__(self, measure: Callable[[], int] = int) -> None:
        self.puts = 0
        self.dedup_hits = 0
        self.gets = 0
        self.misses = 0
        self.evictions = 0
        self.logical_bytes = 0   # bytes callers asked to store (pre-dedup)
        self._measure = measure  # bytes actually held (post-dedup), right now

    @property
    def stored_bytes(self) -> int:
        return self._measure()

    @property
    def dedup_ratio(self) -> float:
        """logical / stored — > 1.0 whenever deduplication saved anything."""
        return self._ratio(self.stored_bytes)

    def _ratio(self, stored: int) -> float:
        return self.logical_bytes / stored if stored else 1.0

    def as_dict(self, stored: int | None = None) -> dict[str, Any]:
        """``stored``: the store's byte count, if the caller just measured it."""
        doc = {k: v for k, v in vars(self).items() if not k.startswith("_")}
        if stored is None:
            stored = self.stored_bytes  # measured once
        doc["stored_bytes"] = stored
        doc["dedup_ratio"] = round(self._ratio(stored), 4)
        return doc


class BlobStore:
    """Content-addressed blob storage in a directory.

    Parameters
    ----------
    root:
        Directory that *is* the store (created lazily).
    """

    def __init__(self, root: str | Path):
        self._objects = Path(root) / "objects"
        self._lock = threading.RLock()
        self.stats = BlobStats(self.total_bytes)

    def _path(self, digest: str) -> Path:
        return self._objects / digest[:2] / f"{digest}.json"

    # ------------------------------------------------------------------ #
    # core operations
    # ------------------------------------------------------------------ #
    def put(self, doc: Any) -> str:
        """Store ``doc``; returns its content hash.  Idempotent by content.

        Raises :class:`StoreWriteError` when the directory cannot take the
        blob: a hash is only ever returned for bytes :meth:`get` can find.
        """
        text = canonical_json(doc)
        # The stored text *is* the canonical rendering: hashing it is
        # ``fingerprint(doc)`` without rendering the document twice.
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        with self._lock:
            self.stats.puts += 1
            self.stats.logical_bytes += len(text)
            if self.has(digest):
                self.stats.dedup_hits += 1
                return digest
        if not atomic_write_text(self._path(digest), text):
            raise StoreWriteError(
                f"cannot write blob {digest[:12]}… under {self._objects} "
                "(full, read-only or not a directory); nothing was stored"
            )
        return digest

    def get(self, digest: str) -> Any:
        """The stored document, or :class:`StoreError` if absent/corrupt."""
        text = self._read(digest)
        with self._lock:
            self.stats.gets += 1
            if text is None:
                self.stats.misses += 1
        if text is None:
            raise StoreNotFound(f"no blob {digest[:12]}… in the store")
        return json.loads(text)

    def _read(self, digest: str) -> str | None:
        path = self._path(digest)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        # Verify the content address: bytes that do not hash to their own
        # name are corrupt and get evicted rather than served.
        if hashlib.sha256(data).hexdigest() != digest:
            try:
                path.unlink()
            except OSError:
                pass
            with self._lock:
                self.stats.evictions += 1
            return None
        return data.decode("utf-8")

    def has(self, digest: str) -> bool:
        return self._path(digest).exists()

    def delete(self, digest: str) -> bool:
        """Remove one blob; returns whether anything was deleted."""
        try:
            self._path(digest).unlink()
        except OSError:
            return False
        return True

    # ------------------------------------------------------------------ #
    # enumeration + GC support
    # ------------------------------------------------------------------ #
    def digests(self) -> list[str]:
        """Every stored content hash, sorted."""
        return sorted(p.stem for p in dir_files(self._objects))

    def __len__(self) -> int:
        return len(self.digests())

    def census(self) -> tuple[int, int]:
        """``(blobs, bytes)`` held right now (post-dedup), from one listing."""
        files = dir_files(self._objects)
        return len(files), total_bytes(files)

    def total_bytes(self) -> int:
        return self.census()[1]

    def sweep(self, live: set[str]) -> list[str]:
        """Delete every blob not in ``live``, oldest first.

        Returns the deleted digests; the shared eviction policy
        (:mod:`repro.store.evict`) orders the candidates.
        """
        candidates = [p.stem for p in oldest_first(dir_files(self._objects))]
        deleted = [d for d in candidates if d not in live and self.delete(d)]
        with self._lock:
            self.stats.evictions += len(deleted)
        return deleted

    def enforce_cap(
        self, max_bytes: int, keep: set[str] = frozenset()
    ) -> list[str]:
        """Trim oldest blobs until under ``max_bytes``, sparing ``keep``;
        returns the deleted digests."""
        deleted = [
            path.stem
            for path in enforce_size_cap(
                dir_files(self._objects), max_bytes,
                keep={self._path(d) for d in keep},
            )
        ]
        with self._lock:
            self.stats.evictions += len(deleted)
        return deleted
