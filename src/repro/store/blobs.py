"""The blob tier: content-addressed, deduplicating document storage.

A blob is one JSON-able document stored under the SHA-256 of its canonical
JSON rendering (:func:`repro.graph.serialize.canonical_json`) — the same
hashes the scheduling cache and daemon coalescing already key on, so a
design stored here and a design posted to ``/schedule`` share one identity.
Writing the same content twice stores it once; that is the whole
deduplication story, and :meth:`BlobStore.stats` measures how much it saved.

The store is memory-first with an optional disk tier (``objects/ab/abcd….json``,
git-style fan-out).  Disk reads are corruption-tolerant: an entry whose
bytes no longer hash to its name is evicted and reported missing, never a
traceback.  All methods are thread-safe — the daemon serves many
connections over one store.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Any, Iterator

from repro.errors import StoreNotFound
from repro.graph.serialize import canonical_json
from repro.store.evict import (
    atomic_write_text,
    dir_files,
    enforce_size_cap,
    oldest_first,
)


class BlobStats:
    """Write/read accounting for one blob store."""

    def __init__(self) -> None:
        self.puts = 0
        self.dedup_hits = 0
        self.gets = 0
        self.misses = 0
        self.evictions = 0
        self.logical_bytes = 0   # bytes callers asked to store (pre-dedup)
        self.stored_bytes = 0    # bytes actually held (post-dedup)

    @property
    def dedup_ratio(self) -> float:
        """logical / stored — > 1.0 whenever deduplication saved anything."""
        return self.logical_bytes / self.stored_bytes if self.stored_bytes else 1.0

    def as_dict(self) -> dict[str, Any]:
        doc = dict(vars(self))
        doc["dedup_ratio"] = round(self.dedup_ratio, 4)
        return doc


class BlobStore:
    """Content-addressed blob storage with optional disk persistence.

    Parameters
    ----------
    root:
        Directory for the disk tier (created lazily); ``None`` keeps every
        blob in memory only.
    """

    def __init__(self, root: str | Path | None = None):
        self._root = Path(root) if root is not None else None
        self._mem: dict[str, str] = {}
        self._lock = threading.RLock()
        self.stats = BlobStats()
        if self._root is not None:
            # Adopt whatever a previous process left behind so stored_bytes
            # and dedup accounting stay truthful across restarts.
            for path in dir_files(self._objects_dir()):
                self.stats.stored_bytes += path.stat().st_size

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    def _objects_dir(self) -> Path:
        assert self._root is not None
        return self._root / "objects"

    def _path(self, digest: str) -> Path:
        return self._objects_dir() / digest[:2] / f"{digest}.json"

    # ------------------------------------------------------------------ #
    # core operations
    # ------------------------------------------------------------------ #
    def put(self, doc: Any) -> str:
        """Store ``doc``; returns its content hash.  Idempotent by content."""
        text = canonical_json(doc)
        # The stored text *is* the canonical rendering: hashing it is
        # ``fingerprint(doc)`` without rendering the document twice.
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        with self._lock:
            self.stats.puts += 1
            self.stats.logical_bytes += len(text)
            if digest in self._mem or (
                self._root is not None and self._path(digest).exists()
            ):
                self.stats.dedup_hits += 1
                self._mem.setdefault(digest, text)
                return digest
            self._mem[digest] = text
            self.stats.stored_bytes += len(text)
        if self._root is not None:
            # A full or read-only disk must never break a put: the blob
            # still lives in memory for this process's lifetime.
            atomic_write_text(self._path(digest), text)
        return digest

    def get(self, digest: str) -> Any:
        """The stored document, or :class:`StoreError` if absent/corrupt."""
        with self._lock:
            self.stats.gets += 1
            text = self._mem.get(digest)
        if text is None and self._root is not None:
            text = self._disk_read(digest)
            if text is not None:
                with self._lock:
                    self._mem.setdefault(digest, text)
        if text is None:
            with self._lock:
                self.stats.misses += 1
            raise StoreNotFound(f"no blob {digest[:12]}… in the store")
        return json.loads(text)

    def _disk_read(self, digest: str) -> str | None:
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
                self.stats.stored_bytes = max(
                    0, self.stats.stored_bytes - len(data)
                )
            return None
        return data.decode("utf-8")

    def has(self, digest: str) -> bool:
        with self._lock:
            if digest in self._mem:
                return True
        return self._root is not None and self._path(digest).exists()

    def delete(self, digest: str) -> bool:
        """Remove one blob; returns whether anything was deleted."""
        removed = False
        with self._lock:
            text = self._mem.pop(digest, None)
            if text is not None:
                removed = True
                self.stats.stored_bytes = max(
                    0, self.stats.stored_bytes - len(text)
                )
        if self._root is not None:
            path = self._path(digest)
            try:
                size = path.stat().st_size
                path.unlink()
                if not removed:
                    with self._lock:
                        self.stats.stored_bytes = max(
                            0, self.stats.stored_bytes - size
                        )
                removed = True
            except OSError:
                pass
        return removed

    # ------------------------------------------------------------------ #
    # enumeration + GC support
    # ------------------------------------------------------------------ #
    def digests(self) -> list[str]:
        """Every stored content hash (memory ∪ disk), sorted."""
        with self._lock:
            known = set(self._mem)
        if self._root is not None:
            for path in dir_files(self._objects_dir()):
                known.add(path.stem)
        return sorted(known)

    def __len__(self) -> int:
        return len(self.digests())

    def __iter__(self) -> Iterator[str]:
        return iter(self.digests())

    def total_bytes(self) -> int:
        with self._lock:
            return self.stats.stored_bytes

    def sweep(self, live: set[str]) -> list[str]:
        """Delete every blob not in ``live`` (oldest-first on disk).

        Returns the deleted digests; the shared eviction policy
        (:mod:`repro.store.evict`) orders the disk candidates.
        """
        deleted: list[str] = []
        if self._root is not None:
            dead = [
                p for p in oldest_first(dir_files(self._objects_dir()))
                if p.stem not in live
            ]
            for path in dead:
                if self.delete(path.stem):
                    deleted.append(path.stem)
        for digest in list(self.digests()):
            if digest not in live and digest not in deleted:
                if self.delete(digest):
                    deleted.append(digest)
        with self._lock:
            self.stats.evictions += len(deleted)
        return deleted

    def enforce_cap(
        self, max_bytes: int, keep: set[str] = frozenset()
    ) -> list[str]:
        """Trim oldest blobs until under ``max_bytes``, sparing ``keep``.

        In-memory-only blobs count toward the cap too and are trimmed in
        digest order after the disk tier; returns the deleted digests.
        """
        deleted: list[str] = []
        if self._root is not None:
            files = dir_files(self._objects_dir())
            sizes = {}
            for path in files:
                try:
                    sizes[path] = path.stat().st_size
                except OSError:
                    sizes[path] = 0
            keep_paths = {self._path(d) for d in keep}
            for path in enforce_size_cap(files, max_bytes, keep=keep_paths):
                digest = path.stem
                with self._lock:
                    self._mem.pop(digest, None)
                    self.stats.stored_bytes = max(
                        0, self.stats.stored_bytes - sizes.get(path, 0)
                    )
                deleted.append(digest)
        while self.total_bytes() > max_bytes:
            with self._lock:
                trimmable = sorted(set(self._mem) - set(keep) - set(deleted))
                if not trimmable:
                    break
            if self.delete(trimmable[0]):
                deleted.append(trimmable[0])
        with self._lock:
            self.stats.evictions += len(deleted)
        return deleted
