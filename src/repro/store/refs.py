"""The ref tier: tenant-scoped project names with linear version history.

A *ref* is the mutable part of the store — everything else is immutable
blobs.  Each tenant owns a flat namespace of project names, and each name
carries a linear list of versions; version ``N`` points at a manifest blob
by content hash and remembers an optional commit message.  Forking a
project is just writing a new ref whose first version reuses an existing
manifest hash — no blob is copied.

Disk layout (when a root directory is given)::

    refs/<tenant>/<name>.json
        {"type": "project-ref", "format": 1,
         "versions": [{"v": 1, "manifest": "<hash>", "message": "..."}]}

Writes are atomic (tmp + replace) and the whole tier is thread-safe.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path
from typing import Any

from repro.errors import StoreError, StoreNotFound
from repro.store.evict import atomic_write_text

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def check_name(kind: str, value: str) -> str:
    """Validate a tenant or project name; returns it unchanged."""
    if not isinstance(value, str) or not _NAME_RE.match(value):
        raise StoreError(
            f"bad {kind} name {value!r}: use letters, digits, '_', '-', '.'"
        )
    return value


def parse_version(text: str) -> int:
    """The ``N`` of a ``tenant/name@N`` ref or a ``/v/N`` path segment."""
    try:
        return int(text)
    except ValueError:
        raise StoreError(f"bad version {text!r}: expected an integer") from None


class RefStore:
    """Named, versioned pointers into the blob tier."""

    def __init__(self, root: str | Path | None = None):
        self._root = Path(root) if root is not None else None
        # tenant -> name -> list of version entries (dicts)
        self._refs: dict[str, dict[str, list[dict[str, Any]]]] = {}
        # refs whose last write failed: memory is their only full copy
        self._unsaved: set[tuple[str, str]] = set()
        self._lock = threading.RLock()
        self.reload()

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def _refs_dir(self) -> Path:
        assert self._root is not None
        return self._root / "refs"

    def _path(self, tenant: str, name: str) -> Path:
        return self._refs_dir() / tenant / f"{name}.json"

    def reload(self) -> None:
        """Read ``refs/`` again: another process may have written since.

        A ref file on disk replaces the history held in memory, unless this
        process's last write of that ref failed: then memory holds versions
        the file lacks, and it stays.  A ref with no file at all stays too.
        """
        if self._root is None or not self._refs_dir().is_dir():
            return
        with self._lock:
            for path in sorted(self._refs_dir().glob("*/*.json")):
                try:
                    doc = json.loads(path.read_text(encoding="utf-8"))
                    versions = doc["versions"]
                except (OSError, json.JSONDecodeError, KeyError):
                    continue  # corrupt ref: skip, never crash startup
                tenant, name = path.parent.name, path.stem
                if (tenant, name) not in self._unsaved:
                    self._refs.setdefault(tenant, {})[name] = list(versions)

    def _persist(self, tenant: str, name: str) -> None:
        if self._root is None:
            return
        path = self._path(tenant, name)
        doc = {
            "type": "project-ref",
            "format": 1,
            "versions": self._refs[tenant][name],
        }
        # On a failed write the memory copy stays authoritative for this
        # process, reload() included, until a later write of the ref lands.
        if atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=1)):
            self._unsaved.discard((tenant, name))
        else:
            self._unsaved.add((tenant, name))

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._refs)

    def projects(self, tenant: str) -> list[str]:
        with self._lock:
            return sorted(self._refs.get(tenant, {}))

    def versions(self, tenant: str, name: str) -> list[dict[str, Any]]:
        """The full history, oldest first; copies so callers cannot mutate."""
        with self._lock:
            try:
                entries = self._refs[tenant][name]
            except KeyError:
                raise StoreNotFound(
                    f"no project {tenant}/{name} in the store"
                ) from None
            return [dict(e) for e in entries]

    def head(self, tenant: str, name: str) -> dict[str, Any]:
        return self.versions(tenant, name)[-1]

    def resolve(self, tenant: str, name: str, version: int | None = None
                ) -> dict[str, Any]:
        """Version entry for ``version`` (1-based), or the head if ``None``."""
        history = self.versions(tenant, name)
        if version is None:
            return history[-1]
        for entry in history:
            if entry["v"] == version:
                return entry
        raise StoreNotFound(
            f"{tenant}/{name} has no version {version} "
            f"(history has {len(history)})"
        )

    def exists(self, tenant: str, name: str) -> bool:
        with self._lock:
            return name in self._refs.get(tenant, {})

    def version_count(self, tenant: str) -> int:
        """Total versions across all of one tenant's projects."""
        with self._lock:
            return sum(
                len(v) for v in self._refs.get(tenant, {}).values()
            )

    def manifests(self, heads_only: bool = False) -> set[str]:
        """Every manifest hash any ref points at (the GC live roots).

        ``heads_only`` restricts the set to each project's newest version —
        the roots a size-capped GC must preserve when it trims history.
        """
        with self._lock:
            return {
                entry["manifest"]
                for projects in self._refs.values()
                for history in projects.values()
                for entry in (history[-1:] if heads_only else history)
            }

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def append(self, tenant: str, name: str, manifest: str,
               message: str = "") -> int:
        """Add one version pointing at ``manifest``; returns its number."""
        check_name("tenant", tenant)
        check_name("project", name)
        with self._lock:
            history = self._refs.setdefault(tenant, {}).setdefault(name, [])
            version = history[-1]["v"] + 1 if history else 1
            history.append(
                {"v": version, "manifest": manifest, "message": message}
            )
            self._persist(tenant, name)
            return version

    def delete(self, tenant: str, name: str) -> None:
        with self._lock:
            try:
                del self._refs[tenant][name]
            except KeyError:
                raise StoreNotFound(
                    f"no project {tenant}/{name} in the store"
                ) from None
            if not self._refs[tenant]:
                del self._refs[tenant]
            self._unsaved.discard((tenant, name))
        if self._root is not None:
            try:
                self._path(tenant, name).unlink()
            except OSError:
                pass
