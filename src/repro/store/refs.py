"""The ref tier: tenant-scoped project names with linear version history.

A *ref* is the mutable part of the store — everything else is immutable
blobs.  Each tenant owns a flat namespace of project names, and each name
carries a linear list of versions; version ``N`` points at a manifest blob
by content hash and remembers an optional commit message.  Forking a
project is just writing a new ref whose first version reuses an existing
manifest hash — no blob is copied.

Disk layout::

    refs/<tenant>/<name>.json
        {"type": "project-ref", "format": 1,
         "versions": [{"v": 1, "manifest": "<hash>", "message": "..."}]}

The directory is the only record: every query reads ``refs/`` as it is now,
so a ref another process wrote is seen at once, and :meth:`RefStore.append`
numbers the next version from the file.  A ref file that cannot be read or
parsed is no ref.  Writes are atomic (tmp + replace), a write the directory
refuses raises :class:`StoreWriteError`, and the tier is thread-safe.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path
from typing import Any

from repro.errors import StoreError, StoreNotFound, StoreWriteError
from repro.store.evict import atomic_write_text

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def check_name(kind: str, value: str) -> str:
    """Validate a tenant or project name; returns it unchanged."""
    if not isinstance(value, str) or not _NAME_RE.fullmatch(value):
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
    """Named, versioned pointers into the blob tier, read from ``refs/``."""

    def __init__(self, root: str | Path):
        self._refs = Path(root) / "refs"
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # the directory
    # ------------------------------------------------------------------ #
    def _path(self, tenant: str, name: str) -> Path:
        return self._refs / tenant / f"{name}.json"

    @staticmethod
    def _read(path: Path) -> list[dict[str, Any]] | None:
        """The history in one ref file; ``None`` if it is absent or corrupt."""
        try:
            versions = json.loads(path.read_text(encoding="utf-8"))["versions"]
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return versions if isinstance(versions, list) and versions else None

    def _history(self, tenant: str, name: str) -> list[dict[str, Any]] | None:
        # A name check_name refuses has no file: it never reaches the path.
        if not (_NAME_RE.fullmatch(tenant) and _NAME_RE.fullmatch(name)):
            return None
        return self._read(self._path(tenant, name))

    def _histories(self, tenant: str = "*"
                   ) -> dict[tuple[str, str], list[dict[str, Any]]]:
        """(tenant, name) -> history of every readable ref, sorted by key."""
        found = {}
        for path in sorted(self._refs.glob(f"{tenant}/*.json")):
            history = self._read(path)
            if history is not None:
                found[path.parent.name, path.stem] = history
        return found

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def tenants(self) -> list[str]:
        return sorted({tenant for tenant, _ in self._histories()})

    def projects(self, tenant: str) -> list[str]:
        if not _NAME_RE.fullmatch(tenant):
            return []
        return [name for _, name in self._histories(tenant)]

    def versions(self, tenant: str, name: str) -> list[dict[str, Any]]:
        """The full history, oldest first."""
        history = self._history(tenant, name)
        if history is None:
            raise StoreNotFound(f"no project {tenant}/{name} in the store")
        return history

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
        return self._history(tenant, name) is not None

    def census(self) -> tuple[int, int, int]:
        """``(tenants, projects, versions)`` held right now, from one listing."""
        histories = self._histories()
        return (
            len({tenant for tenant, _ in histories}),
            len(histories),
            sum(len(history) for history in histories.values()),
        )

    def manifests(self, heads_only: bool = False) -> set[str]:
        """Every manifest hash any ref points at (the GC live roots).

        ``heads_only`` restricts the set to each project's newest version —
        the roots a size-capped GC must preserve when it trims history.
        """
        return {
            entry["manifest"]
            for history in self._histories().values()
            for entry in (history[-1:] if heads_only else history)
        }

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def append(self, tenant: str, name: str, manifest: str,
               message: str = "") -> int:
        """Add one version pointing at ``manifest``; returns its number.

        The version is numbered from the ref file as it is now and returned
        only once the file holding it has landed; otherwise
        :class:`StoreWriteError`, and the file keeps its old history.
        """
        check_name("tenant", tenant)
        check_name("project", name)
        with self._lock:
            history = self._history(tenant, name) or []
            version = history[-1]["v"] + 1 if history else 1
            history.append(
                {"v": version, "manifest": manifest, "message": message}
            )
            doc = {"type": "project-ref", "format": 1, "versions": history}
            text = json.dumps(doc, sort_keys=True, indent=1)
            if not atomic_write_text(self._path(tenant, name), text):
                raise StoreWriteError(
                    f"cannot write ref {tenant}/{name} under {self._refs} "
                    f"(full, read-only or not a directory); version {version} "
                    "was not stored"
                )
            return version
