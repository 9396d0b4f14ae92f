"""The shared oldest-first eviction policy for on-disk tiers.

Two disk tiers grow without bound unless something trims them: the
versioned schedule cache in :mod:`repro.sched.service` and the project
store's blob tier (:mod:`repro.store.blobs`).  Both reuse this one policy —
scan the files, order by age (modification time, then name so ties are
deterministic), delete oldest-first until the tier fits its byte cap.

Deletion is advisory and corruption-tolerant in the same spirit as the
caches themselves: a file that vanishes mid-scan or cannot be unlinked is
skipped, never a traceback — the caller's next enforcement pass picks it
up again.

The same tiers also share their one way of getting a file *onto* disk,
:func:`atomic_write_text`.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Iterable


def atomic_write_text(path: Path, text: str) -> bool:
    """Write ``text`` to ``path`` via a temp file and a rename; ``True``
    when it landed.  A full or read-only disk is ``False``, never a raise.

    The temp name is unique per process and thread: two writers of one path
    (daemons or CLIs sharing a store or cache directory) must never rename
    each other's half-written file into place.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)
    except OSError:
        return False
    return True


def dir_files(root: Path | str, pattern: str = "**/*.json") -> list[Path]:
    """Every regular file under ``root`` matching ``pattern`` (recursive)."""
    base = Path(root)
    if not base.is_dir():
        return []
    return [p for p in base.glob(pattern) if p.is_file()]


def oldest_first(paths: Iterable[Path]) -> list[Path]:
    """``paths`` ordered oldest-modified first; name breaks mtime ties.

    Files that disappear between listing and ``stat`` sort first (they are
    already gone, deleting them is a no-op) so racing cleaners converge.
    """

    def age_key(path: Path) -> tuple[float, str]:
        try:
            return (path.stat().st_mtime, path.name)
        except OSError:
            return (float("-inf"), path.name)

    return sorted(paths, key=age_key)


def total_bytes(paths: Iterable[Path]) -> int:
    """Sum of file sizes, skipping files that vanished."""
    total = 0
    for path in paths:
        try:
            total += path.stat().st_size
        except OSError:
            pass
    return total


def enforce_size_cap(
    paths: Iterable[Path],
    max_bytes: int,
    keep: frozenset[Path] | set[Path] = frozenset(),
) -> list[Path]:
    """Delete oldest files until the set fits ``max_bytes``.

    ``keep`` names files that must survive no matter their age (the blob
    tier passes its live set).  Returns the paths actually deleted, in
    deletion order; the caller folds the count into its stats.
    """
    candidates = oldest_first(paths)
    sizes: dict[Path, int] = {}
    for path in candidates:
        try:
            sizes[path] = path.stat().st_size
        except OSError:
            sizes[path] = 0
    over = sum(sizes.values()) - max_bytes
    deleted: list[Path] = []
    for path in candidates:
        if over <= 0:
            break
        if path in keep:
            continue
        try:
            os.unlink(path)
        except OSError:
            continue
        over -= sizes[path]
        deleted.append(path)
    return deleted
