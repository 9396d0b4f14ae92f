"""The one bounded LRU, the one counter set, and the process's work ledger.

Schedules and lowered programs (:mod:`repro.sched.service`), compiled tables
(:mod:`repro.machine.compiled`), program facts (:mod:`repro.facts`) and the
daemon's response bodies and body-hash memo are each a recency-ordered mapping
with a bound, evicted oldest-first, beside a few named counters.  Both classes
are thread-safe: a service may be shared by many threads, and increments are
read-modify-write, so unlocked traffic drops counts.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable


class LRU:
    """A bounded, thread-safe, least-recently-used mapping.

    ``max_entries`` bounds the entry count; the optional ``max_bytes`` also
    bounds the total ``len(value)`` held (values must then be sized, e.g.
    ``bytes``).  Inserting beyond either evicts oldest-first, so a value
    larger than the whole byte bound evicts everything including itself.
    A miss reads as ``None``, so ``None`` is not a storable value.

    ``hits``/``misses`` count :meth:`get` and :meth:`get_or_compute` lookups
    (:meth:`peek` is uncounted); ``evictions`` counts entries a bound pushed
    out, never :meth:`pop` or :meth:`clear`.  The counters are lifetime
    totals: :meth:`clear` drops entries, not history.  A bound of ``0``
    keeps nothing; a negative bound is refused (``ValueError``).
    """

    def __init__(self, max_entries: int, max_bytes: int | None = None) -> None:
        if max_entries < 0 or (max_bytes is not None and max_bytes < 0):
            raise ValueError(
                f"LRU bounds must be >= 0, got {max_entries} entries, "
                f"{max_bytes} bytes"
            )
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        # Without a byte bound values weigh nothing (and need not be sized).
        self._size = len if max_bytes is not None else (lambda value: 0)
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.bytes = self.hits = self.misses = self.evictions = 0

    def get(self, key: Hashable) -> Any:
        """The value under ``key`` (now the most recent), counted."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key)
            return value

    def peek(self, key: Hashable) -> Any:
        """The value under ``key`` without counting or touching recency."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: Hashable, value: Any) -> int:
        """Insert or overwrite ``key`` as the most recent entry; returns how
        many entries the bounds evicted to make room."""
        with self._lock:
            entries = self._entries
            self.bytes += self._size(value) - self._size(entries.get(key, b""))
            entries[key] = value
            entries.move_to_end(key)
            evicted = 0
            while len(entries) > self.max_entries or self.bytes > (self.max_bytes or 0):
                self.bytes -= self._size(entries.popitem(last=False)[1])
                evicted += 1
            self.evictions += evicted
            return evicted

    def pop(self, key: Hashable) -> Any:
        """Remove ``key`` and return its value (not an eviction)."""
        with self._lock:
            value = self._entries.pop(key, None)
            if value is not None:
                self.bytes -= self._size(value)
            return value

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """:meth:`get`, filling a miss with ``compute()`` — run outside the
        lock, so a slow analysis never blocks other keys; threads racing on
        one key both compute (values are pure functions of their key)."""
        value = self.get(key)
        if value is None:
            value = compute()
            self.put(key, value)
        return value

    def keys(self) -> list[Hashable]:
        """A snapshot of the keys, least recent first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> int:
        """Drop every entry; returns how many there were."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.bytes = 0
            return dropped

    def __len__(self) -> int:
        return len(self._entries)


class Counters:
    """Named counters — ``Counters(builds=0, build_ms=0.0)``, each zero fixing
    its counter's type — with a locked bump and snapshot.  They only grow:
    a reader keeps a snapshot and later asks :meth:`since` it."""

    def __init__(self, **zero: int | float) -> None:
        self._values: dict[str, int | float] = {}
        self._lock = threading.Lock()
        self.declare(**zero)

    def declare(self, **zero: int | float) -> None:
        """Add counters; a name already here is refused, so two modules can
        never both count under one name."""
        with self._lock:
            taken = sorted(set(zero) & set(self._values))
            if taken:
                raise ValueError(f"counters already declared: {', '.join(taken)}")
            self._values.update(zero)

    def bump(self, name: str, delta: int | float = 1) -> None:
        with self._lock:
            self._values[name] += delta

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return dict(self._values)

    def since(self, before: dict[str, Any]) -> dict[str, Any]:
        """Every counter's growth since the snapshot ``before`` (a counter
        declared after it grew from zero)."""
        return {
            name: value - before.get(name, 0)
            for name, value in self.snapshot().items()
        }


#: The process-wide work ledger: each module declares the counters it bumps
#: where it bumps them; ``ScheduleService.stats()`` and the daemon's per-op
#: ``counters`` report differences of it, never a reset.
LEDGER = Counters()
