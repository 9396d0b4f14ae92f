"""Incremental analysis cache, keyed by content fingerprints.

Analysis results are pure functions of their input text (for PITS
programs) or of the channel-op protocol (for communication plans), so they
can be memoized on the same SHA-256 content addressing the rest of the
environment uses (:mod:`repro.graph.serialize`).  The lint engine and the
daemon's ``POST /lint`` route every per-program analysis through here;
re-linting an unchanged project is then near-free — the typical edit
invalidates one program out of the whole design.

The cache is process-local, bounded LRU, and thread-safe (the daemon's
worker processes each get their own; the threaded executor's workers can
share one).  Entries are immutable tuples, so sharing is safe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable

from repro.graph.serialize import fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.calc.analyze import Diagnostic as CalcDiagnostic
    from repro.codegen.ir import Procs
    from repro.lint.diagnostics import Diagnostic as LintDiagnostic

#: Bump when analyzer semantics change so stale entries can never be served
#: across versions (keys embed this).
ANALYSIS_VERSION = 1


class AnalysisCache:
    """A bounded, thread-safe LRU mapping fingerprints to analysis results."""

    def __init__(self, maxsize: int = 512) -> None:
        self.maxsize = max(1, int(maxsize))
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        with self._lock:
            if key in self._entries:
                self.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
        value = compute()
        with self._lock:
            self.misses += 1
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


_SHARED = AnalysisCache()


def shared_cache() -> AnalysisCache:
    """The process-wide cache the lint engine and daemon workers use."""
    return _SHARED


def program_key(source: str) -> str:
    """Content-addressed key for one PITS program's full analysis."""
    return fingerprint(
        {"kind": "pits-analysis", "version": ANALYSIS_VERSION, "source": source}
    )


def cached_program_diagnostics(
    source: str, cache: AnalysisCache | None = None
) -> tuple["CalcDiagnostic", ...]:
    """Full PITS analysis (scope/kind checks + abstract interpretation),
    memoized on the program text."""
    from repro.calc.analyze import analyze

    # NOT `cache or _SHARED`: an empty AnalysisCache is falsy (len 0)
    cache = cache if cache is not None else _SHARED
    return cache.get_or_compute(
        program_key(source), lambda: tuple(analyze(source))
    )


def plan_key(procs: "Procs") -> str:
    """Content-addressed key for one communication plan's CG5xx analysis."""
    from repro.analysis.concurrency import plan_signature

    doc = plan_signature(procs)
    doc["version"] = ANALYSIS_VERSION
    return fingerprint(doc)


def cached_plan_diagnostics(
    procs: "Procs", cache: AnalysisCache | None = None
) -> tuple["LintDiagnostic", ...]:
    """Concurrency verification of lowered step lists, memoized on their
    channel-op protocol."""
    from repro.analysis.concurrency import analyze_plan

    cache = cache if cache is not None else _SHARED
    return cache.get_or_compute(
        plan_key(procs), lambda: tuple(analyze_plan(procs))
    )
