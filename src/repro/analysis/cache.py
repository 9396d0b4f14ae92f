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

from typing import TYPE_CHECKING

from repro.graph.serialize import fingerprint
from repro.lru import LRU

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.calc.analyze import Diagnostic as CalcDiagnostic
    from repro.codegen.ir import Procs
    from repro.lint.diagnostics import Diagnostic as LintDiagnostic

#: Bump when analyzer semantics change so stale entries can never be served
#: across versions (keys embed this).
ANALYSIS_VERSION = 1


class AnalysisCache(LRU):
    """A bounded, thread-safe LRU mapping fingerprints to analysis results."""

    def __init__(self, maxsize: int = 512) -> None:
        super().__init__(max(1, int(maxsize)))
        self.maxsize = self.max_entries

    def clear(self) -> None:
        super().clear()
        self.hits = self.misses = 0

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
