"""The analysis side of the shared fact table (:mod:`repro.facts`).

Per-program analyses need no entry point here: ``parse``, ``analyze`` and
``interpret`` answer from the table themselves, keyed by the program text.
What this module adds is the one fact that is not a function of a text —
the concurrency verdict on a communication plan, keyed by the SHA-256
fingerprint of its channel-op protocol (:mod:`repro.graph.serialize`) —
and the names the lint engine, the daemon and the benchmark import the
table by.  Entries are immutable tuples, so sharing is safe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.facts import AnalysisCache, shared_cache
from repro.graph.serialize import fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.codegen.ir import Procs
    from repro.lint.diagnostics import Diagnostic as LintDiagnostic

__all__ = ["AnalysisCache", "cached_plan_diagnostics", "plan_key", "shared_cache"]


def plan_key(procs: "Procs") -> str:
    """Content-addressed key for one communication plan's CG5xx analysis."""
    from repro.analysis.concurrency import plan_signature

    return fingerprint(plan_signature(procs))


def cached_plan_diagnostics(
    procs: "Procs", cache: AnalysisCache | None = None
) -> tuple["LintDiagnostic", ...]:
    """Concurrency verification of lowered step lists, memoized on their
    channel-op protocol."""
    from repro.analysis.concurrency import analyze_plan

    # NOT `cache or shared_cache()`: an empty AnalysisCache is falsy (len 0)
    cache = cache if cache is not None else shared_cache()
    return cache.get_or_compute(
        plan_key(procs), lambda: tuple(analyze_plan(procs))
    )
