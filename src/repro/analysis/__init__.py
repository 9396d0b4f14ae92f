"""Whole-program static analysis: abstract interpretation + concurrency.

The paper's Principle 3 ("instant feedback wherever possible") asks for
defect removal *before* a program runs.  :mod:`repro.calc.analyze` covers
scope and kind errors; this package adds the value-flow and concurrency
layers on top:

* :mod:`repro.analysis.domains` — the interval and kind abstract domains;
* :mod:`repro.analysis.absint` — an abstract interpreter for PITS programs
  emitting the ``PITS1xx`` rule family (guaranteed division by zero,
  guaranteed domain errors, unreachable branches, provably-constant
  outputs, dead stores) plus per-statement effect summaries;
* :mod:`repro.analysis.effects` — the effect records (reads / writes /
  display / may-raise) that :mod:`repro.codegen` uses to gate statement
  elision and reordering;
* :mod:`repro.analysis.concurrency` — static verification of the
  communication plans behind the generated code (``CG5xx``): wait-for
  deadlock detection on the blocking ``Queue(maxsize=1)`` protocol,
  send/receive cardinality matching, unconsumed channels;
* :mod:`repro.analysis.cache` — plan diagnostics in the shared fact table
  (:mod:`repro.facts`, where each program text is also parsed, analyzed and
  interpreted once), so warm re-analysis is near-free.
"""

from repro.analysis.absint import ProgramAnalysis, interpret
from repro.analysis.cache import (
    AnalysisCache,
    cached_plan_diagnostics,
    shared_cache,
)
from repro.analysis.concurrency import (
    analyze_plan,
    execute_plan_protocol,
    plan_signature,
)
from repro.analysis.domains import BOTTOM, TOP, Interval, Kind
from repro.analysis.effects import StmtEffect

__all__ = [
    "AnalysisCache",
    "BOTTOM",
    "Interval",
    "Kind",
    "ProgramAnalysis",
    "StmtEffect",
    "TOP",
    "analyze_plan",
    "cached_plan_diagnostics",
    "execute_plan_protocol",
    "interpret",
    "plan_signature",
    "shared_cache",
]
