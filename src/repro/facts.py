"""The one process-wide table of facts derived from content.

What the environment derives from a PITS program — its parsed
:class:`~repro.calc.ast.Program` (:func:`repro.calc.parser.parse`), its
diagnostics (:func:`repro.calc.analyze.analyze`) and its abstract
interpretation (:func:`repro.analysis.absint.interpret`) — is a pure
function of the program text, and every value is immutable (frozen
dataclasses over tuples), so each is computed once per text and shared by
lint, lowering, the code generators, the simulators and the interpreter.
Communication-plan diagnostics (:mod:`repro.analysis.cache`) live in the
same table under their channel-op fingerprint.

This module imports nothing from the calculator or the analyses, so the
definitions themselves can answer from it; :mod:`repro.analysis.cache`
re-exports :func:`shared_cache` and :class:`AnalysisCache`.

The table is process-local, bounded LRU, and thread-safe (the daemon's
worker processes each get their own; the threaded executor's workers
share one).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.lru import LRU

#: Entries the shared table holds.  A program text costs three (parse,
#: analyze, interpret), so a 1000-task design's facts fit with room for its
#: plans; at ~5.6 kB per parsed program and ~3.7 kB per analysis a full
#: table is under 40 MB.  A bound below one design's fact count makes an
#: in-order re-lint miss on every entry (each is evicted before it is asked
#: for again), so this is sized by the largest design, not by memory.
SHARED_ENTRIES = 4096


class AnalysisCache(LRU):
    """A bounded, thread-safe LRU mapping content keys to derived facts."""

    def __init__(self, maxsize: int = SHARED_ENTRIES) -> None:
        super().__init__(max(1, int(maxsize)))

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
    """The process-wide table; ``shared_cache().clear()`` forgets every
    derived fact, parsed programs included."""
    return _SHARED


def program_fact(kind: str, source: str, derive: Callable[[str], Any]) -> Any:
    """``derive(source)``, computed once per ``(kind, source)`` while the
    entry stays in the shared table."""
    return _SHARED.get_or_compute((kind, source), lambda: derive(source))
