"""The backend registry: name -> codegen target class.

Mirrors :mod:`repro.sched.registry` — every surface that accepts "a
target" (``repro.codegen.generate``, ``banger codegen --target``, the
daemon's ``/codegen`` op) funnels through :func:`get_backend`, so the
dispatch rule and its error message exist exactly once.
"""

from __future__ import annotations

from typing import Any

from repro.codegen.backends.base import Backend
from repro.codegen.backends.c import CBackend
from repro.codegen.backends.inproc import (
    ExecutionResult,
    InprocBackend,
    TraceEvent,
    trace_problems,
)
from repro.codegen.backends.mpi import MpiBackend
from repro.codegen.backends.threads import ThreadsBackend, run_generated
from repro.errors import CodegenError

#: Backend registry: name -> zero-argument class (backends are stateless).
BACKENDS: dict[str, type[Backend]] = {
    "threads": ThreadsBackend,
    "inproc": InprocBackend,
    "mpi": MpiBackend,
    "c": CBackend,
}


def get_backend(name: str) -> Backend:
    """Instantiate a registered backend by name."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise CodegenError(
            f"unknown codegen target {name!r}; choose from {sorted(BACKENDS)}"
        ) from None
    return cls()


def list_backends() -> list[dict[str, Any]]:
    """One descriptor per registered backend (name, description, abilities)."""
    out = []
    for name in sorted(BACKENDS):
        backend = BACKENDS[name]()
        out.append(
            {
                "name": backend.name,
                "description": backend.description,
                "emits_source": backend.emits_source,
                "runnable": backend.runnable,
            }
        )
    return out


__all__ = [
    "BACKENDS",
    "Backend",
    "CBackend",
    "ExecutionResult",
    "InprocBackend",
    "MpiBackend",
    "ThreadsBackend",
    "TraceEvent",
    "get_backend",
    "list_backends",
    "run_generated",
    "trace_problems",
]
