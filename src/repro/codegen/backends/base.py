"""The backend protocol: what every codegen target implements.

A backend consumes a :class:`~repro.codegen.ir.LoweredProgram` — never a
schedule, never a plan — and either renders it as source text
(:meth:`Backend.emit`) or executes it (:meth:`Backend.run`).  Backends
hold no configuration state, so the registry maps names to classes, the
same shape as :data:`repro.sched.registry.SCHEDULERS`.
"""

from __future__ import annotations

from typing import Any

from repro.codegen.ir import LoweredProgram
from repro.errors import CodegenError


class Backend:
    """One codegen target.

    Subclasses set the class attributes and override :meth:`emit` (source
    targets), :meth:`run` (execution targets), or both.  The defaults
    raise :class:`CodegenError`, so asking a listing-only backend to run —
    or an execution-only backend for source — fails with a typed error
    instead of an ``AttributeError``.
    """

    #: registry name (``threads``, ``inproc``, ``mpi``, ``c``)
    name: str = ""
    #: one-line human description (``banger codegen --list``, ``/codegen``)
    description: str = ""
    #: whether :meth:`emit` produces source text
    emits_source: bool = False
    #: whether :meth:`run` can execute the program in this process
    runnable: bool = False

    def emit(self, program: LoweredProgram, **opts: Any) -> str:
        """Render ``program`` as source text for this target."""
        raise CodegenError(
            f"backend {self.name!r} does not emit source; "
            f"use run() or pick a source-emitting target"
        )

    def run(
        self, program: LoweredProgram, inputs: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """Execute ``program`` in this process; returns the design outputs."""
        raise CodegenError(
            f"backend {self.name!r} cannot execute programs in-process; "
            f"use emit() and run the source on its native runtime"
        )


def bound_inputs(
    program: LoweredProgram, inputs: dict[str, Any] | None
) -> dict[str, Any]:
    """``program``'s input defaults updated by ``inputs``: the values a run
    starts from.  Raises :class:`CodegenError` naming every graph input a
    step reads that still has no value, before anything runs."""
    bound = dict(program.input_defaults)
    bound.update(inputs or {})
    needed = {var for step in program.all_steps() for var in step.graph_inputs}
    missing = sorted(v for v in needed if v not in bound)
    if missing:
        raise CodegenError(f"missing graph input value(s): {', '.join(missing)}")
    return bound
