"""The library's codegen entry point: ``generate`` / ``run`` over targets.

Both coerce their argument to a :class:`~repro.codegen.ir.LoweredProgram`
once (:func:`as_lowered`), then hand it to the registered backend.  The CLI
and the daemon share :func:`repro.server.ops.run_codegen`, which keeps the
program it lowered (replies quote its hash) and makes the same two calls.
"""

from __future__ import annotations

from typing import Any

from repro.codegen.backends import get_backend, list_backends
from repro.codegen.ir import LoweredProgram, lower
from repro.errors import CodegenError
from repro.sched.schedule import Schedule

__all__ = ["as_lowered", "generate", "list_backends", "run"]


def as_lowered(obj: Any, scheduler: Any = "mh") -> LoweredProgram:
    """Coerce a project, schedule, or already-lowered program to the IR.

    * :class:`LoweredProgram` — returned as-is (``scheduler`` is ignored);
    * :class:`Schedule` — lowered directly (it already fixes the scheduler);
    * :class:`~repro.env.project.BangerProject` — scheduled with
      ``scheduler`` and lowered through the project's
      :class:`~repro.sched.service.ScheduleService`, so repeated calls hit
      the content-addressed IR cache.
    """
    if isinstance(obj, LoweredProgram):
        return obj
    if isinstance(obj, Schedule):
        return lower(obj)
    from repro.env.project import BangerProject  # env imports codegen; stay lazy

    if isinstance(obj, BangerProject):
        return obj.lower(scheduler)
    raise CodegenError(
        "expected a BangerProject, Schedule, or LoweredProgram, "
        f"got {type(obj).__name__}"
    )


def generate(
    project_or_schedule: Any,
    target: str = "threads",
    *,
    scheduler: Any = "mh",
    **opts: Any,
) -> str:
    """Source text for ``project_or_schedule`` on the named ``target``.

    ``scheduler`` only applies when a project is passed (a schedule or
    lowered program already pins it).  Remaining keyword
    options go to the backend (e.g. ``module_doc=`` for ``threads``).
    Raises :class:`CodegenError` for unknown targets and for targets that
    do not emit source (``inproc`` — use :func:`run`).
    """
    program = as_lowered(project_or_schedule, scheduler)
    return get_backend(target).emit(program, **opts)


def run(
    project_or_schedule: Any,
    target: str = "inproc",
    inputs: dict[str, Any] | None = None,
    *,
    scheduler: Any = "mh",
) -> dict[str, Any]:
    """Execute ``project_or_schedule`` on a runnable target; returns outputs.

    Both run the IR on the one executor
    (:func:`~repro.codegen.backends.inproc.run_workers`): ``inproc`` with
    the PITS interpreter, ``threads`` with the task functions it emits.
    ``mpi`` and ``c`` raise :class:`CodegenError` (their output runs on
    external runtimes).
    """
    program = as_lowered(project_or_schedule, scheduler)
    return get_backend(target).run(program, inputs)
