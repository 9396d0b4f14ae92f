"""The single lint entry points: design, project, schedule.

Everything the environment knows how to check flows through here:
:func:`lint_project` is what ``env/feedback.py`` and the ``banger lint`` /
``banger feedback`` CLI commands delegate to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.calc.analyze import analyze
from repro.graph.hierarchy import _single_level
from repro.graph.node import TaskNode
from repro.lint.design import crosslayer_diagnostics, design_diagnostics
from repro.lint.diagnostics import Diagnostic, Report, make_diagnostic
from repro.lint.machinefit import machine_diagnostics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.codegen.ir import Procs
    from repro.env.project import BangerProject
    from repro.graph.dataflow import DataflowGraph
    from repro.machine.machine import TargetMachine
    from repro.sched.schedule import Schedule


def lint_design(
    design: "DataflowGraph | None",
    machine: "TargetMachine | None" = None,
    name: str = "",
    suppress: Iterable[str] = (),
) -> Report:
    """Run every static analysis over a design (and machine, if given)."""
    diags: list[Diagnostic] = []
    if design is None:
        diags.append(
            make_diagnostic("DF100", "no design yet — draw the dataflow graph first")
        )
        return Report(tuple(diags), name or "design").suppress(suppress)

    diags.extend(design_diagnostics(design))

    # every rule only reads, so the single-level view will do: the design
    # itself when it has no composites, never a copy of its nodes
    try:
        flat = _single_level(design)
    except Exception:
        flat = None  # structural problems already reported above
    nodes = [
        n
        for n in (flat.tasks if flat is not None else design.tasks)
        if isinstance(n, TaskNode) and not n.is_composite
    ]

    for node in nodes:
        if node.program is None:
            diags.append(
                make_diagnostic("DF109", "no PITS program yet", node=node.name)
            )
            continue
        for d in analyze(node.program):
            diags.append(
                Diagnostic(d.rule or "PITS001", d.severity, d.message,
                           node=node.name, line=d.line)
            )

    if flat is not None:
        diags.extend(crosslayer_diagnostics(flat))

    if machine is not None:
        diags.extend(machine_diagnostics(nodes, machine, flat))

    return Report(tuple(diags), name or design.name).suppress(suppress)


def lint_project(
    project: "BangerProject",
    suppress: Iterable[str] = (),
    concurrency: bool = False,
    scheduler: str = "mh",
) -> Report:
    """Lint a whole Banger project: design + programs + machine fit.

    With ``concurrency=True`` the project is additionally scheduled (with
    ``scheduler``), lowered to its communication plan, and the plan is
    verified deadlock-free (the ``CG5xx`` family) — the same static gate
    the code generators rely on.
    """
    design = project.design if len(project.design) else None
    report = lint_design(
        design, project.machine, name=project.name, suppress=suppress
    )
    if concurrency and design is not None and not report.error_count:
        from repro.codegen.ir import lower_steps

        procs, _channels, _outputs = lower_steps(project.schedule(scheduler))
        extra = lint_comm_plan(procs, name=project.name).diagnostics
        report = Report(report.diagnostics + extra, report.name).suppress(suppress)
    return report


def lint_comm_plan(procs: "Procs", name: str = "") -> Report:
    """Verify the channel protocol of lowered step lists (CG5xx).

    ``procs`` is the first element of
    :func:`repro.codegen.ir.lower_steps` (or a ``LoweredProgram.procs``).
    Results are memoized on the channel-op signature, so repeated lints of
    an unchanged schedule are answered from the analysis cache.
    """
    from repro.analysis.cache import cached_plan_diagnostics

    return Report(tuple(cached_plan_diagnostics(procs)), name)


def lint_schedule(
    schedule: "Schedule",
    check_durations: bool = True,
    suppress: Iterable[str] = (),
) -> Report:
    """Re-derive a schedule's feasibility as a lint report (SCH2xx)."""
    from repro.lint.schedrules import schedule_diagnostics

    return Report(
        tuple(schedule_diagnostics(schedule, check_durations=check_durations)),
        schedule.graph.name,
    ).suppress(suppress)
