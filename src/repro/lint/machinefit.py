"""Machine/design fit advisories (MF4xx).

MF401/MF402 are the historical ``Feedback.machine_notes`` (same message
text, now with rule IDs and WARNING severity); MF403/MF404 are new
INFO-level advisories relating data-parallel width and topology shape to
the machine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.calc import ast
from repro.calc.parser import parse
from repro.errors import CalcSyntaxError
from repro.lint.diagnostics import Diagnostic, make_diagnostic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.dataflow import DataflowGraph
    from repro.graph.node import TaskNode
    from repro.machine.machine import TargetMachine


def _forall_width(loop: ast.For) -> int | None:
    """Iteration count of a forall with constant bounds, else None."""
    if not (isinstance(loop.start, ast.Num) and isinstance(loop.stop, ast.Num)):
        return None
    step = 1.0
    if loop.step is not None:
        if not isinstance(loop.step, ast.Num):
            return None
        step = loop.step.value
    if step <= 0:
        return None
    width = int((loop.stop.value - loop.start.value) // step) + 1
    return width if width >= 1 else None


def machine_diagnostics(
    nodes: Sequence["TaskNode"],
    machine: "TargetMachine",
    flat: "DataflowGraph | None" = None,
) -> list[Diagnostic]:
    """Advisories about how well the design fits the target machine."""
    diags: list[Diagnostic] = []
    n_tasks = len(nodes)
    if machine.n_procs > n_tasks:
        diags.append(
            make_diagnostic(
                "MF401",
                f"machine has {machine.n_procs} processors but the design has "
                f"only {n_tasks} tasks; some processors will idle",
            )
        )
    if machine.params.msg_startup > 0 and n_tasks > 1:
        mean_work = sum(n.work for n in nodes) / n_tasks if n_tasks else 0.0
        if machine.params.msg_startup > 10 * max(mean_work, 1e-12):
            diags.append(
                make_diagnostic(
                    "MF402",
                    "message startup cost dwarfs mean task work; expect the "
                    "scheduler to serialise the design (consider grain packing)",
                )
            )

    # MF403: a constant-width forall narrower than the machine caps the
    # usable parallelism of node splitting.
    for node in nodes:
        if node.program is None:
            continue
        try:
            prog = parse(node.program)
        except CalcSyntaxError:
            continue
        for s in ast.walk_stmts(prog.body):
            if isinstance(s, ast.For) and s.parallel:
                width = _forall_width(s)
                if width is not None and width < machine.n_procs:
                    diags.append(
                        make_diagnostic(
                            "MF403",
                            f"forall spans only {width} iteration(s) but the "
                            f"machine has {machine.n_procs} processors; "
                            f"splitting this node cannot fill the machine",
                            node=node.name,
                            line=s.line,
                        )
                    )

    # MF404: store-and-forward cost grows with distance; a high
    # communication-to-computation ratio on a high-diameter topology makes
    # remote placements expensive.
    if flat is not None and machine.n_procs > 1 and n_tasks > 0:
        sizes = [a.size for a in flat.arcs if a.size > 0]
        if sizes:
            diameter = machine.diameter()
            mean_size = sum(sizes) / len(sizes)
            mean_exec = sum(machine.exec_time(n.work) for n in nodes) / n_tasks
            if mean_exec > 0 and diameter >= 3:
                ccr = machine.params.comm_time(mean_size, diameter) / mean_exec
                if ccr > 1.0:
                    diags.append(
                        make_diagnostic(
                            "MF404",
                            f"topology {machine.topology.name!r} has diameter "
                            f"{diameter} and the design's communication-to-"
                            f"computation ratio at that distance is {ccr:.1f}; "
                            "expect communication-bound schedules across "
                            "distant processors",
                        )
                    )
    return diags
