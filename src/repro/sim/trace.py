"""Execution traces produced by the simulator (and rendered as Gantt charts)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.approx import TOL, approx_le
from repro.errors import SimError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.schedule import Schedule


@dataclass(frozen=True)
class TaskRun:
    """One task execution observed by the simulator."""

    task: str
    proc: int
    start: float
    finish: float


@dataclass(frozen=True)
class MessageHop:
    """One message crossing one link (store-and-forward hop)."""

    src_task: str
    dst_task: str
    var: str
    link: tuple[int, int]
    start: float
    finish: float


@dataclass
class Trace:
    """Everything that happened in one simulated run."""

    machine_name: str = ""
    graph_name: str = ""
    runs: list[TaskRun] = field(default_factory=list)
    hops: list[MessageHop] = field(default_factory=list)

    def makespan(self) -> float:
        return max((r.finish for r in self.runs), default=0.0)

    def runs_on(self, proc: int) -> list[TaskRun]:
        return sorted((r for r in self.runs if r.proc == proc), key=lambda r: r.start)

    def run_of(self, task: str) -> TaskRun:
        """The earliest-finishing run of ``task`` (duplicates allowed)."""
        candidates = [r for r in self.runs if r.task == task]
        if not candidates:
            raise SimError(f"task {task!r} never ran")
        return min(candidates, key=lambda r: r.finish)

    def start_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for r in self.runs:
            out[r.task] = min(out.get(r.task, float("inf")), r.start)
        return out

    def finish_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for r in self.runs:
            out[r.task] = min(out.get(r.task, float("inf")), r.finish)
        return out

    def link_busy_time(self) -> dict[tuple[int, int], float]:
        busy: dict[tuple[int, int], float] = {}
        for h in self.hops:
            busy[h.link] = busy.get(h.link, 0.0) + (h.finish - h.start)
        return busy

    def __repr__(self) -> str:
        return (
            f"Trace({self.graph_name!r} on {self.machine_name!r}, "
            f"runs={len(self.runs)}, hops={len(self.hops)}, "
            f"makespan={self.makespan():.3f})"
        )


def compare_with_static(schedule: "Schedule", trace: Trace, tol: float = TOL) -> list[str]:
    """Differences between static schedule times and a simulated trace.

    Used in tests and by the ``makespan`` conformance oracle: with
    ``contention=False`` the list must only contain entries where the
    simulation was *earlier* (slack removal), never later.  The tolerance
    is the shared :data:`repro.approx.TOL`.
    """
    problems: list[str] = []
    finish_by_task = trace.finish_times()
    for task in schedule.graph.task_names:
        static_finish = schedule.primary(task).finish
        sim_finish = finish_by_task[task]
        if not approx_le(sim_finish, static_finish, tol):
            problems.append(
                f"task {task!r}: simulated finish {sim_finish:g} after "
                f"static {static_finish:g}"
            )
    return problems
