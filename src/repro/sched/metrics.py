"""Schedule quality metrics: makespan, speedup, efficiency, communication.

These are the numbers behind the paper's Figure 3 speedup chart and behind
every comparison table in the extension benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.graph.analysis import b_levels, critical_path_length
from repro.graph.taskgraph import TaskEdge, TaskGraph
from repro.sched.schedule import Schedule


def serial_time(schedule: Schedule) -> float:
    """Time to run the whole graph on one processor of the same machine."""
    machine = schedule.machine
    return sum(machine.exec_time(t.work) for t in schedule.graph.tasks)


def speedup(schedule: Schedule) -> float:
    """Serial time over makespan — the paper's speedup-prediction number."""
    ms = schedule.makespan()
    if ms == 0:
        return 0.0
    return serial_time(schedule) / ms


def efficiency(schedule: Schedule) -> float:
    """Speedup divided by the number of processors of the machine."""
    if schedule.n_procs == 0:
        return 0.0
    return speedup(schedule) / schedule.n_procs


def utilization(schedule: Schedule) -> dict[int, float]:
    """Per-processor busy fraction of the makespan (0 for unused procs)."""
    ms = schedule.makespan()
    if ms == 0:
        return {p: 0.0 for p in schedule.machine.procs()}
    return {p: schedule.busy_time(p) / ms for p in schedule.machine.procs()}


def average_utilization(schedule: Schedule) -> float:
    util = utilization(schedule)
    return sum(util.values()) / len(util) if util else 0.0


def load_imbalance(schedule: Schedule) -> float:
    """max busy time over mean busy time (1.0 = perfectly balanced)."""
    busy = [schedule.busy_time(p) for p in schedule.machine.procs()]
    mean = sum(busy) / len(busy)
    if mean == 0:
        return 0.0
    return max(busy) / mean


def _exec_time(schedule: Schedule) -> Callable[[str], float]:
    return lambda t: schedule.machine.exec_time(schedule.graph.work(t))


def _no_comm(edge: TaskEdge) -> float:
    return 0.0


def _zero_comm_critical_path(schedule: Schedule) -> float:
    return critical_path_length(
        schedule.graph, exec_time=_exec_time(schedule), comm_cost=_no_comm
    )


def schedule_length_ratio(schedule: Schedule, critical_path: float | None = None) -> float:
    """Makespan over the machine-aware zero-comm critical path (SLR >= 1);
    that path's length is ``critical_path`` when the caller holds it."""
    cp = _zero_comm_critical_path(schedule) if critical_path is None else critical_path
    if cp == 0:
        return 0.0
    return schedule.makespan() / cp


def message_stats(schedule: Schedule) -> tuple[int, float]:
    """(message count, data volume) crossing processors under the primary
    assignment — duplicated copies absorb their own edges locally."""
    count = 0
    volume = 0.0
    graph, machine = schedule.graph, schedule.machine
    for edge in graph.edges:
        if edge.src not in schedule or edge.dst not in schedule:
            continue
        dst = schedule.primary(edge.dst)
        # a message is needed unless some copy of src lives on dst's processor
        local = any(src.proc == dst.proc for src in schedule.placements(edge.src))
        if not local:
            count += 1
            volume += edge.size
    return count, volume


def comm_time_total(schedule: Schedule) -> float:
    """Sum of point-to-point costs of all needed messages."""
    total = 0.0
    graph, machine = schedule.graph, schedule.machine
    for edge in graph.edges:
        if edge.src not in schedule or edge.dst not in schedule:
            continue
        dst = schedule.primary(edge.dst)
        cost = min(
            machine.comm_cost(src.proc, dst.proc, edge.size)
            for src in schedule.placements(edge.src)
        )
        total += cost
    return total


@dataclass(frozen=True)
class ScheduleReport:
    """One row of a scheduler-comparison table."""

    scheduler: str
    graph: str
    machine: str
    n_procs: int
    makespan: float
    speedup: float
    efficiency: float
    slr: float
    messages: int
    comm_volume: float
    duplicated: bool

    def as_row(self) -> str:
        return (
            f"{self.scheduler:<14} {self.n_procs:>3}  "
            f"{self.makespan:>10.3f} {self.speedup:>8.3f} {self.efficiency:>6.3f} "
            f"{self.slr:>6.3f} {self.messages:>5d} {self.comm_volume:>10.2f}"
            + ("  dup" if self.duplicated else "")
        )

    @staticmethod
    def header() -> str:
        return (
            f"{'scheduler':<14} {'p':>3}  {'makespan':>10} {'speedup':>8} "
            f"{'eff':>6} {'SLR':>6} {'msgs':>5} {'volume':>10}"
        )


def report(
    schedule: Schedule,
    messages: tuple[int, float] | None = None,
    critical_path: float | None = None,
) -> ScheduleReport:
    """Summarise a schedule as one comparison-table row.  ``messages`` (its
    :func:`message_stats`) and ``critical_path`` (as
    :func:`schedule_length_ratio` takes it) are for a caller that holds
    them."""
    msgs, volume = message_stats(schedule) if messages is None else messages
    return ScheduleReport(
        scheduler=schedule.scheduler,
        graph=schedule.graph.name,
        machine=schedule.machine.name,
        n_procs=schedule.n_procs,
        makespan=schedule.makespan(),
        speedup=speedup(schedule),
        efficiency=efficiency(schedule),
        slr=schedule_length_ratio(schedule, critical_path),
        messages=msgs,
        comm_volume=volume,
        duplicated=schedule.has_duplication(),
    )


def zero_comm_levels(
    schedule: Schedule,
    changed: list[str] | None = None,
    known: dict[str, float] | None = None,
) -> dict[str, float]:
    """The b-levels the zero-comm critical path of
    :func:`schedule_length_ratio` is the highest entry level of.

    With ``changed``, ``known`` are the levels of a graph that differs from
    ``schedule.graph`` only in the specs of ``changed``: only those tasks
    and their ancestors are levelled again, each float the whole-graph
    pass's, as a level reads only its successors' levels in out-edge order.
    """
    graph = schedule.graph
    tasks = None if changed is None else _ancestors(graph, changed)
    return b_levels(graph, _exec_time(schedule), _no_comm, tasks=tasks, known=known)


def _ancestors(graph: TaskGraph, tasks: list[str]) -> set[str]:
    """``tasks`` and every task with a path to one of them."""
    cone: set[str] = set()
    stack = list(tasks)
    while stack:
        task = stack.pop()
        if task not in cone:
            cone.add(task)
            stack.extend(graph.predecessors(task))
    return cone
