"""Speedup prediction across machine sizes — the paper's Figure 3 chart.

Banger shows "a speedup prediction graph obtained by mapping the PITL design
onto 2, 4, and 8 hypercube processors".  :func:`predict_speedup` reproduces
that analysis for any graph, scheduler, machine family, and processor-count
sweep, returning one :class:`SpeedupPoint` per machine size.

Both sweep functions are thin wrappers over the process-wide
:class:`~repro.sched.service.ScheduleService`, so repeated sweeps over
unchanged graphs are served from the content-addressed cache; the misses
of a sweep run in order, in this process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.graph.taskgraph import TaskGraph
from repro.machine.params import IDEAL, MachineParams
from repro.sched.base import Scheduler
from repro.sched.schedule import Schedule


@dataclass(frozen=True)
class SpeedupPoint:
    """One machine size of a speedup sweep."""

    n_procs: int
    makespan: float
    speedup: float
    efficiency: float

    def as_row(self) -> str:
        return (
            f"{self.n_procs:>5d} {self.makespan:>12.3f} "
            f"{self.speedup:>8.3f} {self.efficiency:>6.3f}"
        )

    @staticmethod
    def header() -> str:
        return f"{'procs':>5} {'makespan':>12} {'speedup':>8} {'eff':>6}"


@dataclass(frozen=True)
class SpeedupReport:
    """A full sweep: serial baseline plus one point per machine size."""

    graph: str
    scheduler: str
    family: str
    serial_time: float
    points: tuple[SpeedupPoint, ...]
    max_parallelism: float

    def best(self) -> SpeedupPoint:
        return max(self.points, key=lambda p: p.speedup)

    def table(self) -> str:
        lines = [
            f"speedup prediction: {self.graph} on {self.family} ({self.scheduler})",
            f"serial time = {self.serial_time:.3f}, "
            f"graph parallelism bound = {self.max_parallelism:.2f}",
            SpeedupPoint.header(),
        ]
        lines += [p.as_row() for p in self.points]
        return "\n".join(lines)


def predict_speedup(
    graph: TaskGraph,
    proc_counts: Sequence[int] = (1, 2, 4, 8),
    scheduler: Scheduler | str | None = None,
    family: str = "hypercube",
    params: MachineParams = IDEAL,
    service: "ScheduleService | None" = None,
) -> SpeedupReport:
    """Schedule ``graph`` on each machine size and report speedups.

    The serial baseline runs on a single processor with the same parameters,
    so the curve starts at exactly 1.0 for ``n_procs == 1``.
    """
    from repro.sched.service import default_service

    svc = service if service is not None else default_service()
    return svc.predict_speedup(
        graph, proc_counts, scheduler=scheduler, family=family, params=params
    )


def schedules_for_sizes(
    graph: TaskGraph,
    proc_counts: Sequence[int],
    scheduler: Scheduler | str | None = None,
    family: str = "hypercube",
    params: MachineParams = IDEAL,
    service: "ScheduleService | None" = None,
) -> dict[int, Schedule]:
    """The Gantt-chart side of Figure 3: one schedule per machine size."""
    from repro.sched.service import default_service

    svc = service if service is not None else default_service()
    return svc.schedules_for_sizes(
        graph, proc_counts, scheduler=scheduler, family=family, params=params
    )
