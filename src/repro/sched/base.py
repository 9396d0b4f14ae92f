"""The scheduler interface.

Only the :class:`Scheduler` ABC lives here.  The machinery the list
heuristics share — ready tracking, earliest-start computation, placement,
the list pass itself — is :mod:`repro.sched.core`.
"""

from __future__ import annotations

import abc

from repro.graph.taskgraph import TaskGraph
from repro.machine.machine import TargetMachine
from repro.sched.schedule import Schedule


class Scheduler(abc.ABC):
    """A mapping heuristic: task graph × target machine → schedule."""

    #: registry / report name; subclasses override.
    name = "abstract"

    @abc.abstractmethod
    def schedule(self, graph: TaskGraph, machine: TargetMachine) -> Schedule:
        """Produce a complete, feasible schedule.  Must not mutate inputs."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
