"""Classic list-scheduling heuristics: HLFET, ISH, ETF, and DLS.

These are the workhorse heuristics of the PPSE line of work the paper
builds on:

* **HLFET** (Highest Level First with Estimated Times, Adam/Chandy/Dickson):
  priority = static level (b-level without communication); each task goes
  to the processor giving the earliest finish.
* **ISH** (Insertion Scheduling Heuristic, Kruatrachue & Lewis): HLFET plus
  filling idle gaps created by communication delays.
* **ETF** (Earliest Task First, Hwang et al.): among all (ready task,
  processor) pairs pick the earliest possible start, breaking ties by
  higher static level.
* **DLS** (Dynamic Level Scheduling, Sih & Lee): maximise the *dynamic
  level* ``SL(t) - EST(t, p)`` over (task, processor) pairs.

All of them run on the shared :mod:`repro.sched.core` kernel (incremental
ready tracking, precomputed execution times, memoized communication costs)
and none carries a loop of its own: HLFET, ISH and MCP are a priority and a
processor choice handed to ``run_priority_list``; ETF and DLS are a
selection key handed to ``run_start_table``, which keeps every ready task's
start on every processor current instead of re-deriving all pairs per step.
Their output is byte-identical to the pre-kernel implementations.
"""

from __future__ import annotations

from repro.graph.taskgraph import TaskGraph
from repro.machine.machine import TargetMachine
from repro.sched.base import Scheduler
from repro.sched.core import (
    KernelState,
    SchedKernel,
    run_priority_list,
    run_start_table,
)
from repro.sched.schedule import Schedule


class HLFETScheduler(Scheduler):
    """Highest (static) Level First with Estimated Times.

    Parameters
    ----------
    use_comm_levels:
        When True, priorities are b-levels including mean machine
        communication costs instead of pure static levels — a machine-aware
        refinement used by PPSE when communication dominates.
    """

    name = "hlfet"

    def __init__(self, use_comm_levels: bool = False):
        self.use_comm_levels = use_comm_levels
        self.insertion = False

    def _priorities(self, kernel: SchedKernel) -> dict[str, float]:
        if self.use_comm_levels:
            return kernel.b_levels_comm()
        return kernel.static_levels()

    def schedule(self, graph: TaskGraph, machine: TargetMachine) -> Schedule:
        kernel = SchedKernel(graph, machine)
        state = KernelState(kernel, scheduler_name=self.name)
        prio = kernel.priority_array(self._priorities(kernel))
        return run_priority_list(
            kernel,
            state,
            key=lambda i: (-prio[i], i),
            pick_processor=lambda ti: state.best_processor(ti, insertion=self.insertion),
        )


class ISHScheduler(HLFETScheduler):
    """Kruatrachue's Insertion Scheduling Heuristic: HLFET + gap filling."""

    name = "ish"

    def __init__(self, use_comm_levels: bool = False):
        super().__init__(use_comm_levels=use_comm_levels)
        self.insertion = True


class ETFScheduler(Scheduler):
    """Earliest Task First: globally earliest (task, processor) start wins."""

    name = "etf"

    def __init__(self, insertion: bool = False):
        self.insertion = insertion

    def schedule(self, graph: TaskGraph, machine: TargetMachine) -> Schedule:
        kernel = SchedKernel(graph, machine)
        state = KernelState(kernel, scheduler_name=self.name)
        sl = kernel.priority_array(kernel.static_levels())
        tasks = kernel.tasks
        return run_start_table(
            state,
            key=lambda ti, start, proc: (start, -sl[ti], proc, tasks[ti]),
            insertion=self.insertion,
        )


class DLSScheduler(Scheduler):
    """Dynamic Level Scheduling: maximise ``SL(task) - EST(task, proc)``."""

    name = "dls"

    def __init__(self, insertion: bool = True):
        self.insertion = insertion

    def schedule(self, graph: TaskGraph, machine: TargetMachine) -> Schedule:
        kernel = SchedKernel(graph, machine)
        state = KernelState(kernel, scheduler_name=self.name)
        sl = kernel.priority_array(kernel.static_levels())
        tasks = kernel.tasks
        return run_start_table(
            state,
            key=lambda ti, start, proc: (-(sl[ti] - start), start, proc, tasks[ti]),
            insertion=self.insertion,
        )


class MCPScheduler(Scheduler):
    """Modified Critical Path (Wu & Gajski): priority = ALAP time, ascending.

    The ALAP (as-late-as-possible) time of a task is the critical-path
    length minus its b-level (communication included); tasks that can least
    afford to wait go first, each to its earliest-finish processor with
    insertion.
    """

    name = "mcp"

    def schedule(self, graph: TaskGraph, machine: TargetMachine) -> Schedule:
        kernel = SchedKernel(graph, machine)
        state = KernelState(kernel, scheduler_name=self.name)
        bl = kernel.b_levels_comm()
        cp = max(bl.values(), default=0.0)
        alap = [cp - bl[t] for t in kernel.tasks]
        return run_priority_list(
            kernel,
            state,
            key=lambda i: (alap[i], i),
            pick_processor=lambda ti: state.best_processor(ti, insertion=True),
        )
