"""Linear clustering (Kim & Browne) and cluster-to-processor mapping.

Clustering attacks scheduling from the other direction: first decide which
tasks must *never* communicate (put them in one cluster), then map clusters
onto the machine.  Linear clustering repeatedly takes the current critical
path — computation and communication included — makes it a cluster, zeroes
its internal edges, and recurses on the remaining tasks.

The cluster→processor mapping is LPT (largest processing time first onto the
least-loaded processor), and the final timing pass is a fixed-assignment
list schedule, shared with the baselines via :func:`assignment_to_schedule`
(which runs on the :mod:`repro.sched.core` kernel).
"""

from __future__ import annotations

from repro.errors import ScheduleError
from repro.graph.taskgraph import TaskGraph
from repro.machine.machine import TargetMachine
from repro.sched.base import Scheduler
from repro.sched.core import KernelState, SchedKernel, run_priority_list
from repro.sched.schedule import Schedule


def assignment_to_schedule(
    graph: TaskGraph,
    machine: TargetMachine,
    assignment: dict[str, int],
    scheduler_name: str = "fixed",
    insertion: bool = False,
) -> Schedule:
    """Timing pass for a fixed task→processor assignment.

    Tasks are released in b-level priority order (communication included),
    each starting as early as its inputs and its assigned processor allow.
    The result is always feasible for any complete assignment.
    """
    missing = [t for t in graph.task_names if t not in assignment]
    if missing:
        raise ScheduleError(f"assignment misses tasks: {missing[:5]}")
    kernel = SchedKernel(graph, machine)
    state = KernelState(kernel, scheduler_name=scheduler_name)
    prio = kernel.priority_array(kernel.b_levels_comm())

    def pick(ti: int) -> tuple[int, float]:
        proc = assignment[kernel.tasks[ti]]
        return proc, state.earliest_start(ti, proc, insertion=insertion)

    return run_priority_list(
        kernel, state, key=lambda i: (-prio[i], i), pick_processor=pick
    )


def linear_clusters(graph: TaskGraph, machine: TargetMachine) -> list[list[str]]:
    """Kim–Browne linear clustering: iterated critical-path extraction.

    Returns clusters as task lists in topological order; every task belongs
    to exactly one cluster.
    """
    exec_of = {t: machine.exec_time(graph.work(t)) for t in graph.task_names}
    comm_of_size: dict[float, float] = {}

    def comm(e) -> float:
        cost = comm_of_size.get(e.size)
        if cost is None:
            cost = machine.mean_comm_cost(e.size)
            comm_of_size[e.size] = cost
        return cost

    remaining = set(graph.task_names)
    clusters: list[list[str]] = []
    topo_pos = {t: i for i, t in enumerate(graph.topological_order())}

    while remaining:
        # b-levels restricted to the remaining subgraph
        bl: dict[str, float] = {}
        for t in sorted(remaining, key=topo_pos.__getitem__, reverse=True):
            bl[t] = exec_of[t] + max(
                (
                    comm(e) + bl[e.dst]
                    for e in graph.out_edges(t)
                    if e.dst in remaining
                ),
                default=0.0,
            )
        entries = [
            t
            for t in remaining
            if all(p not in remaining for p in graph.predecessors(t))
        ]
        start = max(entries, key=lambda t: (bl[t], -topo_pos[t]))
        path = [start]
        cur = start
        while True:
            nexts = [e for e in graph.out_edges(cur) if e.dst in remaining]
            if not nexts:
                break
            best = max(nexts, key=lambda e: (comm(e) + bl[e.dst], -topo_pos[e.dst]))
            path.append(best.dst)
            cur = best.dst
        clusters.append(path)
        remaining -= set(path)
    return clusters


def map_clusters_lpt(
    clusters: list[list[str]], graph: TaskGraph, machine: TargetMachine
) -> dict[str, int]:
    """Assign clusters to processors, heaviest first onto the least loaded."""
    exec_of = {t: machine.exec_time(graph.work(t)) for t in graph.task_names}
    loads = {p: 0.0 for p in machine.procs()}
    assignment: dict[str, int] = {}
    weighted = sorted(
        clusters,
        key=lambda c: -sum(exec_of[t] for t in c),
    )
    for cluster in weighted:
        proc = min(loads, key=lambda p: (loads[p], p))
        for t in cluster:
            assignment[t] = proc
        loads[proc] += sum(exec_of[t] for t in cluster)
    return assignment


class LinearClusteringScheduler(Scheduler):
    """Linear clustering + LPT mapping + fixed-assignment timing pass."""

    name = "lc"

    def __init__(self, insertion: bool = True):
        self.insertion = insertion

    def schedule(self, graph: TaskGraph, machine: TargetMachine) -> Schedule:
        clusters = linear_clusters(graph, machine)
        assignment = map_clusters_lpt(clusters, graph, machine)
        return assignment_to_schedule(
            graph, machine, assignment, scheduler_name=self.name, insertion=self.insertion
        )
