"""Classic DAG analyses used by the PPSE scheduling heuristics.

All functions operate on a :class:`~repro.graph.taskgraph.TaskGraph` and take
two optional cost callables so the same code serves both machine-independent
analysis (defaults: a task costs its ``work``, an edge costs its ``size``)
and machine-aware analysis (plug in the target machine's execution and mean
communication costs):

* ``exec_time(task_name) -> float``
* ``comm_cost(edge) -> float``

Terminology follows the scheduling literature the paper builds on:

* **t-level** (top level): longest path from any entry task to the task,
  excluding the task itself — its earliest possible start time on an
  unbounded machine.
* **b-level** (bottom level): longest path from the task to any exit task,
  including the task itself — the HLFET priority when ``comm_cost`` is zero
  (then it is called the *static level*).
* **critical path**: the heaviest entry→exit path; its length bounds any
  schedule's makespan from below.
"""

from __future__ import annotations

from typing import Callable, Collection

from repro.errors import GraphError
from repro.graph.taskgraph import TaskEdge, TaskGraph

ExecTime = Callable[[str], float]
CommCost = Callable[[TaskEdge], float]


def _default_exec(tg: TaskGraph) -> ExecTime:
    return tg.work


def _default_comm(edge: TaskEdge) -> float:
    return edge.size


def _zero_comm(edge: TaskEdge) -> float:
    return 0.0


def t_levels(
    tg: TaskGraph,
    exec_time: ExecTime | None = None,
    comm_cost: CommCost | None = None,
) -> dict[str, float]:
    """Earliest-start level of every task (longest incoming path)."""
    exec_time = exec_time or _default_exec(tg)
    comm_cost = comm_cost if comm_cost is not None else _default_comm
    tl: dict[str, float] = {}
    for t in tg.topological_order():
        tl[t] = max(
            (tl[e.src] + exec_time(e.src) + comm_cost(e) for e in tg.in_edges(t)),
            default=0.0,
        )
    return tl


def b_levels(
    tg: TaskGraph,
    exec_time: ExecTime | None = None,
    comm_cost: CommCost | None = None,
    tasks: Collection[str] | None = None,
    known: dict[str, float] | None = None,
) -> dict[str, float]:
    """Bottom level of every task (longest outgoing path, task included).

    With ``tasks`` only their levels are computed, each exactly as the
    whole-graph pass computes it: a task's level reads only its successors'
    levels.  So ``tasks`` must be closed under successors, but for those
    whose level is in ``known``; the result then holds ``known`` too.
    """
    exec_time = exec_time or _default_exec(tg)
    comm_cost = comm_cost if comm_cost is not None else _default_comm
    known = known or {}
    order = (
        reversed(tg.topological_order()) if tasks is None
        else _sinks_first(tg, tasks, known)
    )
    bl: dict[str, float] = dict(known)
    for t in order:
        bl[t] = exec_time(t) + max(
            (comm_cost(e) + bl[e.dst] for e in tg.out_edges(t)),
            default=0.0,
        )
    return bl


def _sinks_first(
    tg: TaskGraph, tasks: Collection[str], known: Collection[str]
) -> list[str]:
    """``tasks``, closed under successors but for ``known`` ones, each after
    all its successors in the set: a reverse Kahn sort that visits the
    set's own edges only."""
    waiting = dict.fromkeys(tasks, 0)
    for t in waiting:
        # a successor neither in the set nor known is never sorted, so
        # neither is ``t``: refused below
        waiting[t] = sum(e.dst in waiting or e.dst not in known
                         for e in tg.out_edges(t))
    ready = [t for t, n in waiting.items() if n == 0]
    order: list[str] = []
    while ready:
        t = ready.pop()
        order.append(t)
        for e in tg.in_edges(t):
            if e.src in waiting:
                waiting[e.src] -= 1
                if waiting[e.src] == 0:
                    ready.append(e.src)
    if len(order) != len(waiting):
        raise GraphError(
            f"task graph {tg.name!r}: the tasks asked for are not closed under "
            "successors, or contain a cycle"
        )
    return order


def static_levels(tg: TaskGraph, exec_time: ExecTime | None = None) -> dict[str, float]:
    """b-levels with communication ignored — the classic HLFET priority."""
    return b_levels(tg, exec_time=exec_time, comm_cost=_zero_comm)


def critical_path(
    tg: TaskGraph,
    exec_time: ExecTime | None = None,
    comm_cost: CommCost | None = None,
) -> tuple[float, list[str]]:
    """Length and task sequence of the heaviest entry→exit path.

    Returns ``(0.0, [])`` for an empty graph.  Ties are broken
    deterministically by task insertion order.
    """
    if len(tg) == 0:
        return 0.0, []
    exec_time = exec_time or _default_exec(tg)
    comm_cost = comm_cost if comm_cost is not None else _default_comm
    bl = b_levels(tg, exec_time=exec_time, comm_cost=comm_cost)
    start = max(tg.entry_tasks(), key=lambda t: bl[t])
    path = [start]
    cur = start
    while tg.successors(cur):
        nxt = max(
            tg.out_edges(cur),
            key=lambda e: comm_cost(e) + bl[e.dst],
        )
        path.append(nxt.dst)
        cur = nxt.dst
    return bl[start], path


def critical_path_length(
    tg: TaskGraph,
    exec_time: ExecTime | None = None,
    comm_cost: CommCost | None = None,
) -> float:
    return critical_path(tg, exec_time, comm_cost)[0]


def precedence_levels(tg: TaskGraph) -> dict[str, int]:
    """Unweighted ASAP level (entry tasks are level 0)."""
    lvl: dict[str, int] = {}
    for t in tg.topological_order():
        lvl[t] = max((lvl[p] + 1 for p in tg.predecessors(t)), default=0)
    return lvl


def level_widths(tg: TaskGraph) -> dict[int, int]:
    """Number of tasks per precedence level (the graph's parallelism profile)."""
    widths: dict[int, int] = {}
    for level in precedence_levels(tg).values():
        widths[level] = widths.get(level, 0) + 1
    return widths


def max_width(tg: TaskGraph) -> int:
    """Maximum number of mutually independent same-level tasks."""
    widths = level_widths(tg)
    return max(widths.values(), default=0)


def average_parallelism(tg: TaskGraph, exec_time: ExecTime | None = None) -> float:
    """Total work divided by the zero-communication critical path.

    This is the classic upper bound on achievable speedup for the graph,
    independent of any machine.
    """
    exec_time = exec_time or _default_exec(tg)
    cp = critical_path_length(tg, exec_time=exec_time, comm_cost=_zero_comm)
    if cp == 0:
        return 0.0
    return sum(exec_time(t) for t in tg.task_names) / cp


def communication_to_computation_ratio(tg: TaskGraph) -> float:
    """Mean edge size over mean task work (CCR), 0 for edge-free graphs."""
    if not tg.edges or len(tg) == 0:
        return 0.0
    mean_comm = tg.total_comm() / len(tg.edges)
    mean_work = tg.total_work() / len(tg)
    if mean_work == 0:
        return float("inf")
    return mean_comm / mean_work


def asap_schedule_times(
    tg: TaskGraph,
    exec_time: ExecTime | None = None,
    comm_cost: CommCost | None = None,
) -> dict[str, tuple[float, float]]:
    """Unbounded-processor (start, finish) times — the PERT lower envelope."""
    exec_time = exec_time or _default_exec(tg)
    tl = t_levels(tg, exec_time=exec_time, comm_cost=comm_cost)
    return {t: (tl[t], tl[t] + exec_time(t)) for t in tg.task_names}
