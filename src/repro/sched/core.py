"""The shared scheduling kernel: precomputed arrays, memoized costs, ready sets.

Every list-family heuristic in :mod:`repro.sched` runs the same inner loop:
pick the next ready task — by a static priority, or by the earliest start
any processor offers — evaluate candidate processors under the machine's
cost model, place the task, repeat.  This module is the only home of that
loop, in both forms, and of the placement primitives under it; what the
seed schedulers paid for retail — a full ready-task rescan per step, a fresh
``machine.exec_time(graph.work(task))`` call per query, a BFS-table walk per
route, a copied timeline per earliest-start probe, every ready task ×
processor pair re-derived on every step — the kernel buys wholesale, once
per ``(graph, machine)`` pair:

* :class:`SchedKernel` — interned task indices, a per-task execution-time
  array, per-task in-edge/successor lists, and memo tables for
  ``comm_cost``/``mean_comm_cost``/``route`` keyed by processor pair and
  message size (``hop_costs``: one cost-by-hops list per size);
* :class:`ReadyHeap` / :class:`ReadySet` — incremental ready tracking driven
  by per-task pending-predecessor counters (each completion decrements its
  successors; a task enters the structure exactly when its count hits zero).
  The heap can start from a set of already-placed indices and leave a set
  of indices unreleased, which is what a pinned-prefix pass needs;
* :class:`KernelState` — a :class:`~repro.sched.schedule.Schedule` under
  construction plus O(1) processor tails, with the placement primitives
  ``data_ready_time``/``earliest_start``/``best_processor``/``place``, and
  ``data_ready_row``/``slot`` for callers that look at every processor;
* :class:`StartTable` / :func:`run_start_table` — every ready task's
  earliest start on every processor, each data-ready row computed once and
  one column refreshed per placement, and the pass ETF and DLS run on it,
  differing only in their selection key;
* :func:`run_priority_list` / :func:`replay_prefix` — the static-priority
  list pass and the verbatim replay of a pinned prefix of an earlier
  schedule that incremental re-timing and reactive re-mapping run in front
  of it.

The golden equivalence suite (``tests/sched/test_core_equivalence.py``) pins
every registered scheduler to the frozen pre-kernel reference in
:mod:`repro.sched._reference` (same floats, same tie-breaks, same message
records); the benchmark's ``sched.loop_ms.*`` metrics watch the speed.

Module-level counters (:func:`kernel_counters`) feed
:class:`~repro.sched.service.ServiceStats` so ``banger sweep --stats``
shows kernel builds and route-cache behaviour.
"""

from __future__ import annotations

import copy
import heapq
import threading
import time
from contextlib import contextmanager
from typing import Callable, Collection, Iterable, Iterator

from repro.errors import ScheduleError
from repro.graph.analysis import b_levels, static_levels, t_levels
from repro.graph.taskgraph import TaskEdge, TaskGraph
from repro.lru import LEDGER
from repro.machine.compiled import compiled_for
from repro.machine.machine import TargetMachine
from repro.machine.params import MachineParams
from repro.sched.schedule import Message, Placement, Schedule

# --------------------------------------------------------------------- #
# observability
# --------------------------------------------------------------------- #
#: ``kernel_builds``/``kernel_build_ms`` count :class:`SchedKernel`
#: constructions and their cumulative wall time; ``route_cache_hits``/
#: ``route_cache_misses`` count memoized-route lookups across all kernels.
#: Bumps are locked read-modify-writes: concurrent traffic (threaded
#: callers, the stats stress test) must not drop counts.
LEDGER.declare(
    kernel_builds=0, kernel_build_ms=0.0, route_cache_hits=0, route_cache_misses=0
)
_bump = LEDGER.bump

#: A snapshot of the whole work ledger — the counters above, ``compiled_*``
#: (:mod:`repro.machine.compiled`) and the rest; monotonic: read two, subtract.
kernel_counters = LEDGER.snapshot


# --------------------------------------------------------------------- #
# the kernel proper
# --------------------------------------------------------------------- #
class GraphTables:
    """The graph half of a kernel: what the task graph alone decides.

    Interned task indices and per-task edge lists, plus — per distinct
    :class:`~repro.machine.params.MachineParams`, which is all an execution
    time depends on — the execution-time array and the static levels.  One
    instance serves every kernel built for the graph while it cannot
    change: see :func:`sharing_graph_tables`.
    """

    def __init__(self, graph: TaskGraph):
        self.graph = graph
        self.tasks: list[str] = list(graph.task_names)
        self.index: dict[str, int] = {t: i for i, t in enumerate(self.tasks)}
        self.in_edges: list[list[TaskEdge]] = [graph.in_edges(t) for t in self.tasks]
        idx = self.index
        self.succ_idx: list[list[int]] = [
            [idx[e.dst] for e in graph.out_edges(t)] for t in self.tasks
        ]
        self._exec_time: dict[MachineParams, list[float]] = {}
        self._static_levels: dict[MachineParams, dict[str, float]] = {}

    def exec_time(self, params: MachineParams) -> list[float]:
        """``params.exec_time(graph.work(t))`` per task, computed once."""
        times = self._exec_time.get(params)
        if times is None:
            work = self.graph.work
            times = [params.exec_time(work(t)) for t in self.tasks]
            self._exec_time[params] = times
        return times

    def static_levels(self, params: MachineParams) -> dict[str, float]:
        levels = self._static_levels.get(params)
        if levels is None:
            times, index = self.exec_time(params), self.index
            levels = static_levels(self.graph, exec_time=lambda t: times[index[t]])
            self._static_levels[params] = levels
        return levels


_SHARING = threading.local()


@contextmanager
def sharing_graph_tables(graph: TaskGraph) -> Iterator[None]:
    """While the block runs, every :class:`SchedKernel` this thread builds
    for ``graph`` — this very object — reads one :class:`GraphTables`, built
    by the first of them.  For a caller that schedules one graph many times
    and knows nothing mutates it meanwhile (a service batch); the tables are
    dropped on exit, so no later edit can meet stale ones."""
    outer = getattr(_SHARING, "slot", None)
    _SHARING.slot = [graph, None]
    try:
        yield
    finally:
        _SHARING.slot = outer


def _graph_tables(graph: TaskGraph) -> GraphTables:
    slot = getattr(_SHARING, "slot", None)
    if slot is None or slot[0] is not graph:
        return GraphTables(graph)
    if slot[1] is None:
        slot[1] = GraphTables(graph)
    return slot[1]


class SchedKernel:
    """Precomputed, memoized scheduling context for one graph × machine.

    Attributes
    ----------
    tasks / index:
        Task names in graph insertion order and the name → index map.  The
        insertion index doubles as the deterministic tie-breaker every seed
        scheduler used via its ``order`` dict.
    exec_time:
        ``machine.exec_time(graph.work(t))`` per task, computed once.
    in_edges / succ_idx:
        Per-task in-edge lists (graph order, duplicates preserved) and
        per-out-edge successor indices (for ready-set propagation).
    compiled:
        The machine's compiled routing tables.

    The first four are the graph half (:class:`GraphTables`, possibly
    shared with other kernels — read, never written); the rest is per
    machine.  A kernel :meth:`derived` for an edited graph shares all of
    it but the execution times of the edited tasks.
    """

    def __init__(self, graph: TaskGraph, machine: TargetMachine):
        t0 = time.perf_counter()
        self.graph = graph
        self.machine = machine
        self._params = machine.params
        # The graph half ...
        tables = self._tables = _graph_tables(graph)
        self.tasks, self.index = tables.tasks, tables.index
        self.n = len(self.tasks)
        self.in_edges, self.succ_idx = tables.in_edges, tables.succ_idx
        self.exec_time: list[float] = tables.exec_time(self._params)
        # ... and the machine half.  Compile-ahead tables: content-addressed
        # by machine hash, so a warm topology costs one O(1) cache probe
        # instead of a router walk per pair — and the same tables
        # machine.comm_cost/route answer from.
        self.compiled = compiled_for(machine)
        self._comm: dict[float, list[float]] = {}
        self._routes: dict[tuple[int, int], tuple[int, ...]] = {}
        self._mean_comm: dict[float, float] = {}
        self._levels: dict[str, dict[str, float]] = {}
        _bump("kernel_builds")
        _bump("kernel_build_ms", (time.perf_counter() - t0) * 1000.0)

    def derived(self, graph: TaskGraph, changed: Iterable[str]) -> "SchedKernel":
        """The kernel of ``graph``, over this kernel's graph's very edges
        (:meth:`~repro.graph.taskgraph.TaskGraph.shares_edges`) and differing
        from it only in the specs of the ``changed`` tasks: the task
        tables, the compiled topology and the cost and route memos are this
        kernel's own objects, and only the changed tasks' execution times
        are computed.  Levels are not shared: they depend on every work."""
        kernel = copy.copy(self)
        kernel.graph = graph
        kernel._tables = None
        kernel._levels = {}
        exec_time = kernel.exec_time = list(self.exec_time)
        for task in changed:
            exec_time[self.index[task]] = self._params.exec_time(graph.work(task))
        return kernel

    # ------------------------------------------------------------------ #
    # memoized cost model (identical values to TargetMachine's methods)
    # ------------------------------------------------------------------ #
    def hop_costs(self, size: float) -> list[float]:
        """Memoized ``params.comm_time(size, hops)`` for ``hops`` = 0 (free)
        up to the machine's diameter, indexed by hop count."""
        costs = self._comm.get(size)
        if costs is None:
            comm_time = self._params.comm_time
            costs = [
                comm_time(size, hops) for hops in range(self.compiled.diameter() + 1)
            ]
            self._comm[size] = costs
        return costs

    def comm_cost(self, src_proc: int, dst_proc: int, size: float) -> float:
        """Memoized ``machine.comm_cost`` (hops off the table, then cost)."""
        if src_proc == dst_proc:
            return 0.0
        compiled = self.compiled
        hops = compiled.dist[src_proc * compiled.n_procs + dst_proc]
        return self.hop_costs(size)[hops]

    def mean_comm_cost(self, size: float) -> float:
        """Memoized ``machine.mean_comm_cost`` (one entry per message size)."""
        cost = self._mean_comm.get(size)
        if cost is None:
            cost = self._params.mean_comm_time(
                size, self.compiled.average_distance()
            )
            self._mean_comm[size] = cost
        return cost

    def route(self, src_proc: int, dst_proc: int) -> tuple[int, ...]:
        """Memoized ``machine.route`` as a tuple (ready for message records)."""
        pair = (src_proc, dst_proc)
        path = self._routes.get(pair)
        if path is None:
            _bump("route_cache_misses")
            path = self.compiled.route(src_proc, dst_proc)
            self._routes[pair] = path
        else:
            _bump("route_cache_hits")
        return path

    # ------------------------------------------------------------------ #
    # memoized priority levels (same floats as the seed lambdas produced)
    # ------------------------------------------------------------------ #
    def _exec_of(self, task: str) -> float:
        return self.exec_time[self.index[task]]

    def b_levels_comm(self, tasks: Collection[str] | None = None) -> dict[str, float]:
        """b-levels with mean machine communication (MH/MCP/CPOP priority).

        With ``tasks`` (closed under successors) only theirs, the same
        floats, computed afresh: a part is not kept.
        """
        levels = self._levels.get("bl_comm")
        if levels is None:
            levels = b_levels(
                self.graph,
                exec_time=self._exec_of,
                comm_cost=lambda e: self.mean_comm_cost(e.size),
                tasks=tasks,
            )
            if tasks is None:
                self._levels["bl_comm"] = levels
        return levels

    def t_levels_comm(self) -> dict[str, float]:
        levels = self._levels.get("tl_comm")
        if levels is None:
            levels = t_levels(
                self.graph,
                exec_time=self._exec_of,
                comm_cost=lambda e: self.mean_comm_cost(e.size),
            )
            self._levels["tl_comm"] = levels
        return levels

    def static_levels(self) -> dict[str, float]:
        if self._tables is not None:
            return self._tables.static_levels(self._params)
        levels = self._levels.get("static")
        if levels is None:
            levels = self._levels["static"] = static_levels(
                self.graph, exec_time=self._exec_of)
        return levels

    def priority_array(self, levels: dict[str, float]) -> list[float]:
        """A level dict reindexed by task index (for heap keys)."""
        return [levels[t] for t in self.tasks]


# --------------------------------------------------------------------- #
# incremental ready tracking
# --------------------------------------------------------------------- #
class _ReadyBase:
    """Pending-predecessor counters shared by the heap and set variants.

    A task's counter starts at its in-edge count (duplicate edges count per
    edge on both sides, so the arithmetic is self-consistent) and each
    completed predecessor decrements it once per connecting edge; the task
    becomes ready exactly when the counter reaches zero — precisely "every
    predecessor is done".
    """

    def __init__(self, kernel: SchedKernel):
        self._succ = kernel.succ_idx
        self._pending = [len(edges) for edges in kernel.in_edges]

    def _initial_ready(self) -> list[int]:
        return [i for i, count in enumerate(self._pending) if count == 0]

    def _release(self, i: int) -> list[int]:
        """Decrement ``i``'s successors; return the newly ready indices."""
        fresh: list[int] = []
        pending = self._pending
        for j in self._succ[i]:
            pending[j] -= 1
            if pending[j] == 0:
                fresh.append(j)
        return fresh


class ReadyHeap(_ReadyBase):
    """Priority-ordered ready tasks for static-priority schedulers.

    ``key(i)`` must be a total order whose minimum matches the seed
    scheduler's selection — e.g. ``(-prio[i], i)`` reproduces
    ``max(ready, key=lambda t: (prio[t], -order[t]))`` exactly, because the
    insertion index ``i`` IS the seed's ``order[t]``.

    ``placed`` are indices already in the schedule (a replayed prefix): they
    count as completed.  ``held`` are indices the caller places itself,
    later.  Neither is ever offered; both default to none — the whole graph.
    """

    def __init__(
        self,
        kernel: SchedKernel,
        key: Callable[[int], tuple],
        placed: Collection[int] = (),
        held: Collection[int] = (),
    ):
        super().__init__(kernel)
        for i in placed:
            self._release(i)
        for i in (*placed, *held):
            self._pending[i] += 1  # one predecessor that never completes
        self._key = key
        self._heap = [(key(i), i) for i in self._initial_ready()]
        heapq.heapify(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def pop(self) -> int:
        """Remove and return the highest-priority ready task index."""
        if not self._heap:
            raise ScheduleError("no ready task (cyclic graph?)")
        return heapq.heappop(self._heap)[1]

    def complete(self, i: int) -> None:
        """Mark ``i`` done (after :meth:`pop`), releasing its successors."""
        for j in self._release(i):
            heapq.heappush(self._heap, (self._key(j), j))


class ReadySet(_ReadyBase):
    """Iterable ready set for schedulers whose selection key is dynamic
    (ETF and DLS, through the :class:`StartTable` it feeds)."""

    def __init__(self, kernel: SchedKernel):
        super().__init__(kernel)
        self._ready: set[int] = set(self._initial_ready())

    def __len__(self) -> int:
        return len(self._ready)

    def __iter__(self):
        return iter(self._ready)

    def complete(self, i: int) -> list[int]:
        """Remove ``i`` from the set and release its successors; returns the
        newly ready indices."""
        self._ready.discard(i)
        fresh = self._release(i)
        self._ready.update(fresh)
        return fresh


# --------------------------------------------------------------------- #
# schedule-under-construction with O(1) hot-path queries
# --------------------------------------------------------------------- #
class KernelState:
    """A schedule being built, plus what the hot path asks of it.

    Holds the real :class:`~repro.sched.schedule.Schedule` (the output
    object and overlap validator) and:

    * ``tails`` — per-processor finish of the last-by-start placement, so
      non-insertion earliest-start is O(1) instead of a timeline copy;
    * a live view of the schedule's own per-task index, whose lists the
      schedule keeps ordered by ``(finish, proc)`` — there is no second
      copy of the placements here.

    All query methods take task *indices* (see :attr:`SchedKernel.index`);
    predecessor lookups inside take the task *names* carried by edges.
    """

    def __init__(self, kernel: SchedKernel, scheduler_name: str = ""):
        self.kernel = kernel
        self.sched = Schedule(kernel.graph, kernel.machine, scheduler=scheduler_name)
        self.tails: list[float] = [0.0] * kernel.machine.n_procs
        self._by_task = self.sched._by_task  # shared, not mirrored

    # ------------------------------------------------------------------ #
    def __contains__(self, task: str) -> bool:
        return task in self._by_task

    def placements_or_none(self, task: str) -> list[Placement] | None:
        """All copies of ``task`` by ``(finish, proc)`` — the live list."""
        return self._by_task.get(task)

    def primary(self, task: str) -> Placement:
        """The earliest-finishing copy (``Schedule.primary`` without the check)."""
        return self._by_task[task][0]

    # ------------------------------------------------------------------ #
    def add(self, task: str, proc: int, start: float, finish: float) -> Placement:
        """Place a (copy of) ``task`` and update the processor tail."""
        entry = self.sched.add(task, proc, start, finish)
        self.tails[proc] = self.sched.proc_tail(proc)
        return entry

    # ------------------------------------------------------------------ #
    # the placement primitives
    # ------------------------------------------------------------------ #
    def data_ready_time(self, ti: int, proc: int) -> float:
        """Earliest time all of task ``ti``'s inputs can be on ``proc``.

        Per in-edge the cheapest placed copy of the predecessor is used
        (what makes duplication pay off).  Raises if a predecessor is
        unscheduled — list order must be topological.
        """
        kernel = self.kernel
        comm = kernel.comm_cost
        placed = self._by_task
        ready = 0.0
        for edge in kernel.in_edges[ti]:
            plist = placed.get(edge.src)
            if plist is None:
                raise self._unscheduled(ti, edge)
            if len(plist) == 1:
                src = plist[0]
                arrival = src.finish + comm(src.proc, proc, edge.size)
            else:
                arrival = min(
                    s.finish + comm(s.proc, proc, edge.size) for s in plist
                )
            if arrival > ready:
                ready = arrival
        return ready

    def arrival_rows(self, ti: int) -> Iterator[list[float]]:
        """Per in-edge of task ``ti``, in edge order: the edge's earliest
        arrival on every processor — per source copy, the copy's finish plus
        the message's cost by hops along the copy's row of the compiled
        distance table, cheapest copy per processor."""
        kernel = self.kernel
        n_procs = len(self.tails)
        dist = kernel.compiled.dist
        placed = self._by_task
        for edge in kernel.in_edges[ti]:
            plist = placed.get(edge.src)
            if plist is None:
                raise self._unscheduled(ti, edge)
            costs = kernel.hop_costs(edge.size)
            arrival: list[float] | None = None
            for src in plist:
                finish, base = src.finish, src.proc * n_procs
                via = [finish + costs[hops] for hops in dist[base : base + n_procs]]
                if arrival is None:
                    arrival = via
                else:
                    arrival = [a if a <= v else v for a, v in zip(arrival, via)]
            yield arrival

    def data_ready_row(self, ti: int) -> list[float]:
        """:meth:`data_ready_time` of task ``ti`` on every processor, in one
        pass over its in-edges (:meth:`arrival_rows`) — the same additions,
        ``min`` and ``max``, so the same floats."""
        ready: list[float] | None = None
        for arrival in self.arrival_rows(ti):
            if ready is None:
                ready = arrival  # no arrival is negative: max(0.0, a) is a
            else:
                ready = [a if a > r else r for a, r in zip(arrival, ready)]
        return ready if ready is not None else [0.0] * len(self.tails)

    def _unscheduled(self, ti: int, edge: TaskEdge) -> ScheduleError:
        return ScheduleError(
            f"cannot compute EST of {self.kernel.tasks[ti]!r}: "
            f"predecessor {edge.src!r} unscheduled"
        )

    def slot(self, ti: int, proc: int, ready: float, insertion: bool) -> float:
        """Earliest feasible start on ``proc`` of task ``ti`` whose inputs are
        there at ``ready``: after the processor's last placement, or — with
        ``insertion`` (ISH and later) — in the first idle gap that fits."""
        if not insertion:
            tail = self.tails[proc]
            return ready if ready > tail else tail
        return self.sched.insertion_slot(proc, ready, self.kernel.exec_time[ti])

    def earliest_start(self, ti: int, proc: int, insertion: bool = False) -> float:
        """Earliest feasible start of task ``ti`` on ``proc``: its
        :meth:`slot` at its :meth:`data_ready_time`."""
        if not 0 <= proc < len(self.tails):
            raise ScheduleError(
                f"processor {proc} out of range for machine "
                f"{self.kernel.machine.name!r}"
            )
        return self.slot(ti, proc, self.data_ready_time(ti, proc), insertion)

    def best_processor(self, ti: int, insertion: bool = False) -> tuple[int, float]:
        """``(proc, start)`` giving task ``ti`` its earliest finish; ties go
        to the lower processor number."""
        duration = self.kernel.exec_time[ti]
        best: tuple[float, int, float] | None = None
        for proc, ready in enumerate(self.data_ready_row(ti)):
            start = self.slot(ti, proc, ready, insertion)
            key = (start + duration, proc, start)
            if best is None or key < best:
                best = key
        assert best is not None
        return best[1], best[2]

    def place(self, ti: int, proc: int, start: float) -> None:
        """Place task ``ti`` on ``proc`` at ``start`` and record a message
        per in-edge whose cheapest source copy sits on another processor."""
        kernel = self.kernel
        comm = kernel.comm_cost
        task = kernel.tasks[ti]
        self.add(task, proc, start, start + kernel.exec_time[ti])
        for edge in kernel.in_edges[ti]:
            plist = self._by_task[edge.src]
            if len(plist) == 1:
                src = plist[0]
            else:
                src = min(
                    plist, key=lambda s: s.finish + comm(s.proc, proc, edge.size)
                )
            if src.proc == proc:
                continue
            cost = comm(src.proc, proc, edge.size)
            self.sched.add_message(
                Message(
                    src_task=edge.src,
                    dst_task=task,
                    var=edge.var,
                    size=edge.size,
                    src_proc=src.proc,
                    dst_proc=proc,
                    start=src.finish,
                    finish=src.finish + cost,
                    route=kernel.route(src.proc, proc),
                )
            )


# --------------------------------------------------------------------- #
# the earliest-start table, and the dynamic-key pass that runs on it
# --------------------------------------------------------------------- #
class StartTable:
    """Every ready task's earliest start on every processor, kept current.

    A task becomes ready when its last predecessor is placed, and the
    schedulers that run on the table never place a second copy of anything,
    so the row :meth:`KernelState.data_ready_row` gives at that moment is
    final.  What can still move a start is a processor's timeline, and one
    placement changes one timeline: :meth:`place` re-evaluates that column
    of the remaining rows and nothing else.

    ``rows[ti]`` is ``(arrivals, starts)`` — the data-ready row and its
    :meth:`KernelState.slot` per processor — and ``best[ti]`` the row's least
    ``(start, proc)``; the rows' keys are exactly the ready set.
    """

    def __init__(self, state: KernelState, insertion: bool):
        self._state = state
        self._insertion = insertion
        self._ready = ReadySet(state.kernel)
        self.rows: dict[int, tuple[list[float], list[float]]] = {}
        self.best: dict[int, tuple[float, int]] = {}
        for ti in self._ready:
            self._admit(ti)

    def _admit(self, ti: int) -> None:
        slot, insertion = self._state.slot, self._insertion
        arrivals = self._state.data_ready_row(ti)
        starts = [slot(ti, proc, ready, insertion) for proc, ready in enumerate(arrivals)]
        self.rows[ti] = (arrivals, starts)
        self.best[ti] = _least(starts)

    def pick(self, key: Callable[[int, float, int], tuple]) -> tuple[int, int, float]:
        """``(task index, proc, start)`` minimising ``key(ti, start, proc)``
        over every ready task × processor pair.

        Only each task's cached best is looked at, so for a fixed task
        ``key`` must order processors by ``(start, proc)`` — then the least
        of the per-task minima is the least of all pairs.
        """
        least: tuple | None = None
        chosen: tuple[int, int, float] | None = None
        for ti, (start, proc) in self.best.items():
            candidate = key(ti, start, proc)
            if least is None or candidate < least:
                least = candidate
                chosen = (ti, proc, start)
        if chosen is None:
            raise ScheduleError("no ready task (cyclic graph?)")
        return chosen

    def place(self, ti: int, proc: int, start: float) -> None:
        """Place ready task ``ti``, refresh column ``proc`` of the other
        rows, and admit the tasks the placement released."""
        self._state.place(ti, proc, start)
        del self.rows[ti], self.best[ti]
        self._refresh(proc)
        for tj in self._ready.complete(ti):
            self._admit(tj)

    def _refresh(self, proc: int) -> None:
        """Re-evaluate column ``proc`` after its timeline changed.  A cell may
        move either way; a row's best is searched again only when the cell
        that held it got worse."""
        slot, insertion, best = self._state.slot, self._insertion, self.best
        for ti, (arrivals, starts) in self.rows.items():
            moved = slot(ti, proc, arrivals[proc], insertion)
            if moved == starts[proc]:
                continue
            starts[proc] = moved
            if (moved, proc) < best[ti]:
                best[ti] = (moved, proc)
            elif best[ti][1] == proc:
                best[ti] = _least(starts)


def _least(starts: list[float]) -> tuple[float, int]:
    """The least ``(start, proc)`` of a row: ties go to the lower processor."""
    start = min(starts)
    return start, starts.index(start)


def run_start_table(
    state: KernelState, key: Callable[[int, float, int], tuple], insertion: bool
) -> Schedule:
    """The dynamic-key list pass (ETF, DLS): every step places the ready
    task × processor pair with the least ``key(ti, start, proc)`` — see
    :meth:`StartTable.pick` for what ``key`` must respect."""
    table = StartTable(state, insertion)
    for _ in range(state.kernel.n):
        table.place(*table.pick(key))
    return state.sched


# --------------------------------------------------------------------- #
# the list pass, and the pinned prefix that may precede it
# --------------------------------------------------------------------- #
def run_priority_list(
    kernel: SchedKernel,
    state: KernelState,
    key: Callable[[int], tuple],
    pick_processor: Callable[[int], tuple[int, float]],
    placed: Collection[int] = (),
    held: Collection[int] = (),
) -> Schedule:
    """The canonical list-scheduling loop: heap-pop, place, release.

    ``pick_processor(ti) -> (proc, start)`` is the only scheduler-specific
    part; everything else (ready tracking, placement, message recording) is
    shared.  ``placed`` (indices already in ``state``, see
    :func:`replay_prefix`) and ``held`` (indices the caller places itself
    afterwards; must be successor-closed) are disjoint index sets; every
    other task is placed, or the pass raises.
    """
    heap = ReadyHeap(kernel, key, placed, held)
    for _ in range(kernel.n - len(placed) - len(held)):
        ti = heap.pop()
        proc, start = pick_processor(ti)
        state.place(ti, proc, start)
        heap.complete(ti)
    return state.sched


def replay_prefix(
    state: KernelState,
    prev: Schedule,
    tasks: Iterable[str],
    start_of: Callable[[int, int, float], float] | None = None,
) -> set[int]:
    """Re-place ``tasks`` where ``prev`` had their primary copies.

    ``tasks`` must be ancestor-closed and a start-order prefix of every
    processor timeline of ``prev``.  They are replayed by previous start so
    each timeline grows tail-first (ties topological, so predecessors land
    before zero-width successors), each at its previous start — or at
    ``start_of(ti, proc, prev_start)``, evaluated against the state so far.
    Returns the replayed indices, ready to be ``run_priority_list``'s
    ``placed``.
    """
    kernel = state.kernel
    topo_pos = {t: i for i, t in enumerate(kernel.graph.topological_order())}
    entries = {t: prev.primary(t) for t in tasks}
    placed: set[int] = set()
    for t in sorted(entries, key=lambda t: (entries[t].start, topo_pos[t])):
        entry, ti = entries[t], kernel.index[t]
        start = entry.start
        if start_of is not None:
            start = start_of(ti, entry.proc, start)
        state.place(ti, entry.proc, start)
        placed.add(ti)
    return placed
