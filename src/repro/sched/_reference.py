"""Frozen pre-kernel reference implementations of the list-family schedulers.

This module is a verbatim snapshot of the scheduler inner loops as they
stood *before* the shared scheduling kernel (:mod:`repro.sched.core`) was
introduced: full ready-list rescans per step, per-call ``exec_time``
lambdas, un-memoized routing and communication costs, and whole-timeline
scans for earliest-start computation.

It exists for two reasons and must not be "improved":

* the golden-equivalence suite (``tests/sched/test_core_equivalence.py``)
  asserts that every registered scheduler produces **byte-identical**
  serialized schedules through the kernel and through this reference;
* the benchmark's ``sweep_cold`` workload checks its ``mh`` makespans
  against it.

Only the scheduling *algorithms* are frozen here; both paths share the
live :class:`~repro.sched.schedule.Schedule`, graph, and machine layers,
so substrate improvements (e.g. cached topology tables) benefit both.
"""

from __future__ import annotations

import bisect
import random

from repro.errors import ScheduleError
from repro.graph.analysis import b_levels, static_levels, t_levels
from repro.graph.taskgraph import TaskGraph
from repro.machine.machine import TargetMachine
from repro.sched.base import Scheduler
from repro.sched.schedule import Message, Schedule

_EPS = 1e-12


# --------------------------------------------------------------------- #
# frozen copies of the pre-kernel base.py primitives
# --------------------------------------------------------------------- #
def _ready_tasks(graph: TaskGraph, done: set[str]) -> list[str]:
    return [
        t
        for t in graph.task_names
        if t not in done and all(p in done for p in graph.predecessors(t))
    ]


def _data_ready_time(schedule: Schedule, task: str, proc: int) -> float:
    graph, machine = schedule.graph, schedule.machine
    ready = 0.0
    for edge in graph.in_edges(task):
        if edge.src not in schedule:
            raise ScheduleError(
                f"cannot compute EST of {task!r}: predecessor {edge.src!r} unscheduled"
            )
        arrival = min(
            src.finish + machine.comm_cost(src.proc, proc, edge.size)
            for src in schedule.placements(edge.src)
        )
        ready = max(ready, arrival)
    return ready


def _earliest_start(
    schedule: Schedule, task: str, proc: int, insertion: bool = False
) -> float:
    ready = _data_ready_time(schedule, task, proc)
    duration = schedule.machine.exec_time(schedule.graph.work(task))
    timeline = schedule.on_proc(proc)
    if not timeline:
        return ready
    if not insertion:
        return max(ready, timeline[-1].finish)
    prev_end = 0.0
    for entry in timeline:
        start = max(ready, prev_end)
        if start + duration <= entry.start + 1e-12:
            return start
        prev_end = max(prev_end, entry.finish)
    return max(ready, prev_end)


def _place(schedule: Schedule, task: str, proc: int, start: float) -> None:
    graph, machine = schedule.graph, schedule.machine
    finish = start + machine.exec_time(graph.work(task))
    schedule.add(task, proc, start, finish)
    for edge in graph.in_edges(task):
        src = min(
            schedule.placements(edge.src),
            key=lambda s: s.finish + machine.comm_cost(s.proc, proc, edge.size),
        )
        if src.proc == proc:
            continue
        cost = machine.comm_cost(src.proc, proc, edge.size)
        schedule.add_message(
            Message(
                src_task=edge.src,
                dst_task=task,
                var=edge.var,
                size=edge.size,
                src_proc=src.proc,
                dst_proc=proc,
                start=src.finish,
                finish=src.finish + cost,
                route=tuple(machine.route(src.proc, proc)),
            )
        )


def _best_processor(
    schedule: Schedule, task: str, insertion: bool = False
) -> tuple[int, float]:
    best: tuple[float, int, float] | None = None
    duration = schedule.machine.exec_time(schedule.graph.work(task))
    for proc in schedule.machine.procs():
        start = _earliest_start(schedule, task, proc, insertion=insertion)
        key = (start + duration, proc, start)
        if best is None or key < best:
            best = key
    assert best is not None
    return best[1], best[2]


# --------------------------------------------------------------------- #
# frozen MH (mh.py as of the seed)
# --------------------------------------------------------------------- #
class _LinkTimeline:
    def __init__(self) -> None:
        self._intervals: list[tuple[float, float]] = []

    def earliest_fit(self, not_before: float, duration: float) -> float:
        if duration <= 0:
            return not_before
        t = not_before
        while True:
            idx = bisect.bisect_left(self._intervals, (t, float("-inf")))
            if idx > 0 and self._intervals[idx - 1][1] > t:
                t = self._intervals[idx - 1][1]
                continue
            if idx < len(self._intervals) and self._intervals[idx][0] < t + duration:
                t = self._intervals[idx][1]
                continue
            return t

    def reserve(self, start: float, duration: float) -> None:
        if duration <= 0:
            return
        bisect.insort(self._intervals, (start, start + duration))


class _RefNetwork:
    def __init__(self, machine: TargetMachine, shared: bool):
        self.machine = machine
        self.shared = shared
        self._links: dict[tuple[int, int], _LinkTimeline] = {}
        self._bus = _LinkTimeline()

    def _timeline(self, link: tuple[int, int]) -> _LinkTimeline:
        if self.shared:
            return self._bus
        return self._links.setdefault(link, _LinkTimeline())

    def transit(
        self,
        src: int,
        dst: int,
        size: float,
        available: float,
        commit: bool,
    ) -> float:
        params = self.machine.params
        if src == dst:
            return available
        t = available + params.msg_startup
        hop_time = params.hop_latency + size / params.transmission_rate
        reservations: list[tuple[_LinkTimeline, float]] = []
        path = self.machine.route(src, dst)
        for a, b in zip(path, path[1:]):
            link = (min(a, b), max(a, b))
            timeline = self._timeline(link)
            start = timeline.earliest_fit(t, hop_time)
            reservations.append((timeline, start))
            t = start + hop_time
        if commit:
            for timeline, start in reservations:
                timeline.reserve(start, hop_time)
        return t


class ReferenceMHScheduler(Scheduler):
    """The seed MHScheduler, frozen."""

    name = "mh"

    def __init__(self, contention: bool = True):
        self.contention = contention
        if not contention:
            self.name = "mh-nc"

    def schedule(self, graph: TaskGraph, machine: TargetMachine) -> Schedule:
        sched = Schedule(graph, machine, scheduler=self.name)
        shared = bool(getattr(machine.topology, "shared_medium", False))
        network = _RefNetwork(machine, shared=shared) if self.contention else None

        exec_time = lambda t: machine.exec_time(graph.work(t))
        prio = b_levels(
            graph,
            exec_time=exec_time,
            comm_cost=lambda e: machine.mean_comm_cost(e.size),
        )
        order = {t: i for i, t in enumerate(graph.task_names)}
        done: set[str] = set()

        while len(done) < len(graph):
            ready = _ready_tasks(graph, done)
            task = max(ready, key=lambda t: (prio[t], -order[t]))
            proc = self._best_proc(sched, network, task)
            self._commit(sched, network, task, proc)
            done.add(task)
        return sched

    def _arrivals(
        self,
        sched: Schedule,
        network: _RefNetwork | None,
        task: str,
        proc: int,
        commit: bool,
    ) -> float:
        graph, machine = sched.graph, sched.machine
        ready = 0.0
        for edge in graph.in_edges(task):
            src = sched.primary(edge.src)
            if network is not None:
                arrival = network.transit(src.proc, proc, edge.size, src.finish, commit)
            else:
                arrival = src.finish + machine.comm_cost(src.proc, proc, edge.size)
            ready = max(ready, arrival)
        return ready

    def _est(self, sched, network, task, proc):
        ready = self._arrivals(sched, network, task, proc, commit=False)
        timeline = sched.on_proc(proc)
        return max(ready, timeline[-1].finish if timeline else 0.0)

    def _best_proc(self, sched, network, task):
        duration = sched.machine.exec_time(sched.graph.work(task))
        best: tuple[float, int] | None = None
        for proc in sched.machine.procs():
            finish = self._est(sched, network, task, proc) + duration
            if best is None or (finish, proc) < best:
                best = (finish, proc)
        assert best is not None
        return best[1]

    def _commit(self, sched, network, task, proc):
        graph, machine = sched.graph, sched.machine
        ready = 0.0
        messages: list[Message] = []
        for edge in graph.in_edges(task):
            src = sched.primary(edge.src)
            if network is not None:
                arrival = network.transit(
                    src.proc, proc, edge.size, src.finish, commit=True
                )
            else:
                arrival = src.finish + machine.comm_cost(src.proc, proc, edge.size)
            ready = max(ready, arrival)
            if src.proc != proc:
                messages.append(
                    Message(
                        src_task=edge.src,
                        dst_task=task,
                        var=edge.var,
                        size=edge.size,
                        src_proc=src.proc,
                        dst_proc=proc,
                        start=src.finish,
                        finish=arrival,
                        route=tuple(machine.route(src.proc, proc)),
                    )
                )
        timeline = sched.on_proc(proc)
        start = max(ready, timeline[-1].finish if timeline else 0.0)
        finish = start + machine.exec_time(graph.work(task))
        sched.add(task, proc, start, finish)
        for message in messages:
            sched.add_message(message)


# --------------------------------------------------------------------- #
# frozen list heuristics (listsched.py as of the seed)
# --------------------------------------------------------------------- #
class ReferenceHLFETScheduler(Scheduler):
    name = "hlfet"

    def __init__(self, use_comm_levels: bool = False):
        self.use_comm_levels = use_comm_levels
        self.insertion = False

    def _priorities(self, graph, machine):
        exec_time = lambda t: machine.exec_time(graph.work(t))
        if self.use_comm_levels:
            return b_levels(
                graph,
                exec_time=exec_time,
                comm_cost=lambda e: machine.mean_comm_cost(e.size),
            )
        return static_levels(graph, exec_time=exec_time)

    def schedule(self, graph, machine):
        sched = Schedule(graph, machine, scheduler=self.name)
        prio = self._priorities(graph, machine)
        order = {t: i for i, t in enumerate(graph.task_names)}
        done: set[str] = set()
        while len(done) < len(graph):
            ready = _ready_tasks(graph, done)
            task = max(ready, key=lambda t: (prio[t], -order[t]))
            proc, start = _best_processor(sched, task, insertion=self.insertion)
            _place(sched, task, proc, start)
            done.add(task)
        return sched


class ReferenceISHScheduler(ReferenceHLFETScheduler):
    name = "ish"

    def __init__(self, use_comm_levels: bool = False):
        super().__init__(use_comm_levels=use_comm_levels)
        self.insertion = True


class ReferenceETFScheduler(Scheduler):
    name = "etf"

    def __init__(self, insertion: bool = False):
        self.insertion = insertion

    def schedule(self, graph, machine):
        sched = Schedule(graph, machine, scheduler=self.name)
        sl = static_levels(graph, exec_time=lambda t: machine.exec_time(graph.work(t)))
        done: set[str] = set()
        while len(done) < len(graph):
            best = None
            for task in _ready_tasks(graph, done):
                for proc in machine.procs():
                    start = _earliest_start(sched, task, proc, insertion=self.insertion)
                    key = (start, -sl[task], proc, task, proc)
                    if best is None or key < best:
                        best = key
            assert best is not None
            start, _, _, task, proc = best
            _place(sched, task, proc, start)
            done.add(task)
        return sched


class ReferenceDLSScheduler(Scheduler):
    name = "dls"

    def __init__(self, insertion: bool = True):
        self.insertion = insertion

    def schedule(self, graph, machine):
        sched = Schedule(graph, machine, scheduler=self.name)
        sl = static_levels(graph, exec_time=lambda t: machine.exec_time(graph.work(t)))
        done: set[str] = set()
        while len(done) < len(graph):
            best = None
            chosen = None
            for task in _ready_tasks(graph, done):
                for proc in machine.procs():
                    start = _earliest_start(sched, task, proc, insertion=self.insertion)
                    level = sl[task] - start
                    key = (-level, start, proc, task)
                    if best is None or key < best:
                        best = key
                        chosen = (task, proc, start)
            assert chosen is not None
            task, proc, start = chosen
            _place(sched, task, proc, start)
            done.add(task)
        return sched


class ReferenceMCPScheduler(Scheduler):
    name = "mcp"

    def schedule(self, graph, machine):
        sched = Schedule(graph, machine, scheduler=self.name)
        exec_time = lambda t: machine.exec_time(graph.work(t))
        comm = lambda e: machine.mean_comm_cost(e.size)
        bl = b_levels(graph, exec_time=exec_time, comm_cost=comm)
        cp = max(bl.values(), default=0.0)
        alap = {t: cp - bl[t] for t in graph.task_names}
        done: set[str] = set()
        order = {t: i for i, t in enumerate(graph.task_names)}
        while len(done) < len(graph):
            ready = _ready_tasks(graph, done)
            task = min(ready, key=lambda t: (alap[t], order[t]))
            proc, start = _best_processor(sched, task, insertion=True)
            _place(sched, task, proc, start)
            done.add(task)
        return sched


# --------------------------------------------------------------------- #
# frozen CPOP (cpop.py as of the seed)
# --------------------------------------------------------------------- #
class ReferenceCPOPScheduler(Scheduler):
    name = "cpop"

    def schedule(self, graph, machine):
        sched = Schedule(graph, machine, scheduler=self.name)
        exec_time = lambda t: machine.exec_time(graph.work(t))
        comm = lambda e: machine.mean_comm_cost(e.size)
        tl = t_levels(graph, exec_time=exec_time, comm_cost=comm)
        bl = b_levels(graph, exec_time=exec_time, comm_cost=comm)
        priority = {t: tl[t] + bl[t] for t in graph.task_names}
        cp_value = max(priority.values(), default=0.0)

        on_cp: set[str] = set()
        cp_entries = [
            t for t in graph.entry_tasks() if abs(priority[t] - cp_value) < 1e-9
        ]
        if cp_entries:
            cur = cp_entries[0]
            on_cp.add(cur)
            while True:
                nxts = [
                    s for s in graph.successors(cur)
                    if abs(priority[s] - cp_value) < 1e-9
                ]
                if not nxts:
                    break
                cur = nxts[0]
                on_cp.add(cur)

        cp_proc = 0
        order = {t: i for i, t in enumerate(graph.task_names)}
        done: set[str] = set()
        while len(done) < len(graph):
            ready = _ready_tasks(graph, done)
            task = max(ready, key=lambda t: (priority[t], -order[t]))
            if task in on_cp:
                start = _earliest_start(sched, task, cp_proc, insertion=True)
                _place(sched, task, cp_proc, start)
            else:
                proc, start = _best_processor(sched, task, insertion=True)
                _place(sched, task, proc, start)
            done.add(task)
        return sched


# --------------------------------------------------------------------- #
# frozen DSH (dsh.py as of the seed)
# --------------------------------------------------------------------- #
class ReferenceDSHScheduler(Scheduler):
    name = "dsh"

    def __init__(self, max_dups_per_task: int = 8):
        self.max_dups_per_task = max_dups_per_task

    def schedule(self, graph, machine):
        sched = Schedule(graph, machine, scheduler=self.name)
        sl = static_levels(graph, exec_time=lambda t: machine.exec_time(graph.work(t)))
        order = {t: i for i, t in enumerate(graph.task_names)}
        done: set[str] = set()
        while len(done) < len(graph):
            ready = _ready_tasks(graph, done)
            task = max(ready, key=lambda t: (sl[t], -order[t]))
            best = None
            duration = machine.exec_time(graph.work(task))
            for proc in machine.procs():
                est, dups = self._plan(sched, task, proc)
                key = (est + duration, proc)
                if best is None or key < (best[0], best[1]):
                    best = (est + duration, proc, est, dups)
            assert best is not None
            _, proc, est, dups = best
            for name, start, finish in dups:
                sched.add(name, proc, start, finish)
            _place(sched, task, proc, est)
            done.add(task)
        return sched

    def _plan(self, sched, task, proc):
        graph, machine = sched.graph, sched.machine
        duration = machine.exec_time(graph.work(task))
        added: list[tuple[str, float, float]] = []

        def finishes_of(u):
            out = [(e.finish, e.proc) for e in sched.placements(u)] if u in sched else []
            out += [(f, proc) for (n, s, f) in added if n == u]
            return out

        def arrival(edge):
            return min(
                f + machine.comm_cost(p, proc, edge.size) for f, p in finishes_of(edge.src)
            )

        def occupancy():
            slots = [(e.start, e.finish) for e in sched.on_proc(proc)]
            slots += [(s, f) for (_, s, f) in added]
            return sorted(slots)

        def earliest_slot(ready, dur):
            prev = 0.0
            for s, f in occupancy():
                start = max(ready, prev)
                if start + dur <= s + _EPS:
                    return start
                prev = max(prev, f)
            return max(ready, prev)

        def est_now():
            ready = max((arrival(e) for e in graph.in_edges(task)), default=0.0)
            return earliest_slot(ready, duration)

        est = est_now()
        for _ in range(self.max_dups_per_task):
            in_edges = graph.in_edges(task)
            if not in_edges:
                break
            crit = max(in_edges, key=arrival)
            if arrival(crit) <= _EPS:
                break
            u = crit.src
            if any(p == proc for _, p in finishes_of(u)):
                break
            u_ready = 0.0
            feasible = True
            for e in graph.in_edges(u):
                if e.src not in sched:
                    feasible = False
                    break
                u_ready = max(
                    u_ready,
                    min(
                        f + machine.comm_cost(p, proc, e.size)
                        for f, p in finishes_of(e.src)
                    ),
                )
            if not feasible:
                break
            u_dur = machine.exec_time(graph.work(u))
            u_start = earliest_slot(u_ready, u_dur)
            added.append((u, u_start, u_start + u_dur))
            new_est = est_now()
            if new_est < est - _EPS:
                est = new_est
            else:
                added.pop()
                break
        return est, added


# --------------------------------------------------------------------- #
# frozen clustering family (clustering.py / dsc.py as of the seed)
# --------------------------------------------------------------------- #
def _assignment_to_schedule(
    graph, machine, assignment, scheduler_name="fixed", insertion=False
):
    missing = [t for t in graph.task_names if t not in assignment]
    if missing:
        raise ScheduleError(f"assignment misses tasks: {missing[:5]}")
    sched = Schedule(graph, machine, scheduler=scheduler_name)
    prio = b_levels(
        graph,
        exec_time=lambda t: machine.exec_time(graph.work(t)),
        comm_cost=lambda e: machine.mean_comm_cost(e.size),
    )
    order = {t: i for i, t in enumerate(graph.task_names)}
    done: set[str] = set()
    while len(done) < len(graph):
        ready = _ready_tasks(graph, done)
        task = max(ready, key=lambda t: (prio[t], -order[t]))
        proc = assignment[task]
        start = _earliest_start(sched, task, proc, insertion=insertion)
        _place(sched, task, proc, start)
        done.add(task)
    return sched


def _linear_clusters(graph, machine):
    exec_time = lambda t: machine.exec_time(graph.work(t))
    comm = lambda e: machine.mean_comm_cost(e.size)
    remaining = set(graph.task_names)
    clusters: list[list[str]] = []
    topo_pos = {t: i for i, t in enumerate(graph.topological_order())}

    while remaining:
        bl: dict[str, float] = {}
        for t in sorted(remaining, key=topo_pos.__getitem__, reverse=True):
            bl[t] = exec_time(t) + max(
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


def _map_clusters_lpt(clusters, graph, machine):
    loads = {p: 0.0 for p in machine.procs()}
    assignment: dict[str, int] = {}
    weighted = sorted(
        clusters,
        key=lambda c: -sum(machine.exec_time(graph.work(t)) for t in c),
    )
    for cluster in weighted:
        proc = min(loads, key=lambda p: (loads[p], p))
        for t in cluster:
            assignment[t] = proc
        loads[proc] += sum(machine.exec_time(graph.work(t)) for t in cluster)
    return assignment


def _cluster_makespan(graph, machine, owner):
    exec_time = lambda t: machine.exec_time(graph.work(t))
    finish: dict[str, float] = {}
    cluster_free: dict[int, float] = {}
    for task in graph.topological_order():
        ready = 0.0
        for e in graph.in_edges(task):
            cost = 0.0 if owner[e.src] == owner[task] else machine.mean_comm_cost(e.size)
            ready = max(ready, finish[e.src] + cost)
        start = max(ready, cluster_free.get(owner[task], 0.0))
        finish[task] = start + exec_time(task)
        cluster_free[owner[task]] = finish[task]
    return max(finish.values(), default=0.0)


def _dsc_clusters(graph, machine):
    comm = lambda e: machine.mean_comm_cost(e.size)
    exec_time = lambda t: machine.exec_time(graph.work(t))
    bl = b_levels(graph, exec_time=exec_time, comm_cost=comm)

    owner: dict[str, int] = {}
    members: dict[int, list[str]] = {}
    cluster_finish: dict[int, float] = {}
    finish: dict[str, float] = {}
    next_cluster = 0

    done: set[str] = set()
    order_index = {t: i for i, t in enumerate(graph.task_names)}
    while len(done) < len(graph):
        ready = [
            t for t in graph.task_names
            if t not in done and all(p in done for p in graph.predecessors(t))
        ]
        task = max(ready, key=lambda t: (bl[t], -order_index[t]))
        duration = exec_time(task)

        best_cluster = None
        best_start = None
        for cand in {owner[p] for p in graph.predecessors(task)}:
            ready_time = 0.0
            for e in graph.in_edges(task):
                cost = 0.0 if owner[e.src] == cand else comm(e)
                ready_time = max(ready_time, finish[e.src] + cost)
            start = max(ready_time, cluster_finish.get(cand, 0.0))
            if best_start is None or start < best_start - 1e-12:
                best_start = start
                best_cluster = cand
        fresh_ready = max(
            (finish[e.src] + comm(e) for e in graph.in_edges(task)), default=0.0
        )
        if best_start is None or fresh_ready < best_start - 1e-12:
            best_cluster = next_cluster
            next_cluster += 1
            best_start = fresh_ready

        owner[task] = best_cluster
        members.setdefault(best_cluster, []).append(task)
        finish[task] = best_start + duration
        cluster_finish[best_cluster] = finish[task]
        done.add(task)

    return [members[c] for c in sorted(members)]


def _sarkar_clusters(graph, machine):
    owner = {t: i for i, t in enumerate(graph.task_names)}
    current = _cluster_makespan(graph, machine, owner)

    edges = sorted(
        graph.edges,
        key=lambda e: (-machine.mean_comm_cost(e.size), e.src, e.dst),
    )
    for e in edges:
        a, b = owner[e.src], owner[e.dst]
        if a == b:
            continue
        trial = {t: (a if c == b else c) for t, c in owner.items()}
        trial_makespan = _cluster_makespan(graph, machine, trial)
        if trial_makespan <= current + 1e-12:
            owner = trial
            current = trial_makespan

    topo_pos = {t: i for i, t in enumerate(graph.topological_order())}
    members: dict[int, list[str]] = {}
    for t, c in owner.items():
        members.setdefault(c, []).append(t)
    groups = [sorted(g, key=topo_pos.__getitem__) for g in members.values()]
    groups.sort(key=lambda g: topo_pos[g[0]])
    return groups


class ReferenceLinearClusteringScheduler(Scheduler):
    name = "lc"

    def __init__(self, insertion: bool = True):
        self.insertion = insertion

    def schedule(self, graph, machine):
        clusters = _linear_clusters(graph, machine)
        assignment = _map_clusters_lpt(clusters, graph, machine)
        return _assignment_to_schedule(
            graph, machine, assignment, scheduler_name=self.name,
            insertion=self.insertion,
        )


class ReferenceDSCScheduler(Scheduler):
    name = "dsc"

    def __init__(self, insertion: bool = True):
        self.insertion = insertion

    def schedule(self, graph, machine):
        clusters = _dsc_clusters(graph, machine)
        assignment = _map_clusters_lpt(clusters, graph, machine)
        return _assignment_to_schedule(
            graph, machine, assignment, scheduler_name=self.name,
            insertion=self.insertion,
        )


class ReferenceSarkarScheduler(Scheduler):
    name = "sarkar"

    def __init__(self, insertion: bool = True):
        self.insertion = insertion

    def schedule(self, graph, machine):
        clusters = _sarkar_clusters(graph, machine)
        assignment = _map_clusters_lpt(clusters, graph, machine)
        return _assignment_to_schedule(
            graph, machine, assignment, scheduler_name=self.name,
            insertion=self.insertion,
        )


# --------------------------------------------------------------------- #
# frozen baselines (baselines.py as of the seed)
# --------------------------------------------------------------------- #
class ReferenceSerialScheduler(Scheduler):
    name = "serial"

    def schedule(self, graph, machine):
        sched = Schedule(graph, machine, scheduler=self.name)
        t = 0.0
        for task in graph.topological_order():
            dur = machine.exec_time(graph.work(task))
            sched.add(task, 0, t, t + dur)
            t += dur
        return sched


class ReferenceRoundRobinScheduler(Scheduler):
    name = "roundrobin"

    def schedule(self, graph, machine):
        assignment = {
            task: i % machine.n_procs
            for i, task in enumerate(graph.topological_order())
        }
        return _assignment_to_schedule(graph, machine, assignment, scheduler_name=self.name)


class ReferenceRandomScheduler(Scheduler):
    name = "random"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def schedule(self, graph, machine):
        rng = random.Random(self.seed)
        assignment = {t: rng.randrange(machine.n_procs) for t in graph.task_names}
        return _assignment_to_schedule(graph, machine, assignment, scheduler_name=self.name)


# --------------------------------------------------------------------- #
# the reference registry, mirroring repro.sched.registry.SCHEDULERS
# --------------------------------------------------------------------- #
def _reference_grain():
    from repro.sched.grain import GrainPackedScheduler

    return GrainPackedScheduler(ReferenceMHScheduler())


def _reference_anneal():
    from repro.sched.anneal import AnnealingScheduler

    return AnnealingScheduler(inner=ReferenceMHScheduler())


def _reference_exhaustive():
    # ExhaustiveScheduler itself predates the kernel and is unchanged; its
    # timing pass goes through assignment_to_schedule, covered separately.
    from repro.sched.optimal import ExhaustiveScheduler

    return ExhaustiveScheduler()


#: name -> factory producing the frozen pre-kernel implementation.  Keys
#: mirror :data:`repro.sched.registry.SCHEDULERS` exactly, so the
#: equivalence suite and benchmark can zip the two registries together.
REFERENCE_SCHEDULERS = {
    "hlfet": ReferenceHLFETScheduler,
    "ish": ReferenceISHScheduler,
    "etf": ReferenceETFScheduler,
    "dls": ReferenceDLSScheduler,
    "mcp": ReferenceMCPScheduler,
    "cpop": ReferenceCPOPScheduler,
    "mh": ReferenceMHScheduler,
    "mh-nocontention": lambda: ReferenceMHScheduler(contention=False),
    "dsh": ReferenceDSHScheduler,
    "lc": ReferenceLinearClusteringScheduler,
    "dsc": ReferenceDSCScheduler,
    "sarkar": ReferenceSarkarScheduler,
    "exhaustive": _reference_exhaustive,
    "anneal": _reference_anneal,
    "grain": _reference_grain,
    "serial": ReferenceSerialScheduler,
    "roundrobin": ReferenceRoundRobinScheduler,
    "random": ReferenceRandomScheduler,
}
