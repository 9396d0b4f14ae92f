"""DSH — the Duplication Scheduling Heuristic (Kruatrachue & Lewis).

The insight behind duplication: when a message from a predecessor delays a
task, it can be cheaper to *re-execute* the predecessor locally in the idle
gap than to wait for the wire.  DSH is the aggressive end of the PPSE
heuristic family the paper's scheduling layer drew on (Kruatrachue's 1987
thesis under Lewis, cited in the acknowledgements).

This implementation duplicates **direct** predecessors iteratively: while the
critical (latest-arriving) message can be replaced by a local copy that
starts the task earlier, the copy is inserted into an idle slot.  Copies are
planned tentatively per candidate processor and committed only for the
winner, so the result is always feasible (the independent validator checks
duplicated schedules too).

Runs on the shared :mod:`repro.sched.core` kernel (incremental ready heap,
precomputed execution times, arrival rows): per placed task every in-edge's
arrival on every processor is computed once, a candidate without a planned
copy finds its slot by :meth:`Schedule.insertion_slot`, and one that plans
copies keeps a single start-ordered occupancy list, built off the timeline
once and updated by insertion.  Byte-identical to the pre-kernel
implementation.
"""

from __future__ import annotations

import bisect

from repro.graph.taskgraph import TaskEdge, TaskGraph
from repro.machine.machine import TargetMachine
from repro.sched.base import Scheduler
from repro.sched.core import KernelState, ReadyHeap, SchedKernel
from repro.sched.schedule import Schedule

_EPS = 1e-12

Copy = tuple[str, float, float]  # (task name, start, finish) on the candidate


def _occupancy(state: KernelState, proc: int) -> list[tuple[float, float]]:
    """Busy ``(start, finish)`` intervals of ``proc`` by start — the
    timeline's own order, so nothing is sorted."""
    return [(e.start, e.finish) for e in state.sched.timeline(proc)]


def _earliest_slot(
    occupancy: list[tuple[float, float]], ready: float, duration: float
) -> float:
    """First idle gap of ``occupancy`` (by start) that fits ``duration`` at
    or after ``ready`` — :meth:`Schedule.insertion_slot`'s scan, over a
    timeline with planned copies in it."""
    prev = 0.0
    for start, finish in occupancy:
        at = ready if ready > prev else prev
        if at + duration <= start + _EPS:
            return at
        if finish > prev:
            prev = finish
    return ready if ready > prev else prev


class DSHScheduler(Scheduler):
    """List scheduling by static level with idle-slot task duplication.

    Parameters
    ----------
    max_dups_per_task:
        Upper bound on copies planned while placing one task (runaway guard;
        the loop also stops at the first non-improving copy).
    """

    name = "dsh"

    def __init__(self, max_dups_per_task: int = 8):
        self.max_dups_per_task = max_dups_per_task

    def schedule(self, graph: TaskGraph, machine: TargetMachine) -> Schedule:
        kernel = SchedKernel(graph, machine)
        state = KernelState(kernel, scheduler_name=self.name)
        sl = kernel.priority_array(kernel.static_levels())
        heap = ReadyHeap(kernel, key=lambda i: (-sl[i], i))
        n_procs = machine.n_procs
        for _ in range(kernel.n):
            ti = heap.pop()
            duration = kernel.exec_time[ti]
            edges = kernel.in_edges[ti]
            # every in-edge's arrival on every processor, once per task
            rows = list(state.arrival_rows(ti))
            columns = list(zip(*rows)) if rows else [()] * n_procs
            holders = [
                {copy.proc for copy in state.placements_or_none(e.src)} for e in edges
            ]
            pred_ready: dict[int, list[float]] = {}
            best: tuple[float, int, float, list[Copy]] | None = None
            for proc in range(n_procs):
                est, dups = self._plan(
                    state, proc, duration, edges, list(columns[proc]), holders, pred_ready
                )
                if best is None or (est + duration, proc) < (best[0], best[1]):
                    best = (est + duration, proc, est, dups)
            assert best is not None
            _, proc, est, dups = best
            for name, start, finish in dups:
                state.add(name, proc, start, finish)
            state.place(ti, proc, est)
            heap.complete(ti)
        return state.sched

    # ------------------------------------------------------------------ #
    def _plan(
        self,
        state: KernelState,
        proc: int,
        duration: float,
        edges: list[TaskEdge],
        arrivals: list[float],
        holders: list[set[int]],
        pred_ready: dict[int, list[float]],
    ) -> tuple[float, list[Copy]]:
        """Earliest start on ``proc`` of a task with planned duplications.

        The task runs ``duration``; ``arrivals`` are its in-``edges``'
        arrivals on ``proc``, ``holders`` the processors holding a copy of
        each edge's source, and ``pred_ready`` memoizes predecessors'
        data-ready rows for the task being placed.  Returns ``(est,
        copies)`` where ``copies`` are the duplications on ``proc`` that
        must be committed for ``est`` to hold.
        """
        kernel, sched = state.kernel, state.sched
        est = sched.insertion_slot(proc, max(arrivals, default=0.0), duration)
        if not edges:
            return est, []
        copies: list[Copy] = []
        local: dict[str, float] = {}  # finish of each planned copy, by task
        occupancy: list[tuple[float, float]] | None = None
        for _ in range(self.max_dups_per_task):
            worst = max(arrivals)
            if worst <= _EPS:
                break
            crit = arrivals.index(worst)  # the first latest-arriving edge
            u = edges[crit].src
            if proc in holders[crit] or u in local:
                break  # the critical input is already local
            ui = kernel.index[u]
            u_ready = self._copy_ready(state, ui, proc, local, pred_ready)
            u_dur = kernel.exec_time[ui]
            if occupancy is None:
                u_start = sched.insertion_slot(proc, u_ready, u_dur)
                occupancy = _occupancy(state, proc)
            else:
                u_start = _earliest_slot(occupancy, u_ready, u_dur)
            u_finish = u_start + u_dur
            bisect.insort(occupancy, (u_start, u_finish))
            # only u's own edges can arrive earlier for the copy
            trial = [
                u_finish if e.src == u and u_finish < a else a
                for a, e in zip(arrivals, edges)
            ]
            new_est = _earliest_slot(occupancy, max(trial), duration)
            if not new_est < est - _EPS:
                break
            est, arrivals = new_est, trial
            copies.append((u, u_start, u_finish))
            local[u] = u_finish
        return est, copies

    @staticmethod
    def _copy_ready(
        state: KernelState,
        ui: int,
        proc: int,
        local: dict[str, float],
        pred_ready: dict[int, list[float]],
    ) -> float:
        """Data-ready time on ``proc`` of a copy of task ``ui``: off its
        memoized row while nothing is planned, else per edge with the
        planned copies (already on ``proc``: no message) counted in."""
        if not local:
            row = pred_ready.get(ui)
            if row is None:
                row = pred_ready[ui] = state.data_ready_row(ui)
            return row[proc]
        comm = state.kernel.comm_cost
        ready = 0.0
        for e in state.kernel.in_edges[ui]:
            arrival = min(
                s.finish + comm(s.proc, proc, e.size)
                for s in state.placements_or_none(e.src)
            )
            if local.get(e.src, arrival) < arrival:
                arrival = local[e.src]
            if arrival > ready:
                ready = arrival
        return ready
