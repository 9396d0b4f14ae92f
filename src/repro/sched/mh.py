"""The Mapping Heuristic (MH) of El-Rewini & Lewis — reference [1] of the paper.

MH is the scheduler Banger uses: it "finds the shortest elapsed execution
time schedule for a specific target machine" by modelling the machine's
interconnection network explicitly.  Messages are routed hop by hop over the
topology's links; each link can carry one message at a time, so the heuristic
sees (and avoids) network *contention*, which is what distinguishes MH from
machine-oblivious list scheduling.

Algorithm per step:

1. among ready tasks pick the one with the highest machine-aware b-level;
2. for the processors in ascending order of their uncontended finish lower
   bound, tentatively route all incoming messages over the link timelines
   and compute the task's earliest start, until the next bound cannot win;
3. commit the task to the best processor and reserve its messages' links.

With ``contention=False`` links are infinitely wide and MH reduces to a
routed-cost list scheduler (useful as an ablation).

This implementation runs on the shared :mod:`repro.sched.core` kernel:
ready tasks come from an incremental :class:`~repro.sched.core.ReadyHeap`,
execution times are precomputed, the lower bounds of step 2 come off one
:meth:`~repro.sched.core.KernelState.data_ready_row` per task, and which
link timelines a message crosses is read off the machine's compiled tables.
Contention only ever delays arrivals, so a candidate's true finish is at
least its bound and the search may stop at the first bound that already
loses — whatever the order, the least ``(finish, processor)`` is the same
one.  Results are byte-identical to the pre-kernel scheduler.
"""

from __future__ import annotations

import bisect

from repro.graph.taskgraph import TaskGraph
from repro.machine.machine import TargetMachine
from repro.sched.base import Scheduler
from repro.sched.core import KernelState, ReadyHeap, SchedKernel
from repro.sched.schedule import Message, Schedule

class LinkTimeline:
    """Busy intervals of one link, with earliest-fit reservation.

    Intervals are kept in *canonical merged form*: sorted, non-overlapping,
    and never touching (a reservation that abuts an existing interval is
    coalesced into it).  Only the link's free-time set matters to
    :meth:`earliest_fit`, and merging preserves it exactly — so results are
    identical to an unmerged list while a saturated link collapses into a
    handful of busy blocks.  A message injected at or after the link's last
    busy moment (the common monotone case) is an O(1) append.
    """

    def __init__(self) -> None:
        self._intervals: list[tuple[float, float]] = []

    def earliest_fit(self, not_before: float, duration: float) -> float:
        """Earliest ``t >= not_before`` with the link free for ``duration``."""
        if duration <= 0:
            return not_before
        intervals = self._intervals
        if not intervals or not_before >= intervals[-1][1]:
            return not_before
        idx = bisect.bisect_left(intervals, (not_before, float("-inf")))
        t = not_before
        if idx > 0 and intervals[idx - 1][1] > t:
            t = intervals[idx - 1][1]
        for i in range(idx, len(intervals)):
            start, end = intervals[i]
            if start >= t + duration:
                return t  # the gap before interval i fits
            if end > t:
                t = end
        return t

    def reserve(self, start: float, duration: float) -> None:
        if duration <= 0:
            return
        intervals = self._intervals
        end = start + duration
        if not intervals or start > intervals[-1][1]:
            intervals.append((start, end))
            return
        if start == intervals[-1][1]:
            intervals[-1] = (intervals[-1][0], end)
            return
        idx = bisect.bisect_left(intervals, (start, float("-inf")))
        lo = idx
        if lo > 0 and intervals[lo - 1][1] >= start:
            lo -= 1
            start = intervals[lo][0]
            if intervals[lo][1] > end:
                end = intervals[lo][1]
        hi = idx
        while hi < len(intervals) and intervals[hi][0] <= end:
            if intervals[hi][1] > end:
                end = intervals[hi][1]
            hi += 1
        intervals[lo:hi] = [(start, end)]


class _Network:
    """Per-link timelines for an entire machine.

    Which timelines a ``(src, dst)`` message crosses is read off the
    machine's compiled tables (:meth:`CompiledTopology.link_ids` — on a
    shared medium every hop is the one timeline), so the per-transit cost
    is the hop walk itself, not routing.
    """

    def __init__(self, kernel: SchedKernel):
        params = kernel.machine.params
        self._startup = params.msg_startup
        self._latency = params.hop_latency
        self._rate = params.transmission_rate
        self._n_procs = kernel.compiled.n_procs
        n_links, self._crossed = kernel.compiled.link_ids()
        self._timelines = [LinkTimeline() for _ in range(n_links)]

    def transit(
        self,
        src: int,
        dst: int,
        size: float,
        available: float,
        commit: bool,
    ) -> float:
        """Arrival time of a message injected at ``available`` from src to dst.

        Hop-by-hop store-and-forward over the route's links, paying the
        message startup once at injection.  When ``commit`` is False the
        link timelines are left untouched (tentative evaluation).
        """
        if src == dst:
            return available
        t = available + self._startup
        hop_time = self._latency + size / self._rate
        timelines = self._timelines
        crossed = self._crossed[src * self._n_procs + dst]
        starts: list[float] = []
        for link in crossed:
            # (earliest_fit's own first exit, without the call: nothing on
            # the link at or after ``t``)
            intervals = timelines[link]._intervals
            if intervals and t < intervals[-1][1]:
                t = timelines[link].earliest_fit(t, hop_time)
            starts.append(t)
            t += hop_time
        if commit:
            for link, start in zip(crossed, starts):
                timelines[link].reserve(start, hop_time)
        return t


class MHScheduler(Scheduler):
    """El-Rewini & Lewis's Mapping Heuristic with link contention.

    Parameters
    ----------
    contention:
        Model links as single-message resources (the real MH).  When False,
        messages never queue — pure routed-cost scheduling.
    """

    name = "mh"

    def __init__(self, contention: bool = True):
        self.contention = contention
        if not contention:
            self.name = "mh-nc"

    def schedule(self, graph: TaskGraph, machine: TargetMachine) -> Schedule:
        kernel = SchedKernel(graph, machine)
        state = KernelState(kernel, scheduler_name=self.name)
        network = _Network(kernel) if self.contention else None

        prio = kernel.priority_array(kernel.b_levels_comm())
        heap = ReadyHeap(kernel, key=lambda i: (-prio[i], i))
        for _ in range(kernel.n):
            ti = heap.pop()
            proc = self._best_proc(state, network, ti)
            self._commit(state, network, ti, proc)
            heap.complete(ti)
        return state.sched

    # ------------------------------------------------------------------ #
    @staticmethod
    def _finish_bounds(state: KernelState, ti: int) -> list[float]:
        """Per processor, the finish of task ``ti`` if no message queued for
        a link: off one data-ready row instead of a cost call per (edge,
        processor).  Without contention it is the finish itself."""
        duration = state.kernel.exec_time[ti]
        return [
            (ready if ready > tail else tail) + duration
            for ready, tail in zip(state.data_ready_row(ti), state.tails)
        ]

    def _best_proc(self, state: KernelState, network: _Network | None, ti: int) -> int:
        bounds = self._finish_bounds(state, ti)
        if network is None:
            return bounds.index(min(bounds))
        kernel, tails = state.kernel, state.tails
        duration = kernel.exec_time[ti]
        inputs = [(e.size, state.primary(e.src)) for e in kernel.in_edges[ti]]
        transit = network.transit
        best: tuple[float, int] | None = None
        # Contention can only delay arrivals, so a candidate's true finish is
        # at least its bound.  Walked in ascending bound order (ties by
        # processor: the sort is stable), the first candidate that cannot win
        # even without any queueing delay ends the search — and the
        # (finish, proc) minimum found is the one any order would find.
        for proc in sorted(range(len(bounds)), key=bounds.__getitem__):
            if best is not None and bounds[proc] > best[0] + 1e-9 * (1.0 + abs(best[0])):
                break
            ready = 0.0
            for size, src in inputs:
                arrival = transit(src.proc, proc, size, src.finish, False)
                if arrival > ready:
                    ready = arrival
            tail = tails[proc]
            finish = (ready if ready > tail else tail) + duration
            if best is None or (finish, proc) < best:
                best = (finish, proc)
        assert best is not None
        return best[1]

    def _commit(
        self, state: KernelState, network: _Network | None, ti: int, proc: int
    ) -> None:
        kernel = state.kernel
        task = kernel.tasks[ti]
        comm = kernel.comm_cost
        # recompute per-edge arrivals while committing link reservations, so
        # message records carry the *actual* (contention-delayed) times
        ready = 0.0
        messages: list[Message] = []
        for edge in kernel.in_edges[ti]:
            src = state.primary(edge.src)
            if network is not None:
                arrival = network.transit(
                    src.proc, proc, edge.size, src.finish, commit=True
                )
            else:
                arrival = src.finish + comm(src.proc, proc, edge.size)
            if arrival > ready:
                ready = arrival
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
                        route=kernel.route(src.proc, proc),
                    )
                )
        tail = state.tails[proc]
        start = ready if ready > tail else tail
        state.add(task, proc, start, start + kernel.exec_time[ti])
        for message in messages:
            state.sched.add_message(message)
