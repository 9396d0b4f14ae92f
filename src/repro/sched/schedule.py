"""Schedule representation: the data behind the paper's Gantt charts.

A :class:`Schedule` maps each task of a :class:`~repro.graph.taskgraph.TaskGraph`
to one or more ``(processor, start, finish)`` placements ("or more" because
the duplication heuristic may run a task on several processors).  Schedules
also record the messages the scheduler planned, so communication can be drawn
on the Gantt chart and replayed by the simulator.
"""

from __future__ import annotations

import bisect
import sys
from typing import Container, Iterator, NamedTuple

from repro.errors import ScheduleError, check_finite
from repro.graph.taskgraph import TaskGraph
from repro.machine.machine import TargetMachine

_new = tuple.__new__


_PlacementFields = NamedTuple(
    "_PlacementFields", [("task", str), ("proc", int), ("start", float), ("finish", float)])


class Placement(_PlacementFields):
    """One execution of ``task`` on ``proc`` during ``[start, finish)``.

    A named tuple built by ``tuple.__new__``, so that a scheduler pays a
    tuple per placement: one chained comparison clears a valid record, and
    anything else meets the full checks, in their order and with their
    messages.  It compares equal to the plain tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, task: str, proc: int, start: float, finish: float) -> "Placement":
        try:
            valid = 0.0 <= start <= finish <= sys.float_info.max
        except TypeError:  # no number: the checks below raise as they always have
            valid = False
        if not valid:
            if start < 0:
                raise ScheduleError(f"task {task!r}: negative start {start}")
            if finish < start:
                raise ScheduleError(f"task {task!r}: finish {finish} before start {start}")
            check_finite(start, f"task {task!r}: start", ScheduleError)
            check_finite(finish, f"task {task!r}: finish", ScheduleError)
        return _new(cls, (task, proc, start, finish))

    @classmethod
    def _make(cls, fields) -> "Placement":  # what ``_replace`` builds: checked too
        return cls(*fields)

    @property
    def duration(self) -> float:
        return self.finish - self.start


_MessageFields = NamedTuple("_MessageFields", [
    ("src_task", str), ("dst_task", str), ("var", str), ("size", float), ("src_proc", int),
    ("dst_proc", int), ("start", float), ("finish", float), ("route", tuple[int, ...])])


class Message(_MessageFields):
    """A planned transfer for edge ``src_task -> dst_task``, built like a :class:`Placement`."""

    __slots__ = ()

    def __new__(
        cls, src_task: str, dst_task: str, var: str, size: float, src_proc: int,
        dst_proc: int, start: float, finish: float, route: tuple[int, ...] = (),
    ) -> "Message":
        try:
            valid = 0.0 <= start <= finish <= sys.float_info.max
        except TypeError:
            valid = False
        if not valid:
            if finish < start:
                raise ScheduleError(f"message {src_task}->{dst_task}: finish before start")
            check_finite(start, f"message {src_task}->{dst_task}: start", ScheduleError)
            check_finite(finish, f"message {src_task}->{dst_task}: finish", ScheduleError)
        return _new(cls, (src_task, dst_task, var, size, src_proc, dst_proc,
                          start, finish, route))

    @classmethod
    def _make(cls, fields) -> "Message":
        return cls(*fields)


class Schedule:
    """Task placements on a target machine, plus planned messages.

    Parameters
    ----------
    graph, machine:
        What is being scheduled and onto what.
    scheduler:
        Name of the heuristic that produced this schedule (for reports).
    """

    def __init__(self, graph: TaskGraph, machine: TargetMachine, scheduler: str = ""):
        self.graph = graph
        self.machine = machine
        self.scheduler = scheduler
        self._by_proc: dict[int, list[Placement]] = {p: [] for p in machine.procs()}
        # The one per-task index: each task's copies ordered by (finish, proc)
        # at insert, so lookups never sort.  KernelState reads it live.
        self._by_task: dict[str, list[Placement]] = {}
        # Parallel per-processor arrays kept in lockstep with _by_proc:
        # placement start times (for O(log n) insertion-point search) and
        # prefix maxima of finish times (for O(log n) idle-gap search).
        self._starts: dict[int, list[float]] = {p: [] for p in machine.procs()}
        self._pmax: dict[int, list[float]] = {p: [] for p in machine.procs()}
        self.messages: list[Message] = []

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add(self, task: str, proc: int, start: float, finish: float) -> Placement:
        """Place (a copy of) ``task`` on ``proc``; overlap is checked here."""
        if task not in self.graph:
            raise ScheduleError(f"task {task!r} is not in graph {self.graph.name!r}")
        if proc not in self._by_proc:
            raise ScheduleError(
                f"processor {proc} out of range for machine {self.machine.name!r}"
            )
        entry = Placement(task, proc, start, finish)
        timeline = self._by_proc[proc]
        starts = self._starts[proc]
        idx = bisect.bisect_left(starts, start)
        # After the zero-width placements that share its start, so a wide
        # placement there never reads one of them as its overlap.
        while (idx < len(timeline) and starts[idx] == start
               and timeline[idx].finish <= start + 1e-9):
            idx += 1
        if idx > 0 and timeline[idx - 1].finish > start + 1e-9:
            raise ScheduleError(
                f"task {task!r} at [{start}, {finish}) overlaps "
                f"{timeline[idx - 1].task!r} on processor {proc}"
            )
        if idx < len(timeline) and timeline[idx].start < finish - 1e-9:
            raise ScheduleError(
                f"task {task!r} at [{start}, {finish}) overlaps "
                f"{timeline[idx].task!r} on processor {proc}"
            )
        copies = self._by_task.get(task)
        if copies is not None and any(abs(p.start - start) < 1e-12 and p.proc == proc
                                      for p in copies):
            raise ScheduleError(f"task {task!r} placed twice at the same slot")
        timeline.insert(idx, entry)
        starts.insert(idx, start)
        pmax = self._pmax[proc]
        if idx == len(pmax):
            pmax.append(finish if not pmax else max(pmax[-1], finish))
        else:
            pmax.insert(idx, 0.0)
            running = pmax[idx - 1] if idx else 0.0
            for j in range(idx, len(timeline)):
                if timeline[j].finish > running:
                    running = timeline[j].finish
                pmax[j] = running
        if copies is None:
            self._by_task[task] = [entry]
        else:
            # Right-biased, so an (unlikely) tie keeps insertion order — the
            # order a stable sort of the appended copies would give.
            bisect.insort(copies, entry, key=lambda e: (e.finish, e.proc))
        return entry

    def add_message(self, message: Message) -> None:
        self.messages.append(message)

    def take_prefix(self, source: "Schedule", tasks: Container[str]) -> None:
        """Fill this empty schedule with ``source``'s placements of ``tasks``
        and its messages into them, each list in ``source``'s order.

        What :meth:`add` would build from those placements added in the
        order ``source`` got them, when they neither overlap nor duplicate
        a task: a timeline built by :meth:`add` keeps its placements'
        relative order whatever else was inserted around them.  The frozen
        placements and messages are shared; every list is new.
        """
        for proc, timeline in source._by_proc.items():
            kept = [e for e in timeline if e.task in tasks]
            self._by_proc[proc].extend(kept)
            self._starts[proc].extend(e.start for e in kept)
            pmax, running = self._pmax[proc], 0.0
            for e in kept:
                if e.finish > running:
                    running = e.finish
                pmax.append(running)
        self._by_task.update(
            (task, list(copies))
            for task, copies in source._by_task.items()
            if task in tasks
        )
        self.messages.extend(m for m in source.messages if m.dst_task in tasks)

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def __contains__(self, task: str) -> bool:
        return task in self._by_task

    def __iter__(self) -> Iterator[Placement]:
        for proc in sorted(self._by_proc):
            yield from self._by_proc[proc]

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_task.values())

    def _copies(self, task: str) -> list[Placement]:
        copies = self._by_task.get(task)
        if copies is None:
            raise ScheduleError(f"task {task!r} has not been scheduled")
        return copies

    def placements(self, task: str) -> list[Placement]:
        """Every copy of ``task`` (more than one only under duplication),
        earliest finish first, ties by processor."""
        return list(self._copies(task))

    def primary(self, task: str) -> Placement:
        """The earliest-finishing copy of ``task``."""
        return self._copies(task)[0]

    def proc_of(self, task: str) -> int:
        return self.primary(task).proc

    def assignment(self) -> dict[str, int]:
        """task -> processor of its primary copy."""
        return {t: self.primary(t).proc for t in self._by_task}

    def on_proc(self, proc: int) -> list[Placement]:
        if proc not in self._by_proc:
            raise ScheduleError(f"processor {proc} out of range")
        return list(self._by_proc[proc])

    def timeline(self, proc: int) -> list[Placement]:
        """The live start-ordered timeline of ``proc`` — do NOT mutate.

        Unlike :meth:`on_proc` this does not copy, so the scheduler inner
        loops can read timelines without per-call allocation.
        """
        if proc not in self._by_proc:
            raise ScheduleError(f"processor {proc} out of range")
        return self._by_proc[proc]

    def proc_tail(self, proc: int) -> float:
        """Finish time of the last-by-start placement on ``proc`` (0 if idle)."""
        timeline = self._by_proc[proc]
        return timeline[-1].finish if timeline else 0.0

    def horizon(self, proc: int) -> float:
        """Latest finish on ``proc`` (0 if idle): where a task that fits no
        gap starts, at the earliest."""
        pmax = self._pmax[proc]
        return pmax[-1] if pmax else 0.0

    def insertion_slot(self, proc: int, ready: float, duration: float) -> float:
        """Earliest gap start for a ``duration`` task ready at ``ready``.

        Identical semantics (including the 1e-12 fit tolerance) to scanning
        the whole timeline for the first idle gap, but skips straight to the
        first placement whose start a gap could possibly precede, using the
        parallel start array and the prefix-max finish array — O(log n)
        plus the short scan over actually-plausible gaps.
        """
        timeline = self._by_proc[proc]
        if not timeline:
            return ready
        starts = self._starts[proc]
        pmax = self._pmax[proc]
        # A gap ending at starts[k] can only fit if
        # max(ready, prev_end) + duration <= starts[k] + 1e-12, and since
        # max(ready, prev_end) >= ready, every k with
        # ready + duration > starts[k] + 1e-12 is certainly rejected.
        k = bisect.bisect_left(starts, ready + duration - 1e-12)
        while k > 0 and not (ready + duration > starts[k - 1] + 1e-12):
            k -= 1  # float-boundary guard: only skip provably rejected gaps
        prev_end = pmax[k - 1] if k else 0.0
        for j in range(k, len(timeline)):
            start = ready if ready > prev_end else prev_end
            if start + duration <= starts[j] + 1e-12:
                return start
            finish = timeline[j].finish
            if finish > prev_end:
                prev_end = finish
        return ready if ready > prev_end else prev_end

    # ------------------------------------------------------------------ #
    # aggregate measures
    # ------------------------------------------------------------------ #
    @property
    def n_procs(self) -> int:
        return self.machine.n_procs

    def makespan(self) -> float:
        return max((e.finish for v in self._by_proc.values() for e in v), default=0.0)

    def proc_finish(self, proc: int) -> float:
        timeline = self.on_proc(proc)
        return timeline[-1].finish if timeline else 0.0

    def busy_time(self, proc: int) -> float:
        return sum(e.duration for e in self.on_proc(proc))

    def idle_time(self, proc: int) -> float:
        """Idle time on ``proc`` before the global makespan."""
        return self.makespan() - self.busy_time(proc)

    def procs_used(self) -> list[int]:
        return [p for p, v in sorted(self._by_proc.items()) if v]

    def gaps(self, proc: int) -> list[tuple[float, float]]:
        """Idle intervals on ``proc`` between time 0 and its last finish."""
        out: list[tuple[float, float]] = []
        t = 0.0
        for e in self.on_proc(proc):
            if e.start > t + 1e-12:
                out.append((t, e.start))
            t = max(t, e.finish)
        return out

    def has_duplication(self) -> bool:
        return any(len(v) > 1 for v in self._by_task.values())

    def scheduled_tasks(self) -> list[str]:
        return sorted(self._by_task)

    def is_complete(self) -> bool:
        """Every graph task has at least one placement."""
        return all(t in self._by_task for t in self.graph.task_names)

    def derived_name(self, suffix: str) -> str:
        """Scheduler name for a re-timing of this schedule; ``suffix`` is
        appended once however many times the result is re-timed again."""
        base = self.scheduler or "fixed"
        return base if base.endswith(suffix) else base + suffix

    def __repr__(self) -> str:
        return (
            f"Schedule({self.scheduler or 'unnamed'!r}, graph={self.graph.name!r}, "
            f"machine={self.machine.name!r}, makespan={self.makespan():.3f})"
        )
