"""Incremental rescheduling: keep the untouched prefix of a prior schedule.

The paper's principle 4 demands instant feedback while a non-programmer
edits a design — but every one-node edit used to pay for a full
from-scratch reschedule.  This module diffs the edited graph against the
previous ``(TaskGraph, Schedule)`` pair by content, finds the **dirty** task
set (edited nodes, their downstream cone, and everything scheduled after
them on the same processors), keeps the clean prefix of the schedule
verbatim (:func:`repro.sched.core.replay_prefix`), and re-times only the
dirty suffix with the kernel's one list pass
(:func:`repro.sched.core.run_priority_list`, started from the replayed
prefix) — this module owns the diff and the dirty closure, not a loop.

Correctness story
-----------------
* The dirty set is *descendant-closed* (the clean set is ancestor-closed:
  every predecessor of a clean task is clean) and *suffix-closed per
  processor* (on each processor the clean tasks form a prefix of the
  previous start-ordered timeline).  Clean tasks can therefore be replayed
  verbatim before any dirty task is placed: their data-ready floors and
  processor tails are unchanged, so the previous placements stay feasible.
* :func:`full_reschedule` is the deterministic reference: the same engine,
  but every clean task's floor is *recomputed* and the previous start is
  kept only while it stays feasible under the shared tolerance
  (:func:`repro.approx.approx_ge` — the same criterion rule SCH205
  checks).  The closure invariants make ``data_ready <= previous_start``
  (the uncontended floor) and ``proc_tail <= previous_start`` (the
  per-processor prefix), so the recomputed floor never exceeds the copied
  start by more than float-evaluation-order noise — which the tolerance
  absorbs, exactly as the independent checker would.  The recomputed
  placement therefore provably equals the copied one, and the conformance
  oracle byte-compares the two schedules on every fuzz case to keep the
  proof honest.
* When nothing changed (equal graph content hashes) both entry points
  short-circuit to the previous schedule object — byte-identical by
  construction.
* Duplication (``dsh``) breaks the one-placement-per-task bookkeeping, so a
  duplicated previous schedule falls back to treating every task as dirty
  with its primary assignment — still deterministic, still feasible.

Dirty tasks that existed before keep their previous processor (the edit
loop's intent is "same mapping, new timing"); brand-new tasks are placed
greedily on their earliest-finish processor.  The result is always feasible
(every rule in :mod:`repro.lint.schedrules` holds by construction) for any
feasible input schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.approx import approx_ge
from repro.errors import ScheduleError
from repro.graph.taskgraph import TaskGraph
from repro.sched.core import KernelState, SchedKernel, replay_prefix, run_priority_list
from repro.sched.schedule import Schedule

#: Scheduler-name suffix marking incrementally re-timed schedules.
NAME_SUFFIX = "+incremental"


def task_signature(graph: TaskGraph, task: str) -> tuple:
    """The scheduling-relevant content of one task: work + incoming edges.

    Labels, program text, and metadata do not influence placement, so edits
    to them dirty nothing; a work or in-edge change dirties the task.
    """
    return (
        graph.work(task),
        tuple(sorted((e.src, e.var, e.size) for e in graph.in_edges(task))),
    )


def dirty_tasks(prev_graph: TaskGraph, new_graph: TaskGraph) -> set[str]:
    """Tasks of ``new_graph`` whose scheduling content differs from
    ``prev_graph`` (including tasks that did not exist before)."""
    prev_names = set(prev_graph.task_names)
    return {
        t
        for t in new_graph.task_names
        if t not in prev_names
        or task_signature(new_graph, t) != task_signature(prev_graph, t)
    }


def dirty_closure(
    prev_schedule: Schedule, new_graph: TaskGraph, seed: set[str]
) -> set[str]:
    """Close ``seed`` under descendants and same-processor-later placement.

    Two rules, iterated to a fixed point:

    1. every ``new_graph`` descendant of a dirty task is dirty (its data
       arrival may move);
    2. on each processor, every task placed after a dirty task in the
       previous schedule is dirty (re-timing its predecessor-in-timeline may
       move the processor tail underneath it).

    The complement — the clean set — is then ancestor-closed and a
    start-order prefix of every processor timeline, which is exactly what
    verbatim prefix reuse needs.
    """
    reach = new_graph.transitive_closure()
    dirty: set[str] = set()
    for t in seed:
        dirty.add(t)
        dirty |= reach[t]
    new_names = set(new_graph.task_names)
    timelines: list[list[str]] = []
    for proc in range(prev_schedule.n_procs):
        names = [e.task for e in prev_schedule.timeline(proc) if e.task in new_names]
        if names:
            timelines.append(names)
    changed = True
    while changed:
        changed = False
        for timeline in timelines:
            poisoned = False
            for t in timeline:
                if t in dirty:
                    poisoned = True
                elif poisoned:
                    dirty.add(t)
                    dirty |= reach[t]
                    changed = True
                    poisoned = True
    return dirty & new_names


@dataclass(frozen=True)
class IncrementalResult:
    """What :func:`incremental_reschedule` did and what it produced."""

    schedule: Schedule
    n_tasks: int
    n_dirty: int
    n_reused: int
    unchanged: bool = False
    fallback: str | None = None

    @property
    def reused_fraction(self) -> float:
        return self.n_reused / self.n_tasks if self.n_tasks else 1.0


def _analyse(
    prev_schedule: Schedule, new_graph: TaskGraph
) -> tuple[set[str], str | None]:
    """The dirty set for an edit, plus the fallback reason if any."""
    prev_graph = prev_schedule.graph
    if not prev_schedule.is_complete():
        raise ScheduleError(
            "incremental rescheduling needs a complete previous schedule "
            f"(graph {prev_graph.name!r})"
        )
    if prev_schedule.has_duplication():
        # Duplicated copies break the one-slot-per-task timeline argument;
        # re-time everything against the primary assignment instead.
        return set(new_graph.task_names), "duplication"
    seed = dirty_tasks(prev_graph, new_graph)
    return dirty_closure(prev_schedule, new_graph, seed), None


def _retime(
    prev_schedule: Schedule,
    new_graph: TaskGraph,
    dirty: set[str],
    *,
    reuse_prefix: bool,
) -> Schedule:
    """The shared engine behind both entry points.

    ``reuse_prefix=True`` copies clean placements verbatim;
    ``reuse_prefix=False`` recomputes each clean floor and keeps the
    previous start only while it stays feasible under the shared tolerance
    (the checker's own criterion).  The two must produce byte-identical
    schedules — that equality is the module's contract, fuzzed by the
    ``incremental`` conformance oracle.
    """
    kernel = SchedKernel(new_graph, prev_schedule.machine)
    state = KernelState(kernel, prev_schedule.derived_name(NAME_SUFFIX))

    def keep_if_feasible(ti: int, proc: int, prev_start: float) -> float:
        # Keep the previous start while it remains feasible — the same
        # approx criterion SCH201/SCH205 apply.  Different heuristics
        # group the arrival arithmetic differently, so the recomputed
        # floor may sit a few ULPs above a perfectly feasible start.
        floor = state.earliest_start(ti, proc)
        return prev_start if approx_ge(prev_start, floor) else floor

    # Phase 1 — replay the clean prefix.
    clean = replay_prefix(
        state,
        prev_schedule,
        (t for t in new_graph.task_names if t not in dirty),
        start_of=None if reuse_prefix else keep_if_feasible,
    )

    def pick(ti: int) -> tuple[int, float]:
        task = kernel.tasks[ti]
        if task not in prev_schedule:  # brand-new: earliest-finish processor
            return state.best_processor(ti)
        proc = prev_schedule.primary(task).proc
        return proc, state.earliest_start(ti, proc)

    # Phase 2 — re-time the dirty suffix, highest b-level first (the same
    # release order as clustering.assignment_to_schedule).
    prio = kernel.priority_array(kernel.b_levels_comm())
    return run_priority_list(
        kernel, state, key=lambda i: (-prio[i], i), pick_processor=pick, placed=clean
    )


def incremental_reschedule(
    prev_schedule: Schedule, new_graph: TaskGraph, new_hash: str | None = None
) -> IncrementalResult:
    """Reschedule ``new_graph`` by editing ``prev_schedule`` in place(ment).

    The machine is taken from the previous schedule — an edited *machine*
    is a new scheduling problem, not an incremental one.  Returns the new
    schedule plus reuse accounting; byte-identical to
    :func:`full_reschedule` always, and to the previous schedule itself
    when the graph content is unchanged.  ``new_hash`` is
    ``new_graph.content_hash()`` from a caller that already holds it.
    """
    n_tasks = len(new_graph)
    new_hash = new_hash or new_graph.content_hash()
    if new_hash == prev_schedule.graph.content_hash():
        return IncrementalResult(
            prev_schedule, n_tasks, 0, n_tasks, unchanged=True
        )
    dirty, fallback = _analyse(prev_schedule, new_graph)
    schedule = _retime(prev_schedule, new_graph, dirty, reuse_prefix=True)
    return IncrementalResult(
        schedule,
        n_tasks,
        len(dirty),
        n_tasks - len(dirty),
        fallback=fallback,
    )


def full_reschedule(prev_schedule: Schedule, new_graph: TaskGraph) -> Schedule:
    """The from-scratch reference: same engine, every start recomputed.

    Exists so equivalence is checkable — ``incremental_reschedule`` must
    match this byte for byte on every input.
    """
    if new_graph.content_hash() == prev_schedule.graph.content_hash():
        return prev_schedule
    dirty, _ = _analyse(prev_schedule, new_graph)
    return _retime(prev_schedule, new_graph, dirty, reuse_prefix=False)
