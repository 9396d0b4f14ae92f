"""Incremental rescheduling: keep the untouched prefix of a prior schedule.

The paper's principle 4 demands instant feedback while a non-programmer
edits a design — but every one-node edit used to pay for a full
from-scratch reschedule.  This module diffs the edited graph against the
previous schedule's graph task by task (:func:`same_signature`), finds the
**dirty** task set (edited nodes, their downstream cone, and everything
scheduled after them on the same processors), keeps the clean prefix of the
schedule verbatim (:func:`repro.sched.core.replay_prefix`), and re-times
only the dirty suffix with the kernel's one list pass
(:func:`repro.sched.core.run_priority_list`, started from the replayed
prefix) — this module owns the diff and the dirty closure, not a loop.

The previous schedule is a :class:`Schedule`, or the :class:`Replay` of one
that the daemon's request memo keeps for a base a client posts again and
again: every base placement re-placed once, messages derived, from which
each later edit forks its clean prefix instead of placing it task by task.

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
* A fork off the full replay equals :func:`replay_prefix` of the clean
  set when the new graph has the base graph's structure
  (:meth:`~repro.graph.taskgraph.TaskGraph.same_structure`: the same
  tasks in the same order, each task's in- and out-edges equal, in the
  same order).  Then both topological orders are equal, so the replay
  places the clean tasks in the very order the prefix replay does — by
  previous start, ties topological — interleaved with dirty ones.  Each
  clean task is placed at its previous start with its clean, equal work,
  and its predecessors, all clean and already placed, have the same single
  copies, so it gets the same placement and the same messages.
  :meth:`Schedule.add` inserts by start, after the zero-width placements
  that share its start and before any other, so where one placement
  lands against another depends on those two alone, and a timeline keeps
  its clean placements' relative order whatever dirty ones land among
  them: filtering each replayed timeline, the task index
  and the message list down to the clean tasks
  (:meth:`Schedule.take_prefix`) gives the prefix replay's schedule.  A
  placement the prefix replay would refuse for overlap is refused by the
  full replay too (a clean neighbour's overlap cannot hide behind a dirty
  placement between them, which would have overlapped it first); a base
  the full replay refuses is not forked.  Edge sizes are compared type for
  type, because a message quotes its edge's size as it is.
* Only dirty tasks are ever released to the list pass, so only their
  b-levels are computed; the dirty set is descendant-closed, so each is
  exactly the whole-graph pass's level.
* When nothing changed (equal graph content hashes) both entry points
  short-circuit to the previous schedule object — byte-identical by
  construction.  A changed signature is changed content, so only an empty
  diff pays for the two hashes.  A kept replay holds the base graph's, so
  an empty diff against it pays for one hash.
* A kept replay also holds the last graph that fitted and its dirty seed.
  A graph over that graph's very edges (a patched flat graph) can differ
  from the base only in that seed or in a task whose spec is another
  object, so only those are diffed.  Those changed tasks are found once
  per edit and handed on with the :class:`Fork`, so what a reply reads
  off the fork's graph is read again only for them.  The replay keeps
  that graph's scheduling kernel too, and the next fork over its edges
  derives its own from it (:meth:`SchedKernel.derived`): the same task
  tables, in-edges, successors, compiled topology and cost memos — all
  read off edges and machine, both the same — and the same execution
  times but for the changed tasks', computed again.  A graph over other
  edges gets a kernel built for it, so a derived kernel is always the
  kernel a build would give.
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
from typing import TYPE_CHECKING

from repro.approx import approx_ge
from repro.errors import ReproError, ScheduleError
from repro.graph.taskgraph import TaskGraph
from repro.lru import LEDGER
from repro.sched.core import KernelState, SchedKernel, replay_prefix, run_priority_list
from repro.sched.schedule import Schedule

if TYPE_CHECKING:
    from repro.sched.serialize import ForkReply

#: Scheduler-name suffix marking incrementally re-timed schedules.
NAME_SUFFIX = "+incremental"

#: Re-times whose clean prefix was forked off a kept full replay, and those
#: that replayed it placement by placement.
LEDGER.declare(retime_forked=0, retime_replayed=0)


def same_signature(a: TaskGraph, b: TaskGraph, task: str) -> bool:
    """Whether ``task`` has the same scheduling-relevant content in both:
    its work and its incoming edges ``(src, var, size)`` as a multiset.

    Labels, program text, and metadata do not influence placement, so edits
    to them dirty nothing; a work or in-edge change dirties the task.  The
    in-edges are sorted only when they differ in order.
    """
    if a.work(task) != b.work(task):
        return False
    ins_a = [(e.src, e.var, e.size) for e in a.in_edges(task)]
    ins_b = [(e.src, e.var, e.size) for e in b.in_edges(task)]
    return ins_a == ins_b or sorted(ins_a) == sorted(ins_b)


def dirty_tasks(prev_graph: TaskGraph, new_graph: TaskGraph) -> set[str]:
    """Tasks of ``new_graph`` whose scheduling content differs from
    ``prev_graph`` (including tasks that did not exist before)."""
    prev_names = set(prev_graph.task_names)
    return {
        t
        for t in new_graph.task_names
        if t not in prev_names or not same_signature(prev_graph, new_graph, t)
    }


def dirty_closure(
    prev_schedule: Schedule, new_graph: TaskGraph, seed: set[str]
) -> set[str]:
    """Close ``seed`` (tasks of ``new_graph``) under descendants and
    same-processor-later placement.

    Two rules, iterated to a fixed point:

    1. every ``new_graph`` descendant of a dirty task is dirty (its data
       arrival may move);
    2. on each processor, every task placed after a dirty task in the
       previous schedule is dirty (re-timing its predecessor-in-timeline may
       move the processor tail underneath it).

    Descendants are walked from each task as it turns dirty and the walk
    stops at tasks already dirty, so the cone costs what it contains, not a
    whole-graph closure.  The complement — the clean set — is then
    ancestor-closed and a start-order prefix of every processor timeline,
    which is exactly what verbatim prefix reuse needs.
    """
    dirty: set[str] = set()

    def spread(task: str) -> None:
        stack = [task]
        while stack:
            t = stack.pop()
            if t not in dirty:
                dirty.add(t)
                stack.extend(new_graph.successors(t))

    for t in seed:
        spread(t)
    timelines: list[list[str]] = []
    for proc in range(prev_schedule.n_procs):
        names = [e.task for e in prev_schedule.timeline(proc) if e.task in new_graph]
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
                    spread(t)
                    changed = True
    return dirty


class Replay:
    """The full replay of a base's placements, built on first demand.

    Every placement of ``placed`` re-placed by :func:`replay_prefix` over
    the base's own graph and machine, messages derived: what re-timing an
    edit would replay if every task were clean.  ``None`` when the base
    cannot be replayed whole — incomplete, duplicated, or refused by
    :meth:`Schedule.add` — and then an edit replays its clean prefix as
    if there were no replay.  The replay is never mutated: a re-time
    copies its lists (:meth:`Schedule.take_prefix`).  Beside it are kept
    what every edit against the base reads again: the base graph's hash,
    the last graph that fitted with its dirty seed and its kernel, which
    the next fork derives its own from, and what the forks' replies reuse.
    """

    def __init__(self, placed: Schedule):
        self.placed = placed
        self._schedule: Schedule | None = None
        self._built = False
        self._fitted: TaskGraph | None = None
        self._seed: set[str] = set()
        self._fits = 0
        self._kernel: SchedKernel | None = None  # the fitted graph's
        self._base_hash: str | None = None
        #: What the replies of the forks reuse, made and kept by
        #: :func:`repro.sched.serialize.fork_reply`.
        self.reply: ForkReply | None = None

    def __call__(self) -> Schedule | None:
        if not self._built:
            self._built = True
            self._schedule = _replay_all(self.placed)
        return self._schedule

    def diff(self, graph: TaskGraph) -> tuple[list[str], set[str]] | None:
        """``(changed, seed)`` when ``graph`` is over the very edges of the
        last graph that fitted: ``changed`` are the tasks whose spec is not
        that graph's (:meth:`TaskGraph.respecified`), and ``seed`` is
        :func:`dirty_tasks` against the base graph, as only a task in that
        graph's seed or in ``changed`` can differ from the base.  ``None``
        for any other graph."""
        changed = None if self._fitted is None else graph.respecified(self._fitted)
        if changed is None:
            return None
        base = self.placed.graph
        return changed, {t for t in self._seed.union(changed)
                         if not same_signature(base, graph, t)}

    def fit(self, graph: TaskGraph, seed: set[str], changed: list[str] | None) -> Fork | None:
        """The :class:`Fork` of ``graph`` — whose dirty seed is ``seed``,
        and ``changed`` as :meth:`diff` found it — when it has the base
        graph's structure (:meth:`TaskGraph.same_structure`), the condition
        for forking; ``None`` when it has not.  The graph that fits is kept
        with its seed and its kernel, so a graph over its very edges — a
        patched flat graph — fits without comparing an edge, and its kernel
        is derived from the kept one (:meth:`SchedKernel.derived`), which
        is the kernel of the graph ``changed`` is named against.  Any other
        graph that fits gets a kernel built for it."""
        if changed is None and not self.placed.graph.same_structure(graph):
            return None
        if changed is None:
            kernel = SchedKernel(graph, self.placed.machine)
        else:
            kernel = self._kernel.derived(graph, changed)
        self._fitted, self._seed, self._kernel = graph, seed, kernel
        self._fits += 1
        return Fork(self, self._fits, changed, kernel)

    def base_hash(self) -> str:
        """The base graph's content hash, taken the first time it is asked
        for: the base never changes."""
        if self._base_hash is None:
            self._base_hash = self.placed.graph.content_hash()
        return self._base_hash


@dataclass(frozen=True)
class Fork:
    """The ``n``-th graph that fitted a kept :class:`Replay`, whose clean
    prefix is forked off it.  ``changed`` are the tasks whose spec is not
    the ``n - 1``-th graph's, over whose very edges it is; ``None`` when it
    is the first or over other edges.  What is read off one fork's graph
    holds for the next but for ``changed``.  ``kernel`` is its graph's
    scheduling kernel on the base's machine."""

    replay: Replay
    n: int
    changed: list[str] | None
    kernel: SchedKernel


def _replay_all(placed: Schedule) -> Schedule | None:
    if not placed.is_complete() or placed.has_duplication():
        return None
    state = KernelState(SchedKernel(placed.graph, placed.machine))
    try:
        replay_prefix(state, placed, placed.graph.task_names)
    except ReproError:
        return None
    return state.sched


@dataclass(frozen=True)
class IncrementalResult:
    """What :func:`incremental_reschedule` did and what it produced."""

    schedule: Schedule
    n_tasks: int
    n_dirty: int
    n_reused: int
    unchanged: bool = False
    fallback: str | None = None
    #: How the clean prefix was forked off a kept :class:`Replay`, if it was.
    forked: Fork | None = None

    @property
    def reused_fraction(self) -> float:
        return self.n_reused / self.n_tasks if self.n_tasks else 1.0


def _analyse(
    prev_schedule: Schedule, new_graph: TaskGraph, seed: set[str]
) -> tuple[set[str], str | None]:
    """The dirty set for an edit whose changed tasks are ``seed``, plus the
    fallback reason if any."""
    if not prev_schedule.is_complete():
        raise ScheduleError(
            "incremental rescheduling needs a complete previous schedule "
            f"(graph {prev_schedule.graph.name!r})"
        )
    if prev_schedule.has_duplication():
        # Duplicated copies break the one-slot-per-task timeline argument;
        # re-time everything against the primary assignment instead.
        return set(new_graph.task_names), "duplication"
    return dirty_closure(prev_schedule, new_graph, seed), None


def _retime(
    prev_schedule: Schedule,
    new_graph: TaskGraph,
    dirty: set[str],
    *,
    reuse_prefix: bool,
    replayed: Schedule | None = None,
    kernel: SchedKernel | None = None,
) -> Schedule:
    """The shared engine behind both entry points.

    ``reuse_prefix=True`` copies clean placements verbatim;
    ``reuse_prefix=False`` recomputes each clean floor and keeps the
    previous start only while it stays feasible under the shared tolerance
    (the checker's own criterion).  The two must produce byte-identical
    schedules — that equality is the module's contract, fuzzed by the
    ``incremental`` conformance oracle.  ``replayed``, the base's full
    :class:`Replay` over a graph of ``new_graph``'s structure, lets the
    verbatim copy take the clean prefix from it instead of placing it.
    ``kernel`` is ``new_graph``'s on the previous schedule's machine, when
    the caller holds one.
    """
    if kernel is None:
        kernel = SchedKernel(new_graph, prev_schedule.machine)
    state = KernelState(kernel, prev_schedule.derived_name(NAME_SUFFIX))

    def keep_if_feasible(ti: int, proc: int, prev_start: float) -> float:
        # Keep the previous start while it remains feasible — the same
        # approx criterion SCH201/SCH205 apply.  Different heuristics
        # group the arrival arithmetic differently, so the recomputed
        # floor may sit a few ULPs above a perfectly feasible start.
        floor = state.earliest_start(ti, proc)
        return prev_start if approx_ge(prev_start, floor) else floor

    # Phase 1 — replay the clean prefix, or fork it off the full replay.
    clean_tasks = [t for t in new_graph.task_names if t not in dirty]
    if replayed is not None:
        LEDGER.bump("retime_forked")
        state.sched.take_prefix(replayed, set(clean_tasks))
        state.tails[:] = map(state.sched.proc_tail, range(len(state.tails)))
        clean = {kernel.index[t] for t in clean_tasks}
    else:
        LEDGER.bump("retime_replayed")
        clean = replay_prefix(
            state,
            prev_schedule,
            clean_tasks,
            start_of=None if reuse_prefix else keep_if_feasible,
        )

    def pick(ti: int) -> tuple[int, float]:
        task = kernel.tasks[ti]
        if task not in prev_schedule:  # brand-new: earliest-finish processor
            return state.best_processor(ti)
        proc = prev_schedule.primary(task).proc
        return proc, state.earliest_start(ti, proc)

    # Phase 2 — re-time the dirty suffix, highest b-level first (the same
    # release order as clustering.assignment_to_schedule).  Only dirty
    # tasks are ever keyed, and their set is closed under successors, so
    # their levels are computed alone.
    index = kernel.index
    prio = {index[t]: level for t, level in kernel.b_levels_comm(dirty).items()}
    return run_priority_list(
        kernel, state, key=lambda i: (-prio[i], i), pick_processor=pick, placed=clean
    )


def incremental_reschedule(
    prev: Schedule | Replay, new_graph: TaskGraph, new_hash: str | None = None
) -> IncrementalResult:
    """Reschedule ``new_graph`` by editing the previous schedule in place(ment).

    ``prev`` is the previous schedule, or the kept :class:`Replay` of one.
    The machine is taken from it — an edited *machine* is a new scheduling
    problem, not an incremental one.  Returns the new schedule plus reuse
    accounting; byte-identical to :func:`full_reschedule` always, and to
    the previous schedule itself when the graph content is unchanged.  Only
    when no task's signature changed are the two content hashes compared
    (``new_hash`` is ``new_graph.content_hash()`` from a caller that already
    holds it); a kept :class:`Replay` keeps the previous graph's hash.
    """
    replay = prev if isinstance(prev, Replay) else None
    placed = prev if replay is None else replay.placed
    n_tasks = len(new_graph)
    diff = None if replay is None else replay.diff(new_graph)
    if diff is None:
        changed, seed = None, dirty_tasks(placed.graph, new_graph)
    else:
        changed, seed = diff
    if not seed:
        new_hash = new_hash or new_graph.content_hash()
        base_hash = placed.graph.content_hash() if replay is None else replay.base_hash()
        if new_hash == base_hash:
            return IncrementalResult(placed, n_tasks, 0, n_tasks, unchanged=True)
    dirty, fallback = _analyse(placed, new_graph, seed)
    fork = None
    if replay is not None and fallback is None:
        fork = replay.fit(new_graph, seed, changed)
    replayed = None if fork is None else replay()
    schedule = _retime(placed, new_graph, dirty, reuse_prefix=True, replayed=replayed,
                       kernel=None if fork is None else fork.kernel)
    return IncrementalResult(
        schedule,
        n_tasks,
        len(dirty),
        n_tasks - len(dirty),
        fallback=fallback,
        forked=None if replayed is None else fork,
    )


def full_reschedule(prev_schedule: Schedule, new_graph: TaskGraph) -> Schedule:
    """The from-scratch reference: same engine, every start recomputed.

    Exists so equivalence is checkable — ``incremental_reschedule`` must
    match this byte for byte on every input.
    """
    if new_graph.content_hash() == prev_schedule.graph.content_hash():
        return prev_schedule
    seed = dirty_tasks(prev_schedule.graph, new_graph)
    dirty, _ = _analyse(prev_schedule, new_graph, seed)
    return _retime(prev_schedule, new_graph, dirty, reuse_prefix=False)
