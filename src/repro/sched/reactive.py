"""Reactive rescheduling: watch the dynamic trace, re-map the future.

The static schedulers plan against the nominal cost model; the dynamic
regime (:mod:`repro.sim.dynamic`) then breaks the plan one-sidedly —
stragglers, failures, noise.  This module closes the loop with an *online*
policy on the same two kernel calls incremental rescheduling uses —
:func:`repro.sched.core.replay_prefix` for what is pinned,
:func:`repro.sched.core.run_priority_list` for what is re-mapped:

1. **Observe** — simulate the current plan under the scenario and scan the
   trace for triggers: a processor failure (from the scenario, observable
   the moment it kills or strands work), a link failure (observable through
   lost messages), or a straggler — the first completed run on a processor
   whose ``observed / nominal`` duration ratio reaches ``threshold``.
2. **Pin** — at the earliest unhandled trigger time ``T``, every task that
   observably started before ``T`` is pinned: it keeps its placement from
   the current plan verbatim.  Started tasks are NEVER re-mapped — the
   pinned set is ancestor-closed (a task only starts after its predecessors
   finish) and a per-processor prefix of the plan (dispatch is in plan
   order), exactly the invariants the incremental engine's clean-prefix
   replay needs.
3. **Re-map** — the dirty suffix (everything else) is re-placed by the
   kernel's b-level list pass over the processors still alive at ``T``,
   choosing the processor that minimizes the *inflation-adjusted* finish
   ``start + nominal_duration × inflation[p]``, where ``inflation[p]`` is
   the worst observed slowdown ratio on ``p`` so far (floored by the
   machine's static ``1 / speed_factor``).  Candidates whose inbound routes
   cross an observed-dead link are avoided while any clean candidate
   exists.  The recorded plan stays purely nominal, so every round's plan
   passes the full SCH rule set.
4. **Causality** — each re-mapped task gets a dispatch floor of ``T`` in
   the next simulation: the controller decided at ``T``, so nothing it
   moved may start earlier, and the observed history before ``T`` replays
   bit-for-bit across rounds.  That prefix stability is what makes the
   whole loop deterministic (fuzzed by ``tests/sched/test_reactive_props``)
   and is why triggers can be handled in increasing time order.

The loop terminates because the handled-trigger key space is finite: one
straggler key per processor, one key per failure event.  The
``reactive_safe`` conformance oracle checks every invariant above on the
audit trail (``ReactiveResult.plans`` / ``traces`` / ``rounds``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.lru import LEDGER
from repro.machine.scenario import LINK_FAIL, PROC_FAIL, FaultScenario
from repro.sched.core import KernelState, SchedKernel, replay_prefix, run_priority_list
from repro.sched.schedule import Schedule

if TYPE_CHECKING:  # runtime import is deferred to break the sched<->sim cycle
    from repro.sim.dynamic import DynamicTrace
    from repro.sim.trace import TaskRun

#: Scheduler-name suffix marking reactively re-mapped plans.
NAME_SUFFIX = "+reactive"

#: Default observed/nominal duration ratio that flags a straggler.
DEFAULT_THRESHOLD = 2.0

#: Tasks re-mapped and re-planning rounds run, process-wide (work ledger).
LEDGER.declare(reactive_remaps=0, reactive_rounds=0)
_bump = LEDGER.bump


# --------------------------------------------------------------------- #
# triggers
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Trigger:
    """One observed reason to re-plan, at an observation time."""

    kind: str  # "failure" | "link" | "straggler"
    time: float
    proc: int | None = None
    link: tuple[int, int] | None = None

    def key(self) -> tuple:
        """Identity for the handled set — stragglers fire once per proc."""
        if self.kind == "straggler":
            return ("straggler", self.proc)
        return (self.kind, self.proc, self.link, self.time)

    def _sort_key(self) -> tuple:
        return (
            self.time,
            self.kind,
            -1 if self.proc is None else self.proc,
            self.link or (-1, -1),
        )


def detect_triggers(
    plan: Schedule,
    trace: DynamicTrace,
    scenario: FaultScenario,
    threshold: float,
) -> list[Trigger]:
    """Every trigger observable in one round, in time order.

    Failure events trigger at their timestamp (a dead processor or link is
    immediately observable); a straggler triggers when its first
    over-threshold run *completes* — the ratio is only measurable at finish.
    """
    triggers = [
        Trigger("failure" if e.kind == PROC_FAIL else "link",
                e.time, proc=e.proc, link=e.link)
        for e in scenario.events
        if e.kind in (PROC_FAIL, LINK_FAIL)
    ]
    first_straggler: dict[int, TaskRun] = {}
    for run in sorted(trace.runs, key=lambda r: (r.finish, r.proc, r.task)):
        if run.proc in first_straggler:
            continue
        nominal = plan.primary(run.task).duration
        if nominal > 1e-12 and (run.finish - run.start) / nominal >= threshold:
            first_straggler[run.proc] = run
    triggers.extend(
        Trigger("straggler", run.finish, proc=proc)
        for proc, run in first_straggler.items()
    )
    return sorted(triggers, key=Trigger._sort_key)


# --------------------------------------------------------------------- #
# one re-planning round
# --------------------------------------------------------------------- #
def _dirty_start(state: KernelState, ti: int, proc: int) -> float:
    """Nominal start for one re-mapped task on one candidate processor —
    the seam the ``reactive_safe`` mutation test corrupts to prove the
    oracle convicts precedence-breaking re-maps."""
    return state.earliest_start(ti, proc)


def _replan(
    plan: Schedule,
    trace: DynamicTrace,
    scenario: FaultScenario,
    at: float,
) -> tuple[Schedule, frozenset[str], int]:
    """Pin everything started before ``at``; re-map the rest.

    Returns ``(new_plan, pinned_tasks, n_moved)`` where ``n_moved`` counts
    dirty tasks whose processor actually changed.
    """
    graph, machine = plan.graph, plan.machine
    kernel = SchedKernel(graph, machine)
    state = KernelState(kernel, plan.derived_name(NAME_SUFFIX))
    index = kernel.index

    started: set[str] = {r.task for r in trace.runs if r.start < at}
    killed = {r.task for r in trace.killed_runs if r.start < at}
    started |= killed
    pinned = frozenset(started)

    # A killed task never re-runs (started tasks are never re-mapped), so
    # its graph descendants are doomed: their data will never materialize.
    # They must stay in the plan (completeness) but are parked on a dead
    # processor AFTER all viable work — a doomed task sitting on an alive
    # timeline would block every task dispatched behind it.
    doomed: set[str] = set()
    if killed:
        reach = graph.transitive_closure()
        for k in killed:
            doomed |= reach[k]
        doomed -= pinned

    # Phase 1 — replay the pinned prefix verbatim.
    placed = replay_prefix(state, plan, pinned)

    # What the controller has observed by ``at``: dead hardware and the
    # worst slowdown ratio per processor (floored by the static factors).
    dead = scenario.failed_procs(at=at)
    dead_links = {
        e.link for e in scenario.events
        if e.kind == LINK_FAIL and e.link is not None and e.time <= at
    }
    inflation = [1.0 / machine.speed_factor(p) for p in machine.procs()]
    for run in trace.runs:
        if run.finish <= at:
            nominal = plan.primary(run.task).duration
            if nominal > 1e-12:
                ratio = (run.finish - run.start) / nominal
                if ratio > inflation[run.proc]:
                    inflation[run.proc] = ratio
    alive = [p for p in machine.procs() if p not in dead]
    if not alive:  # a fully-dead fleet: keep mapping, nothing can run anyway
        alive = list(machine.procs())

    def dead_link_crossings(ti: int, proc: int) -> int:
        """In-edges of ``ti`` whose route to ``proc`` uses a dead link —
        each one is a message that will be lost, stranding the task."""
        crossings = 0
        for edge in kernel.in_edges[ti]:
            src_proc = state.primary(edge.src).proc
            if src_proc == proc:
                continue
            path = kernel.route(src_proc, proc)
            if any((min(a, b), max(a, b)) in dead_links for a, b in zip(path, path[1:])):
                crossings += 1
        return crossings

    def pick(ti: int) -> tuple[int, float]:
        duration = kernel.exec_time[ti]
        candidates = alive
        if dead_links:
            # Routing is fixed shortest-path, so the only way around a dead
            # link is placement: keep the candidates losing the fewest
            # input messages (0 when any clean processor exists).
            counts = {p: dead_link_crossings(ti, p) for p in alive}
            fewest = min(counts.values())
            candidates = [p for p in alive if counts[p] == fewest]
        best: tuple[float, int, float] | None = None
        for p in candidates:
            start = _dirty_start(state, ti, p)
            key = (start + duration * inflation[p], p, start)
            if best is None or key < best:
                best = key
        assert best is not None
        return best[1], best[2]

    # Phase 2 — re-place the viable dirty suffix, highest b-level first.
    # Doomed tasks are held back; the doom set is successor-closed, so no
    # viable task ever waits on a doomed placement.
    prio = kernel.priority_array(kernel.b_levels_comm())
    run_priority_list(
        kernel,
        state,
        key=lambda i: (-prio[i], i),
        pick_processor=pick,
        placed=placed,
        held={index[t] for t in doomed},
    )
    moved = sum(
        state.primary(t).proc != plan.primary(t).proc
        for t in graph.task_names
        if t not in pinned and t not in doomed
    )

    # Phase 3 — park the doomed tasks on a dead processor, in topological
    # order (their killed ancestors are pinned, so every predecessor of a
    # doomed task is placed by now or earlier in this walk).
    if doomed:
        park_default = min(dead) if dead else 0
        for t in graph.topological_order():
            if t not in doomed:
                continue
            ti, was = index[t], plan.primary(t).proc
            park = was if was in dead else park_default
            state.place(ti, park, state.earliest_start(ti, park))
    return state.sched, pinned, moved


# --------------------------------------------------------------------- #
# the control loop
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ReactiveRound:
    """Audit record of one re-planning round."""

    trigger: Trigger
    pinned: frozenset[str]
    n_remapped: int
    plan_makespan: float


@dataclass
class ReactiveResult:
    """The control loop's outcome plus its full audit trail.

    ``plans[0]`` / ``traces[0]`` are the static input plan and its passive
    dynamic trace; ``plans[i]`` / ``traces[i]`` (``i >= 1``) are the plan
    and trace after round ``rounds[i - 1]``.  ``schedule`` / ``trace`` are
    the final entries.
    """

    schedule: Schedule
    trace: DynamicTrace
    threshold: float
    scenario: FaultScenario
    rounds: list[ReactiveRound] = field(default_factory=list)
    plans: list[Schedule] = field(default_factory=list)
    traces: list[DynamicTrace] = field(default_factory=list)

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_remaps(self) -> int:
        return sum(r.n_remapped for r in self.rounds)

    def makespan(self) -> float:
        return self.trace.makespan()


def reactive_execute(
    schedule: Schedule,
    scenario: FaultScenario | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    contention: bool = False,
) -> ReactiveResult:
    """Run ``schedule`` under ``scenario`` with reactive re-mapping.

    Deterministic: the same inputs always produce the same plans, traces,
    and audit trail.  With an empty scenario on a uniform machine no
    trigger fires and the result is the passive dynamic trace (itself
    byte-identical to the static simulation).
    """
    from repro.sim.dynamic import simulate_dynamic

    scenario = scenario or FaultScenario.empty()
    plan = schedule
    floors: dict[str, float] = {}
    handled: set[tuple] = set()
    trace = simulate_dynamic(
        plan, scenario, contention=contention, dispatch_floors=dict(floors)
    )
    result = ReactiveResult(
        schedule=plan,
        trace=trace,
        threshold=threshold,
        scenario=scenario,
        plans=[plan],
        traces=[trace],
    )
    # Finite key space bounds the loop: <= n_procs straggler keys plus one
    # key per failure event (slowdown-only events never generate triggers).
    bound = schedule.machine.n_procs + len(scenario.events) + 1
    while len(result.rounds) < bound:
        pending = [
            t
            for t in detect_triggers(plan, trace, scenario, threshold)
            if t.key() not in handled
        ]
        if not pending:
            break
        trigger = pending[0]
        handled.add(trigger.key())
        plan, pinned, moved = _replan(plan, trace, scenario, trigger.time)
        for t in plan.graph.task_names:
            if t not in pinned:
                floors[t] = max(floors.get(t, 0.0), trigger.time)
        trace = simulate_dynamic(
            plan, scenario, contention=contention, dispatch_floors=dict(floors)
        )
        result.rounds.append(
            ReactiveRound(
                trigger=trigger,
                pinned=pinned,
                n_remapped=moved,
                plan_makespan=plan.makespan(),
            )
        )
        result.plans.append(plan)
        result.traces.append(trace)
        _bump("reactive_rounds")
        if moved:
            _bump("reactive_remaps", moved)
    result.schedule = plan
    result.trace = trace
    return result
