"""The replay engine: a schedule executed event by event on the machine model.

One event loop (:func:`_replay`) serves both entry points:

* :func:`simulate` replays a :class:`~repro.sched.schedule.Schedule` under
  the same four-parameter cost model the scheduler used — processors run
  their placements in schedule order, messages travel hop-by-hop over the
  topology's links — and returns a plain :class:`~repro.sim.trace.Trace`.
  It is the loop under the empty scenario on the factor-stripped machine
  (:meth:`~repro.machine.machine.TargetMachine.uniform`), so it stays blind
  to heterogeneity factors.
* :func:`simulate_dynamic` additionally consumes the machine's
  heterogeneity factors and a :class:`~repro.machine.scenario.FaultScenario`:

  * task durations are scaled by ``1 / speed_factor(proc)``, by the
    processor's current slowdown multiplier, and by the scenario's per-task
    lognormal noise; a ``proc_slowdown`` event arriving mid-run re-times the
    remaining fraction of the running task;
  * hop times are scaled by ``1 / bandwidth_factor(link)`` and the link's
    current slowdown multiplier; a message whose hop would complete after a
    ``link_fail`` is *lost* (recorded on the trace) and never delivered;
  * a ``proc_fail`` kills the running task at its timestamp (fault events
    take effect first among simultaneous events) and the processor
    dispatches nothing afterwards; tasks that consequently never run are
    *stranded*.

Cross-validation contract (tested): with ``contention=False`` the simulated
start/finish of every task equals the static schedule's *or is earlier* —
earlier only because the static schedule may include slack the event-driven
replay squeezes out; with ``contention=True`` links carry one message at a
time and the makespan can only grow relative to the contention-free replay.

Senders are fixed up front exactly like generated code fixes them
(:func:`repro.codegen.ir.lower_steps`): each (consumer copy, in-edge) pair
takes its data from the source copy with the cheapest static
``finish + comm_cost``.

The null contract — fuzzed by the ``dynamic_null`` conformance oracle and
convictable by the mutation suite — is exactness: with an empty scenario on
a uniform machine every scale is exactly 1.0, so every task runs for exactly
its placement's duration and every hop lasts exactly ``hop_latency + size /
transmission_rate``.  All scaling funnels through :func:`_scaled`, the
single seam the mutation tests corrupt to prove the oracle convicts drift.

Stranding is transitive and honest: a stranded task's descendants are
stranded too (their data never arrives), and the deadlock guard only
relaxes when the scenario actually contains failure events — an empty or
slowdown-only scenario must still complete every task or the replay raises
:class:`~repro.errors.SimError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimError
from repro.lru import LEDGER
from repro.machine.machine import TargetMachine
from repro.machine.scenario import (
    LINK_FAIL,
    LINK_SLOWDOWN,
    PROC_FAIL,
    PROC_SLOWDOWN,
    FaultScenario,
)
from repro.sched.schedule import Placement, Schedule
from repro.sim.engine import EventEngine
from repro.sim.trace import MessageHop, TaskRun, Trace

# --------------------------------------------------------------------- #
# observability (folded into the daemon's /metrics work counters)
# --------------------------------------------------------------------- #
#: Dynamic replays run and tasks they stranded, process-wide (work ledger).
LEDGER.declare(dynamic_sims=0, stranded_tasks=0)
_bump = LEDGER.bump


# --------------------------------------------------------------------- #
# the trace with dynamic outcomes attached
# --------------------------------------------------------------------- #
@dataclass
class DynamicTrace(Trace):
    """A :class:`~repro.sim.trace.Trace` plus what the scenario did.

    ``runs`` contains completed tasks only; ``killed_runs`` are the partial
    executions of tasks that started but died with their processor (their
    ``finish`` is the failure time, not a completion); ``lost`` records
    messages dropped by link failures as ``(src_task, dst_task, var)``;
    ``stranded`` is every task that never completed (killed tasks included).
    """

    stranded: list[str] = field(default_factory=list)
    killed_runs: list[TaskRun] = field(default_factory=list)
    lost: list[tuple[str, str, str]] = field(default_factory=list)
    events_applied: int = 0

    @property
    def killed(self) -> list[str]:
        return [r.task for r in self.killed_runs]

    @property
    def completed(self) -> set[str]:
        return {r.task for r in self.runs}


def _scaled(value: float, scale: float) -> float:
    """Scale one duration — THE seam between nominal and dynamic timing.

    ``scale == 1.0`` returns ``value`` untouched (the exact float, not a
    multiplication by 1.0), which is what makes the empty-scenario replay
    reproduce the cost model's arithmetic exactly.  The dynamic-oracle
    mutation tests monkeypatch this function to prove ``dynamic_null``
    convicts any drift injected here.
    """
    return value if scale == 1.0 else value * scale


@dataclass
class _Copy:
    placement: Placement
    order_idx: int
    waiting: int = 0
    ready_time: float = 0.0
    started: bool = False
    finished: bool = False
    killed: bool = False
    floor_pending: bool = False
    finish_gen: int = 0
    actual_start: float = 0.0
    actual_finish: float = 0.0
    consumer_edges: list[tuple["_Copy", str, str, float]] = field(default_factory=list)


def simulate(schedule: Schedule, contention: bool = False) -> Trace:
    """Event-driven replay of ``schedule``; returns the observed trace."""
    replayed = _replay(
        schedule, schedule.machine.uniform(), FaultScenario.empty(), contention, {}
    )
    return Trace(
        machine_name=replayed.machine_name,
        graph_name=replayed.graph_name,
        runs=replayed.runs,
        hops=replayed.hops,
    )


def simulate_dynamic(
    schedule: Schedule,
    scenario: FaultScenario | None = None,
    contention: bool = False,
    dispatch_floors: dict[str, float] | None = None,
) -> DynamicTrace:
    """Replay ``schedule`` under ``scenario``; returns the observed trace.

    ``dispatch_floors`` maps task names to the earliest wall-clock time
    their dispatch may happen — the reactive rescheduler uses it to enforce
    causality (a task re-mapped at trigger time ``T`` cannot start before
    ``T``, even if its new processor was idle earlier).
    """
    scenario = scenario or FaultScenario.empty()
    scenario.validate_for(schedule.machine)
    trace = _replay(
        schedule, schedule.machine, scenario, contention, dispatch_floors or {}
    )
    _bump("dynamic_sims")
    if trace.stranded:
        _bump("stranded_tasks", len(trace.stranded))
    return trace


def _replay(
    schedule: Schedule,
    machine: TargetMachine,
    scenario: FaultScenario,
    contention: bool,
    floors: dict[str, float],
) -> DynamicTrace:
    """The event loop.  ``machine`` is ``schedule.machine`` as the replay
    should time it: with its heterogeneity factors, or stripped of them."""
    graph = schedule.graph
    if not schedule.is_complete():
        missing = [t for t in graph.task_names if t not in schedule]
        raise SimError(f"schedule is incomplete; unscheduled tasks: {missing[:5]}")

    engine = EventEngine()
    trace = DynamicTrace(machine_name=machine.name, graph_name=graph.name)

    # ------------------------------------------------------------------ #
    # scenario state
    # ------------------------------------------------------------------ #
    dead: set[int] = set()
    proc_slow: dict[int, float] = {}
    link_fail_time: dict[tuple[int, int], float] = {}
    link_slow_events: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for event in scenario.events:
        if event.kind == LINK_FAIL and event.link is not None:
            prev = link_fail_time.get(event.link)
            if prev is None or event.time < prev:
                link_fail_time[event.link] = event.time
        elif event.kind == LINK_SLOWDOWN and event.link is not None:
            link_slow_events.setdefault(event.link, []).append(
                (event.time, event.factor)
            )
    for history in link_slow_events.values():
        history.sort()

    noise_cache: dict[str, float] = {}

    def noise(task: str) -> float:
        mult = noise_cache.get(task)
        if mult is None:
            mult = scenario.noise_multiplier(task)
            noise_cache[task] = mult
        return mult

    def proc_scale(proc: int, task: str) -> float:
        """Current duration multiplier on ``proc`` for ``task``."""
        scale = proc_slow.get(proc, 1.0)
        speed = machine.speed_factor(proc)
        if speed != 1.0:
            scale = scale / speed
        mult = noise(task)
        if mult != 1.0:
            scale = scale * mult
        return scale

    def link_scale(link: tuple[int, int], at: float) -> float:
        scale = 1.0
        bandwidth = machine.bandwidth_factor(*link)
        if bandwidth != 1.0:
            scale = scale / bandwidth
        for time, factor in link_slow_events.get(link, ()):
            if time <= at:
                scale = scale if factor == 1.0 else scale * factor
            else:
                break
        return scale

    # ------------------------------------------------------------------ #
    # build copies, per-processor order, and fixed senders
    # ------------------------------------------------------------------ #
    by_proc: dict[int, list[_Copy]] = {p: [] for p in machine.procs()}
    copies_of: dict[str, list[_Copy]] = {}
    for proc in machine.procs():
        for idx, placement in enumerate(schedule.on_proc(proc)):
            copy = _Copy(placement=placement, order_idx=idx)
            by_proc[proc].append(copy)
            copies_of.setdefault(placement.task, []).append(copy)

    for task in graph.task_names:
        for consumer in copies_of[task]:
            for edge in graph.in_edges(task):
                sources = copies_of.get(edge.src)
                if not sources:
                    raise SimError(f"no copy of predecessor {edge.src!r}")
                sender = min(
                    sources,
                    key=lambda s: (
                        s.placement.finish
                        + machine.comm_cost(s.placement.proc, consumer.placement.proc, edge.size),
                        s.placement.proc,
                    ),
                )
                consumer.waiting += 1
                sender.consumer_edges.append((consumer, edge.src, edge.var, edge.size))

    next_idx = {p: 0 for p in machine.procs()}
    proc_free = {p: 0.0 for p in machine.procs()}
    shared_bus = machine.shared_medium
    link_free: dict[tuple[int, int], float] = {}

    # ------------------------------------------------------------------ #
    # event handlers
    # ------------------------------------------------------------------ #
    def try_dispatch(proc: int) -> None:
        if proc in dead:
            return
        idx = next_idx[proc]
        timeline = by_proc[proc]
        if idx >= len(timeline):
            return
        copy = timeline[idx]
        if copy.started or copy.waiting > 0:
            return
        floor = floors.get(copy.placement.task)
        if floor is not None and engine.now < floor:
            if not copy.floor_pending:
                copy.floor_pending = True
                engine.schedule(floor, lambda p=proc: try_dispatch(p))
            return
        start = max(proc_free[proc], copy.ready_time, engine.now)
        copy.started = True
        copy.actual_start = start
        duration = _scaled(copy.placement.duration, proc_scale(proc, copy.placement.task))
        copy.actual_finish = start + duration
        proc_free[proc] = copy.actual_finish
        gen = copy.finish_gen
        engine.schedule(copy.actual_finish, lambda c=copy, g=gen: finish(c, g))

    def finish(copy: _Copy, gen: int) -> None:
        if copy.killed or copy.finished or gen != copy.finish_gen:
            return  # superseded by a slowdown re-time or a processor death
        copy.finished = True
        proc = copy.placement.proc
        trace.runs.append(
            TaskRun(copy.placement.task, proc, copy.actual_start, copy.actual_finish)
        )
        next_idx[proc] += 1
        for consumer, src_task, var, size in copy.consumer_edges:
            send(copy, consumer, src_task, var, size)
        try_dispatch(proc)

    def send(sender: _Copy, consumer: _Copy, src_task: str, var: str, size: float) -> None:
        src_proc = sender.placement.proc
        dst_proc = consumer.placement.proc
        t = engine.now
        if src_proc == dst_proc:
            deliver(consumer, t)
            return
        params = machine.params
        t += params.msg_startup
        hop_time = params.hop_latency + size / params.transmission_rate
        path = machine.route(src_proc, dst_proc)
        for a, b in zip(path, path[1:]):
            real_link = (min(a, b), max(a, b))
            link = (0, 0) if shared_bus else real_link
            this_hop = _scaled(hop_time, link_scale(real_link, t))
            if contention:
                start = max(t, link_free.get(link, 0.0))
                link_free[link] = start + this_hop
            else:
                start = t
            hop_finish = start + this_hop
            fail_at = link_fail_time.get(real_link)
            if fail_at is not None and hop_finish > fail_at:
                # The hop cannot complete before its link dies: the message
                # is lost and the consumer never hears about this edge.
                trace.lost.append((src_task, consumer.placement.task, var))
                return
            trace.hops.append(
                MessageHop(
                    src_task=src_task,
                    dst_task=consumer.placement.task,
                    var=var,
                    link=real_link,
                    start=start,
                    finish=hop_finish,
                )
            )
            t = hop_finish
        engine.schedule(t, lambda c=consumer, at=t: deliver(c, at))

    def deliver(consumer: _Copy, arrival: float) -> None:
        consumer.waiting -= 1
        consumer.ready_time = max(consumer.ready_time, arrival)
        try_dispatch(consumer.placement.proc)

    # ------------------------------------------------------------------ #
    # scenario event handlers (scheduled before the t=0 dispatches, so a
    # fault at time T takes effect before anything else stamped T)
    # ------------------------------------------------------------------ #
    def running_copy(proc: int) -> _Copy | None:
        idx = next_idx[proc]
        timeline = by_proc[proc]
        if idx < len(timeline):
            copy = timeline[idx]
            if copy.started and not copy.finished and not copy.killed:
                return copy
        return None

    def on_proc_fail(proc: int) -> None:
        if proc in dead:
            return
        trace.events_applied += 1
        copy = running_copy(proc)
        if copy is not None:
            copy.killed = True
            copy.finish_gen += 1
            trace.killed_runs.append(
                TaskRun(copy.placement.task, proc, copy.actual_start, engine.now)
            )
        dead.add(proc)

    def on_proc_slowdown(proc: int, factor: float) -> None:
        if proc in dead:
            return
        trace.events_applied += 1
        old = proc_slow.get(proc, 1.0)
        if factor == 1.0:
            proc_slow.pop(proc, None)
        else:
            proc_slow[proc] = factor
        copy = running_copy(proc)
        if copy is not None and old != factor:
            # Re-time the remaining fraction of the running task: the work
            # done so far stays done, the rest runs at the new rate.
            remaining = copy.actual_finish - engine.now
            copy.actual_finish = engine.now + _scaled(remaining, factor / old)
            proc_free[proc] = copy.actual_finish
            copy.finish_gen += 1
            gen = copy.finish_gen
            engine.schedule(copy.actual_finish, lambda c=copy, g=gen: finish(c, g))

    for event in scenario.events:
        if event.kind == PROC_FAIL:
            engine.schedule(event.time, lambda p=event.proc: on_proc_fail(p))
        elif event.kind == PROC_SLOWDOWN:
            engine.schedule(
                event.time,
                lambda p=event.proc, f=event.factor: on_proc_slowdown(p, f),
            )
        else:
            # Link events are consulted from the static script at send time;
            # count them as applied so the trace reflects the whole scenario.
            engine.schedule(
                event.time,
                lambda: trace.__setattr__("events_applied", trace.events_applied + 1),
            )

    for proc in machine.procs():
        engine.schedule(0.0, lambda p=proc: try_dispatch(p))

    engine.run()

    ran = {r.task for r in trace.runs}
    stuck = [t for t in graph.task_names if t not in ran]
    if stuck and not scenario.has_failures:
        raise SimError(
            f"simulation deadlocked; tasks never ran: {stuck[:5]} "
            "(is the schedule feasible?)"
        )
    trace.stranded = sorted(stuck)
    trace.killed_runs.sort(key=lambda r: (r.start, r.proc))
    trace.lost.sort()
    trace.runs.sort(key=lambda r: (r.proc, r.start))
    trace.hops.sort(key=lambda h: (h.start, h.link))
    return trace


def expected_stranded(
    schedule: Schedule, trace: DynamicTrace, scenario: FaultScenario
) -> set[str] | None:
    """The causal closure a dynamic trace's stranded set must equal.

    A task is expected to strand iff it has a failure explanation:

    1. it was killed mid-run by its processor's failure;
    2. it never started and is mapped to a processor that failed;
    3. one of its input messages was lost to a link failure;
    4. a graph predecessor is stranded (its data never materializes);
    5. an earlier task on its processor's timeline is stranded (dispatch is
       in schedule order, so a stuck task blocks everything behind it).

    Closed to a fixed point and compared for *equality* against
    ``trace.stranded`` by the ``reactive_safe`` oracle — anything stranded
    without an explanation, or explained but completed, is a simulator or
    rescheduler bug.  Returns ``None`` for duplicated schedules, where "the
    task's processor" is ambiguous and the closure argument does not apply.
    """
    if schedule.has_duplication():
        return None
    graph = schedule.graph
    completed = trace.completed
    killed = set(trace.killed)
    dead = scenario.failed_procs()
    stranded: set[str] = set(killed)
    stranded |= {dst for (_, dst, _) in trace.lost}
    for task in graph.task_names:
        if task in completed or task in killed:
            continue
        if schedule.primary(task).proc in dead:
            stranded.add(task)
    timelines = [
        [e.task for e in schedule.timeline(p)] for p in schedule.machine.procs()
    ]
    changed = True
    while changed:
        changed = False
        for task in graph.task_names:
            if task in stranded or task in completed:
                continue
            if any(e.src in stranded for e in graph.in_edges(task)):
                stranded.add(task)
                changed = True
        for timeline in timelines:
            poisoned = False
            for task in timeline:
                if task in stranded:
                    poisoned = True
                elif poisoned and task not in completed:
                    stranded.add(task)
                    changed = True
    return stranded
