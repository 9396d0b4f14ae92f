"""The oracle registry: cross-layer invariants the repo must always satisfy.

Each oracle checks one *relationship between two independent layers* — a
prediction against a replay, a document against its round trip, two
execution engines against each other.  An oracle takes a
:class:`CaseContext` (which materializes and caches the expensive shared
artifacts: the schedule, the contention-free trace) and returns a list of
problem strings; an empty list means the case conforms.

Registered oracles
------------------
===============  ======  ====================================================
name             kind    invariant
===============  ======  ====================================================
``feasible``     graph   scheduler output passes the independent checker
                         (rules SCH201-SCH205)
``makespan``     graph   event-driven replay never finishes a task *later*
                         than the static schedule promised, and the simulated
                         makespan never exceeds the predicted makespan
``contention``   graph   one-message-at-a-time links can only slow the
                         replay down, never speed it up
``roundtrip``    graph   graph / machine / schedule serialize -> deserialize
                         preserves content hashes, placements, and makespan;
                         the reloaded topology routes like its compiled
                         tables, and a registered family's shape exactly like
                         ``make_machine(family, n_procs)`` in memory
``flatten``      graph   lifting a task graph to a PITL drawing and
                         flattening it back is semantically identity: same
                         tasks, works, edges — and the same predicted
                         makespan when scheduled
``determinism``  graph   scheduling twice and simulating twice produce
                         byte-identical documents
``lint_sim``     graph   a design that lints clean (DF109 "no program yet"
                         suppressed — fuzz graphs are weight-only) must
                         flatten, schedule, and simulate without error
``codegen_deadlock``
                 graph   the CG5xx concurrency analyzer finds no errors on
                         real plans, and plans it passes actually run to
                         completion on live threads and queues
``incremental``  graph   after a deterministic single-node work edit,
                         incremental rescheduling stays feasible and is
                         byte-identical to the full-reference reschedule;
                         an unchanged graph returns the prior schedule
                         object verbatim
``dynamic_null`` graph   the replay engine under an *empty* fault scenario
                         times every task at exactly its placement's
                         duration and every hop at exactly the cost model's
                         hop time (uniform machines), is degradation-only
                         and deterministic under the derived scenario;
                         static schedulers stay heterogeneity-blind
``reactive_safe``
                 graph   every reactive replanning round stays feasible
                         (SCH201-SCH205), never re-maps a started task,
                         respects precedence in the observed trace, strands
                         exactly the provably-doomed task set, and replays
                         deterministically
``exec_trace``   graph   the ``inproc`` backend's event trace obeys the
                         lowered program's step lists, channel plan, and
                         precedence constraints, and its outputs are
                         bit-identical to the sequential PITS reference
                         executor and the generated ``threads`` program
``pits_codegen`` pits    a PITS routine computes bit-identical outputs (and
                         display lines) through the PITS interpreter
                         and the generated-Python path; domain errors must
                         be raised by both sides or neither
===============  ======  ====================================================

All time comparisons go through :mod:`repro.approx` — the one shared
tolerance — so the oracle suite cannot drift apart from the checkers it
guards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.approx import approx_eq, approx_ge, approx_le, values_close
from repro.conformance.cases import GRAPH, PITS, Case
from repro.errors import CalcError, MachineError, ReproError
from repro.graph.generators import as_dataflow
from repro.graph.hierarchy import flatten
from repro.graph.serialize import taskgraph_from_dict, taskgraph_to_dict
from repro.machine.compiled import clear_compiled, compiled_for
from repro.machine.machine import TargetMachine, make_machine
from repro.machine.scenario import PROFILES, FaultScenario, seeded_scenario
from repro.sched import get_scheduler
from repro.sched.serialize import schedule_from_dict, schedule_to_dict
from repro.sched.validate import schedule_problems
from repro.sim.dynamic import expected_stranded, simulate, simulate_dynamic
from repro.sim.trace import compare_with_static


class CaseContext:
    """Lazily materializes (and caches) the artifacts oracles share.

    Scheduling and the contention-free replay are each computed at most
    once per case no matter how many oracles inspect them.
    """

    def __init__(self, case: Case):
        self.case = case
        self._cache: dict[str, object] = {}

    def _get(self, key: str, build: Callable[[], object]) -> object:
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def graph(self):
        return self._get("graph", self.case.taskgraph)

    @property
    def machine(self) -> TargetMachine:
        return self._get("machine", self.case.machine)

    @property
    def schedule(self):
        return self._get(
            "schedule",
            lambda: get_scheduler(self.case.scheduler).schedule(
                self.graph, self.machine
            ),
        )

    @property
    def trace(self):
        """The contention-free replay of :attr:`schedule`."""
        return self._get("trace", lambda: simulate(self.schedule, contention=False))

    @property
    def plan(self):
        """The per-processor step lists lowered from :attr:`schedule`."""
        from repro.codegen.ir import lower_steps

        return self._get("plan", lambda: lower_steps(self.schedule)[0])

    @property
    def scenario(self) -> FaultScenario:
        """The fault scenario the dynamic oracles exercise.

        A case that pins one in its payload gets that exact scenario
        (corpus witnesses replay bit-for-bit); otherwise one is derived
        deterministically from the case id, so every historical case gains
        dynamic coverage without its content address changing.
        """

        def build() -> FaultScenario:
            pinned = self.case.scenario()
            if pinned is not None:
                return pinned
            seed = int(self.case.case_id, 16) % 2**32
            horizon = self.trace.makespan() or 1.0
            profile = PROFILES[seed % len(PROFILES)]
            return seeded_scenario(seed, self.machine, horizon, profile=profile)

        return self._get("scenario", build)

    @property
    def dynamic_trace(self):
        """The dynamic replay of :attr:`schedule` under :attr:`scenario`."""
        return self._get(
            "dynamic_trace",
            lambda: simulate_dynamic(self.schedule, self.scenario),
        )


@dataclass(frozen=True)
class Oracle:
    """One registered invariant."""

    name: str
    kind: str
    description: str
    fn: Callable[[CaseContext], list[str]]

    def check(self, ctx: CaseContext) -> list[str]:
        """Problems found on this case (crashes become problems, not raises)."""
        if ctx.case.kind != self.kind:
            return []
        try:
            return self.fn(ctx)
        except Exception as exc:  # noqa: BLE001 - a crash *is* a finding
            return [f"{type(exc).__name__}: {exc}"]


#: name -> Oracle, in registration order (which the runner preserves).
ORACLES: dict[str, Oracle] = {}


def register(name: str, kind: str, description: str):
    def deco(fn: Callable[[CaseContext], list[str]]) -> Callable:
        if name in ORACLES:
            raise ReproError(f"oracle {name!r} registered twice")
        ORACLES[name] = Oracle(name, kind, description, fn)
        return fn

    return deco


def resolve_oracles(names: list[str] | None = None) -> list[Oracle]:
    """Oracles to run: all of them, or the named subset (order preserved)."""
    if not names:
        return list(ORACLES.values())
    missing = [n for n in names if n not in ORACLES]
    if missing:
        raise ReproError(
            f"unknown oracle(s) {missing}; registered: {sorted(ORACLES)}"
        )
    return [ORACLES[n] for n in ORACLES if n in names]


# --------------------------------------------------------------------- #
# graph oracles
# --------------------------------------------------------------------- #
@register("feasible", GRAPH, "scheduler output passes the independent checker")
def _feasible(ctx: CaseContext) -> list[str]:
    return schedule_problems(ctx.schedule)


@register("makespan", GRAPH,
          "simulated trace never finishes later than the static schedule")
def _makespan(ctx: CaseContext) -> list[str]:
    problems = compare_with_static(ctx.schedule, ctx.trace)
    static, replayed = ctx.schedule.makespan(), ctx.trace.makespan()
    if not approx_le(replayed, static):
        problems.append(
            f"simulated makespan {replayed:g} exceeds predicted {static:g}"
        )
    return problems


@register("contention", GRAPH,
          "link contention can only increase the simulated makespan")
def _contention(ctx: CaseContext) -> list[str]:
    contended = simulate(ctx.schedule, contention=True)
    if not approx_ge(contended.makespan(), ctx.trace.makespan()):
        return [
            f"contended makespan {contended.makespan():g} below "
            f"contention-free {ctx.trace.makespan():g}"
        ]
    return []


@register("roundtrip", GRAPH,
          "graph/machine/schedule serialization round-trips preserve content")
def _roundtrip(ctx: CaseContext) -> list[str]:
    problems: list[str] = []
    tg = ctx.graph
    tg2 = taskgraph_from_dict(taskgraph_to_dict(tg))
    if tg2.content_hash() != tg.content_hash():
        problems.append("taskgraph content hash changed across round trip")
    machine2 = TargetMachine.from_dict(ctx.machine.to_dict())
    if machine2.content_hash() != ctx.machine.content_hash():
        problems.append("machine content hash changed across round trip")
    doc = schedule_to_dict(ctx.schedule)
    reloaded = schedule_from_dict(doc)
    if schedule_to_dict(reloaded) != doc:
        problems.append("schedule document changed across round trip")
    if reloaded.makespan() != ctx.schedule.makespan():
        problems.append(
            f"reloaded makespan {reloaded.makespan():g} != "
            f"original {ctx.schedule.makespan():g}"
        )
    # The case's machine came from a document.  Its own topology object must
    # route like the compiled tables every consumer reads ...
    n, own = ctx.machine.n_procs, ctx.machine.topology
    pairs = [(s, d) for s in range(n) for d in range(n)]
    tables = compiled_for(ctx.machine)
    if tables.routes != [tuple(own.route(s, d)) for s, d in pairs]:
        problems.append("reloaded topology routes unlike its compiled tables")
    # ... and when the document is a registered family's shape, like the
    # object a user gets from set_machine / make_machine: that family's own
    # router is the reference, so a reload or a compile that forgets it
    # cannot hide behind tables both machines share.
    try:
        twin = make_machine(own.family, n, ctx.machine.params)
    except MachineError:
        return problems  # no such family, or not at this size
    router = twin.topology
    if router.links != own.links:
        return problems  # hand-edited links: a custom machine, BFS by design
    # (equal routes are equal distances: both sides count a route's links)
    if tables.routes != [tuple(router.route(s, d)) for s, d in pairs]:
        problems.append("compiled routes differ from the in-memory family's")
    # (the tables are what mh and the replay read; the reloaded object's own
    # flag is public, so a reload that drops it is still convicted)
    if tables.shared_medium != router.shared_medium:
        problems.append("compiled tables lost or gained a shared medium")
    if own.shared_medium != router.shared_medium:
        problems.append("reloaded machine lost or gained a shared medium")
    clear_compiled()  # the twin compiles its own tables, not the case's
    again = schedule_to_dict(get_scheduler(ctx.case.scheduler).schedule(tg, twin))
    clear_compiled()
    # (the twin's document may differ in names and heterogeneity factors,
    # which no static scheduler reads: compare what was scheduled)
    if any(again[part] != doc[part] for part in ("placements", "messages")):
        problems.append("in-memory family machine schedules differently")
    return problems


@register("flatten", GRAPH,
          "lift to a PITL drawing + flatten is identity, incl. the makespan")
def _flatten(ctx: CaseContext) -> list[str]:
    tg = ctx.graph
    flat = flatten(as_dataflow(tg))
    problems: list[str] = []
    if set(flat.task_names) != set(tg.task_names):
        problems.append("flatten(as_dataflow(tg)) changed the task set")
        return problems
    for name in tg.task_names:
        if flat.work(name) != tg.work(name):
            problems.append(f"task {name!r} work changed across flatten")
    edges = lambda g: sorted((e.src, e.dst, e.var, e.size) for e in g.edges)  # noqa: E731
    if edges(flat) != edges(tg):
        problems.append("edge set changed across flatten")
    if problems:
        return problems
    resched = get_scheduler(ctx.case.scheduler).schedule(flat, ctx.machine)
    if not approx_eq(resched.makespan(), ctx.schedule.makespan()):
        problems.append(
            f"flattened graph schedules to makespan {resched.makespan():g}, "
            f"original to {ctx.schedule.makespan():g}"
        )
    return problems


@register("determinism", GRAPH,
          "scheduling and simulating twice produce byte-identical documents")
def _determinism(ctx: CaseContext) -> list[str]:
    problems: list[str] = []
    again = get_scheduler(ctx.case.scheduler).schedule(ctx.graph, ctx.machine)
    if schedule_to_dict(again) != schedule_to_dict(ctx.schedule):
        problems.append("scheduling the same case twice differed")
    trace2 = simulate(ctx.schedule, contention=False)
    if trace2.runs != ctx.trace.runs or trace2.hops != ctx.trace.hops:
        problems.append("simulating the same schedule twice differed")
    return problems


@register("lint_sim", GRAPH,
          "a lint-clean design must flatten, schedule, and simulate")
def _lint_sim(ctx: CaseContext) -> list[str]:
    from repro.lint import lint_design

    design = as_dataflow(ctx.graph)
    report = lint_design(design, ctx.machine, suppress=("DF109",))
    if report.error_count:
        return []  # not lint-clean: the implication holds vacuously
    try:
        flat = flatten(design)
        schedule = get_scheduler(ctx.case.scheduler).schedule(flat, ctx.machine)
        simulate(schedule, contention=False)
    except Exception as exc:  # noqa: BLE001
        return [f"lint-clean design failed downstream: {type(exc).__name__}: {exc}"]
    return []


@register("incremental", GRAPH,
          "a single-node edit reschedules incrementally to the same bytes "
          "as the full reference, and stays feasible")
def _incremental(ctx: CaseContext) -> list[str]:
    from repro.sched.incremental import full_reschedule, incremental_reschedule

    problems: list[str] = []
    prev = ctx.schedule
    if not prev.is_complete():
        return []  # nothing to reuse: the feasible oracle owns this case

    # No-op edit: same content, so the prior schedule comes back verbatim.
    same = incremental_reschedule(prev, ctx.graph.copy())
    if same.schedule is not prev or not same.unchanged:
        problems.append("unchanged graph did not return the prior schedule")

    # Deterministic single-node edit: bump the first task's work.
    edited = ctx.graph.copy()
    victim = edited.task_names[0]
    edited.set_work(victim, edited.work(victim) * 2.0 + 1.0)

    inc = incremental_reschedule(prev, edited)
    problems += [f"incremental: {p}" for p in schedule_problems(inc.schedule)]
    reference = full_reschedule(prev, edited)
    if schedule_to_dict(inc.schedule) != schedule_to_dict(reference):
        problems.append(
            f"incremental reschedule (dirty {inc.n_dirty}/{inc.n_tasks}) "
            "diverges from the full-reference reschedule"
        )
    return problems


@register("dynamic_null", GRAPH,
          "empty-scenario replay times every task and hop exactly as the "
          "cost model does; faults only ever slow execution down, "
          "deterministically")
def _dynamic_null(ctx: CaseContext) -> list[str]:
    problems: list[str] = []
    empty = FaultScenario.empty()

    if ctx.machine.is_uniform:
        # The null contract proper: with no faults and a uniform machine
        # every scale is exactly 1.0, so the replay's arithmetic is the cost
        # model's, float for float.
        null = simulate_dynamic(ctx.schedule, empty)
        nominal = {(p.task, p.proc): p.duration for p in ctx.schedule}
        for run in null.runs:
            if run.finish != run.start + nominal[(run.task, run.proc)]:
                problems.append(
                    f"empty-scenario run of {run.task!r} on processor "
                    f"{run.proc} differs from its placement's duration"
                )
        params = ctx.machine.params
        size = {(e.src, e.dst, e.var): e.size for e in ctx.graph.edges}
        for hop in null.hops:
            hop_time = params.hop_latency + (
                size[(hop.src_task, hop.dst_task, hop.var)]
                / params.transmission_rate
            )
            if hop.finish != hop.start + hop_time:
                problems.append(
                    f"empty-scenario hop {hop.src_task!r}->{hop.dst_task!r} "
                    f"on link {hop.link} differs from the cost model's hop time"
                )
        if null.stranded or null.killed_runs or null.lost:
            problems.append(
                "empty scenario stranded/killed/lost something: "
                f"{null.stranded} {null.killed} {null.lost}"
            )
    else:
        # Heterogeneous machine: static schedulers must be factor-blind
        # (identical placements on the factor-stripped machine) and the
        # dynamic replay degradation-only (no task beats its nominal time).
        blind = get_scheduler(ctx.case.scheduler).schedule(
            ctx.graph, ctx.machine.uniform()
        )
        mine = sorted((p.task, p.proc, p.start, p.finish) for p in ctx.schedule)
        theirs = sorted((p.task, p.proc, p.start, p.finish) for p in blind)
        if mine != theirs:
            problems.append(
                f"scheduler {ctx.case.scheduler!r} is not heterogeneity-blind: "
                "placements differ on the factor-stripped machine"
            )
        null = simulate_dynamic(ctx.schedule, empty)
        for run in null.runs:
            nominal = ctx.schedule.primary(run.task).duration
            if not approx_ge(run.finish - run.start, nominal):
                problems.append(
                    f"task {run.task!r} ran in {run.finish - run.start:g} "
                    f"under factors, beating its nominal {nominal:g}"
                )
        if not approx_ge(null.makespan(), ctx.trace.makespan()):
            problems.append(
                f"heterogeneous makespan {null.makespan():g} beats the "
                f"uniform replay {ctx.trace.makespan():g}"
            )

    # Degradation-only + determinism under the (derived or pinned) scenario.
    dyn = ctx.dynamic_trace
    for run in dyn.runs:
        nominal = ctx.schedule.primary(run.task).duration
        if not approx_ge(run.finish - run.start, nominal):
            problems.append(
                f"task {run.task!r} observed duration {run.finish - run.start:g} "
                f"beats its nominal {nominal:g} under faults"
            )
    again = simulate_dynamic(ctx.schedule, ctx.scenario)
    if (
        again.runs != dyn.runs
        or again.hops != dyn.hops
        or again.stranded != dyn.stranded
        or again.lost != dyn.lost
    ):
        problems.append("dynamic simulation of the same scenario twice differed")
    if not ctx.scenario.has_failures and dyn.stranded:
        problems.append(
            f"failure-free scenario stranded tasks: {dyn.stranded}"
        )
    return problems


@register("reactive_safe", GRAPH,
          "reactive rescheduling stays feasible, never moves started tasks, "
          "and strands exactly the doomed set")
def _reactive_safe(ctx: CaseContext) -> list[str]:
    from repro.sched.reactive import reactive_execute

    if ctx.schedule.has_duplication():
        return []  # reactive targets primary-copy schedules only
    problems: list[str] = []
    res = reactive_execute(ctx.schedule, ctx.scenario)

    # Every replanned schedule must pass the full independent checker.
    for i, plan in enumerate(res.plans):
        problems += [f"round {i}: {p}" for p in schedule_problems(plan)]

    # Started tasks are immutable: each round's pinned set keeps its
    # processor from the plan the trigger was observed under.
    for k, rnd in enumerate(res.rounds):
        before, after = res.plans[k], res.plans[k + 1]
        for task in sorted(rnd.pinned):
            if after.primary(task).proc != before.primary(task).proc:
                problems.append(
                    f"round {k} re-mapped started task {task!r} from proc "
                    f"{before.primary(task).proc} to {after.primary(task).proc}"
                )

    # The observed trace must respect precedence and nominal-duration floors.
    final = res.trace
    finish = {r.task: r.finish for r in final.runs}
    start = {r.task: r.start for r in final.runs}
    for run in final.runs:
        nominal = res.schedule.primary(run.task).duration
        if not approx_ge(run.finish - run.start, nominal):
            problems.append(
                f"task {run.task!r} observed duration {run.finish - run.start:g} "
                f"beats its nominal {nominal:g}"
            )
        for edge in ctx.graph.in_edges(run.task):
            if edge.src not in finish:
                problems.append(
                    f"task {run.task!r} ran but predecessor {edge.src!r} "
                    "never completed"
                )
            elif not approx_le(finish[edge.src], start[run.task]):
                problems.append(
                    f"task {run.task!r} started at {start[run.task]:g} before "
                    f"predecessor {edge.src!r} finished at {finish[edge.src]:g}"
                )

    # Stranding must match the independent doomed-set fixpoint exactly.
    expected = expected_stranded(res.schedule, final, ctx.scenario)
    if expected is not None and expected != set(final.stranded):
        problems.append(
            f"stranded set {sorted(final.stranded)} != provably-doomed "
            f"set {sorted(expected)}"
        )
    killed = {r.task for r in final.killed_runs}
    if not killed <= set(final.stranded):
        problems.append(
            f"killed tasks {sorted(killed - set(final.stranded))} not stranded"
        )
    if not ctx.scenario.has_failures and final.stranded:
        problems.append(
            f"failure-free scenario stranded tasks: {final.stranded}"
        )

    # Determinism: the whole reactive loop replays bit for bit.
    res2 = reactive_execute(ctx.schedule, ctx.scenario)
    if (
        res2.n_rounds != res.n_rounds
        or res2.trace.runs != final.runs
        or res2.trace.hops != final.hops
        or res2.trace.stranded != final.stranded
    ):
        problems.append("reactive execution of the same scenario twice differed")
    return problems


@register("codegen_deadlock", GRAPH,
          "the concurrency analyzer is sound: clean plans really complete")
def _codegen_deadlock(ctx: CaseContext) -> list[str]:
    from repro.analysis.concurrency import analyze_plan, execute_plan_protocol
    from repro.severity import Severity

    diags = analyze_plan(ctx.plan)
    errors = [d for d in diags if d.severity is Severity.ERROR]
    if errors:
        # Real plans from real schedulers must never trip the analyzer.
        return [f"{d.rule_id}: {d.message}" for d in errors]
    if not execute_plan_protocol(ctx.plan, timeout=5.0):
        return [
            "analyzer passed the plan but its channel protocol did not run "
            "to completion on live threads"
        ]
    return []


def _with_programs(tg):
    """A copy of ``tg`` with deterministic straight-line PITS programs.

    Fuzz graphs are weight-only; to push one through the codegen pipeline
    each task gets a synthesized routine whose inputs are its in-edge (and
    graph-input) variables and whose outputs are its out-edge variables plus
    any graph outputs it owns.  Sinks that would otherwise produce nothing
    gain a synthetic ``out_<task>`` graph output so every run has observable
    results.  The bodies are pure float arithmetic — a position-weighted sum
    of the inputs — so any two conforming engines must agree bit for bit.

    Returns ``None`` when a variable or task name cannot serve as a PITS
    identifier (a corpus graph with exotic names): the oracle then holds
    vacuously.
    """
    from repro.calc.tokens import KEYWORDS

    usable = lambda n: bool(n) and n.isidentifier() and n.lower() not in KEYWORDS  # noqa: E731
    ptg = tg.copy()
    for i, var in enumerate(sorted(ptg.graph_inputs)):
        ptg.input_values.setdefault(var, float(i + 1))
    for task in ptg.task_names:
        ins = sorted({e.var for e in ptg.in_edges(task) if e.var})
        ins += sorted(
            v for v, consumers in ptg.graph_inputs.items()
            if task in consumers and v not in ins
        )
        outs = sorted(
            {e.var for e in ptg.out_edges(task) if e.var}
            | {v for v, producer in ptg.graph_outputs.items() if producer == task}
        )
        if not outs:
            synth = f"out_{task}"
            if synth in ins or synth in ptg.graph_outputs:
                return None
            ptg.graph_outputs[synth] = task
            outs = [synth]
        if set(ins) & set(outs):
            return None
        if not all(usable(n) for n in (task, *ins, *outs)):
            return None
        lines = [f"task {task}"]
        if ins:
            lines.append("input " + ", ".join(ins))
        lines.append("output " + ", ".join(outs))
        for j, out in enumerate(outs):
            terms = [f"({v} / {i + 2})" for i, v in enumerate(ins)]
            lines.append(f"{out} := " + " + ".join([*terms, f"{float(j + 1)}"]))
        ptg.task(task).program = "\n".join(lines) + "\n"
    return ptg


@register("exec_trace", GRAPH,
          "inproc execution obeys the lowered plan and matches the "
          "reference executors bit for bit")
def _exec_trace(ctx: CaseContext) -> list[str]:
    from repro.codegen.backends import get_backend, run_generated, trace_problems
    from repro.codegen.ir import lower
    from repro.sim.dataflow_exec import run_dataflow

    ptg = _with_programs(ctx.graph)
    if ptg is None:
        return []  # names unusable as PITS identifiers: vacuously conforms
    schedule = get_scheduler(ctx.case.scheduler).schedule(ptg, ctx.machine)
    program = lower(schedule)

    result = get_backend("inproc").execute(program)
    problems = [f"trace: {p}" for p in trace_problems(program, result.events)]

    reference = run_dataflow(ptg)
    if set(result.outputs) != set(reference.outputs):
        problems.append(
            f"inproc produced outputs {sorted(result.outputs)}, "
            f"reference executor {sorted(reference.outputs)}"
        )
    else:
        for var in sorted(reference.outputs):
            if not values_close(result.outputs[var], reference.outputs[var]):
                problems.append(
                    f"output {var!r} diverges: reference "
                    f"{reference.outputs[var]!r}, inproc {result.outputs[var]!r}"
                )

    threaded = run_generated(get_backend("threads").emit(program))
    if set(threaded) != set(result.outputs):
        problems.append(
            f"threads program produced outputs {sorted(threaded)}, "
            f"inproc {sorted(result.outputs)}"
        )
    else:
        for var in sorted(threaded):
            if not values_close(threaded[var], result.outputs[var]):
                problems.append(
                    f"output {var!r} diverges: inproc "
                    f"{result.outputs[var]!r}, threads {threaded[var]!r}"
                )
    return problems


# --------------------------------------------------------------------- #
# pits oracles
# --------------------------------------------------------------------- #
@register("pits_codegen", PITS,
          "interpreter and generated Python compute bit-identical results")
def _pits_codegen(ctx: CaseContext) -> list[str]:
    from repro.calc.interp import _coerce_input, run_program
    from repro.calc.parser import parse
    from repro.codegen import runtime as _rt
    from repro.codegen.pits2py import function_name, gen_task_function

    source = ctx.case.source
    # Both engines must see the same values: real pipelines always hand the
    # generated function an env of already-coerced values (numpy arrays,
    # floats), exactly what the interpreter's input coercion produces.
    inputs = {k: _coerce_input(v) for k, v in ctx.case.inputs().items()}
    program = parse(source)

    interp_exc: BaseException | None = None
    expected = None
    displayed: list[str] = []
    try:
        expected = run_program(source, **inputs)
        displayed = expected.displayed
    except CalcError as exc:
        interp_exc = exc

    code = gen_task_function("case", source)
    namespace = {"_rt": _rt, "_np": np}
    exec(compile(code, "<conformance>", "exec"), namespace)  # noqa: S102
    shown: list[str] = []
    gen_exc: BaseException | None = None
    got = None
    try:
        got = namespace[function_name("case")](dict(inputs), shown.append)
    except CalcError as exc:
        gen_exc = exc

    if (interp_exc is None) != (gen_exc is None):
        return [
            "interpreter and generated code disagree on raising: "
            f"interp={interp_exc!r}, generated={gen_exc!r}"
        ]
    if interp_exc is not None:
        if type(interp_exc) is not type(gen_exc):
            return [
                f"error types diverge: interpreter {type(interp_exc).__name__}, "
                f"generated {type(gen_exc).__name__}"
            ]
        return []

    problems: list[str] = []
    assert expected is not None and got is not None
    for name in program.outputs:
        if not values_close(got.get(name), expected.outputs[name]):
            problems.append(
                f"output {name!r} diverges: interpreter "
                f"{expected.outputs[name]!r}, generated {got.get(name)!r}"
            )
    if shown != displayed:
        problems.append(
            f"display lines diverge: interpreter {displayed!r}, generated {shown!r}"
        )
    return problems
