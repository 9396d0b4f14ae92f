"""Reactive rescheduling vs a static schedule, on every graph family x every
topology family.

A processor that suddenly runs 6x slower should not drag the whole makespan
with it: the reactive policy observes the straggler in the trace and
re-maps every not-yet-started task around it.  For each cell, static MH
schedules the graph, then the hottest processor (most assigned work) slows
down by 6x at 5% of the static makespan.  The *passive* makespan replays the
static schedule under the fault (:func:`repro.sim.dynamic.simulate_dynamic`);
the *reactive* one runs :func:`repro.sched.reactive.reactive_execute` on the
same scenario.  Both are deterministic, so this is a quality grid, not a
timing test: the p50 of passive/reactive over the 110 cells must be >= 1.3,
and when the hottest processor dies instead, reactive never strands more
tasks than passive.
"""

from __future__ import annotations

import statistics

from repro.graph import generators as gg
from repro.machine import MachineParams, build_topology
from repro.machine.machine import TargetMachine
from repro.machine.scenario import PROC_FAIL, PROC_SLOWDOWN, FaultEvent, FaultScenario
from repro.sched.mh import MHScheduler
from repro.sched.reactive import reactive_execute
from repro.sim.dynamic import simulate_dynamic

PARAMS = MachineParams(
    msg_startup=0.1, transmission_rate=20.0, process_startup=0.0, hop_latency=0.05
)

#: The 11 graph-generator families that predate the corpus growth, small.
GRAPH_FAMILIES = (
    ("chain", lambda: gg.chain(12, work=4.0, comm=1.0)),
    ("fork_join", lambda: gg.fork_join(10, work=4.0, comm=1.0)),
    ("diamond", lambda: gg.diamond(4, work=4.0, comm=1.0)),
    ("out_tree", lambda: gg.out_tree(2, 4, work=4.0, comm=1.0)),
    ("in_tree", lambda: gg.in_tree(2, 4, work=4.0, comm=1.0)),
    ("butterfly", lambda: gg.butterfly(4, work=4.0, comm=1.0)),
    ("gauss", lambda: gg.gaussian_elimination(5, work=4.0, comm=1.0)),
    ("lu", lambda: gg.lu_taskgraph(5, work=4.0, comm=1.0)),
    ("map_reduce", lambda: gg.map_reduce(8, work=4.0, comm=1.0)),
    ("stencil", lambda: gg.stencil(4, 4, work=4.0, comm=1.0)),
    ("layered", lambda: gg.random_layered(28, 5, seed=7)),
)

#: All 10 topology families the machine layer ships.
TOPOLOGIES = (
    ("full", 4), ("ring", 4), ("star", 4), ("linear", 4), ("bus", 4),
    ("hypercube", 4), ("mesh", 4), ("torus", 4), ("tree", 7), ("chordal", 5),
)

REQUIRED_P50 = 1.3
SLOWDOWN_FACTOR = 6.0


def _hot_proc(schedule) -> int:
    """The processor carrying the most assigned work."""
    load: dict[int, float] = {}
    for p in schedule:
        load[p.proc] = load.get(p.proc, 0.0) + (p.finish - p.start)
    return max(sorted(load), key=lambda proc: load[proc])


def _cells():
    for gname, build in GRAPH_FAMILIES:
        tg = build()
        for tname, n in TOPOLOGIES:
            machine = TargetMachine(build_topology(tname, n), PARAMS)
            yield f"{gname} x {tname}", MHScheduler().schedule(tg, machine)


def _fault(schedule, kind: str, at: float, **extra) -> FaultScenario:
    event = FaultEvent(time=round(at * schedule.makespan(), 6), kind=kind,
                       proc=_hot_proc(schedule), **extra)
    return FaultScenario(events=(event,), name=kind)


def test_reactive_beats_static_under_stragglers():
    ratios = []
    for _, schedule in _cells():
        scenario = _fault(schedule, PROC_SLOWDOWN, 0.05, factor=SLOWDOWN_FACTOR)
        passive = simulate_dynamic(schedule, scenario)
        ratios.append(passive.makespan() / reactive_execute(schedule, scenario).makespan())
    assert len(ratios) == len(GRAPH_FAMILIES) * len(TOPOLOGIES) == 110
    p50 = statistics.median(ratios)
    assert p50 >= REQUIRED_P50, (
        f"reactive p50 improvement {p50:.3f}x under stragglers is below "
        f"the required {REQUIRED_P50}x"
    )


def test_reactive_never_strands_more_than_passive_when_a_processor_dies():
    """No scenario here cuts a link, so the one known adversarial shape —
    dead links splitting a consumer's senders — cannot arise."""
    for cell, schedule in _cells():
        scenario = _fault(schedule, PROC_FAIL, 0.2)
        passive = simulate_dynamic(schedule, scenario)
        reactive = reactive_execute(schedule, scenario).trace
        assert len(reactive.stranded) <= len(passive.stranded), (
            f"{cell}: reactive stranded {reactive.stranded} "
            f"vs passive {passive.stranded}"
        )
