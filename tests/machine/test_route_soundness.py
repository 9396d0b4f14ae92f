"""Routing is a function of the machine document.

Every cache in the repo is keyed on ``TargetMachine.content_hash()``, so two
machines with one hash must route alike — whichever Python object they are,
whichever compiled first, in memory or reloaded — and everything downstream
of a schedule (its message records, the contention replay) must read the
routes it was planned with.
"""

import pytest

from repro.env.project import BangerProject
from repro.errors import MachineError
from repro.graph.generators import random_layered
from repro.machine import (
    BalancedTree,
    ChordalRing,
    CustomTopology,
    MachineParams,
    Mesh2D,
    TargetMachine,
    build_topology,
    make_machine,
)
from repro.machine.compiled import clear_compiled, compiled_for
from repro.sched import get_scheduler
from repro.sched.service import ScheduleService
from repro.sim import simulate
from repro.store.corpus import corpus_document

PARAMS = MachineParams(msg_startup=0.4, transmission_rate=6.0, hop_latency=0.1)
FAMILIES = (
    "full", "bus", "star", "ring", "linear", "hypercube",
    "mesh", "torus", "mesh3d", "chordal", "tree",
)


def _machines():
    for family in FAMILIES:
        for n in range(1, 17):
            try:
                yield TargetMachine(build_topology(family, n), PARAMS)
            except MachineError:  # not a legal size for this family
                continue
    # Python-only shapes: their family's builder makes other links at this
    # size (4x4 mesh, binary tree, chord 2), so the document routes by BFS.
    yield TargetMachine(Mesh2D(2, 8), PARAMS)
    yield TargetMachine(BalancedTree(3, 3), PARAMS)
    yield TargetMachine(ChordalRing(8, 3), PARAMS)
    yield TargetMachine(
        CustomTopology(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)],
                       name="hand-drawn"),
        PARAMS,
    )
    yield TargetMachine(
        build_topology("hypercube", 8), PARAMS, name="lopsided",
        proc_speed_factors=[1.0, 0.5, 1.0, 1.0, 0.8, 1.0, 1.0, 1.0],
        link_bandwidth_factors={(0, 1): 0.5, (2, 6): 0.25},
    )


MACHINES = list(_machines())
machines = pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)


def _tables(machine):
    clear_compiled()
    tables = compiled_for(machine)
    return tables.dist, tables.routes


@machines
def test_hash_equal_twins_compile_to_identical_tables(machine):
    reloaded = TargetMachine.from_dict(machine.to_dict())
    twice = TargetMachine.from_dict(reloaded.to_dict())
    twins = (machine, reloaded, twice)
    assert len({m.content_hash() for m in twins}) == 1
    assert reloaded.to_dict() == machine.to_dict()
    # Each twin compiles first in turn: no order picks a different router.
    compiled = [_tables(m) for m in twins]
    assert compiled[0] == compiled[1] == compiled[2]
    # ... and whoever compiled, every twin answers from those tables.
    n = machine.n_procs
    for m in twins:
        assert [tuple(m.route(s, d)) for s in range(n) for d in range(n)] == (
            compiled[0][1]
        )


@machines
def test_registered_shapes_keep_their_family_router(machine):
    """In-memory machines route exactly as before: a ``make_machine`` shape
    compiles to its own topology's analytic routes."""
    topo = machine.topology
    try:
        registered = build_topology(topo.family, topo.n_procs).links == topo.links
    except MachineError:
        registered = False
    if not registered:
        pytest.skip("not the family builder's shape at this size")
    _, routes = _tables(machine)
    n = machine.n_procs
    assert routes == [tuple(topo.route(s, d)) for s in range(n) for d in range(n)]
    assert type(TargetMachine.from_dict(machine.to_dict()).topology) is type(topo)


@machines
def test_schedule_and_replay_follow_the_machine_routes(machine):
    """The tables an in-memory machine compiled are the ones its reloaded twin
    plans with — and the ones its replay must cross, link for link."""
    if machine.n_procs < 2:
        pytest.skip("no messages on one processor")
    _tables(machine)
    reloaded = TargetMachine.from_dict(machine.to_dict())
    graph = random_layered(24, 4, seed=machine.n_procs)
    schedule = get_scheduler("mh").schedule(graph, reloaded)
    planned = {}
    for msg in schedule.messages:
        assert list(msg.route) == reloaded.route(msg.src_proc, msg.dst_proc)
        planned[(msg.src_task, msg.dst_task, msg.var)] = msg.route
    trace = simulate(schedule, contention=True)
    crossed = {}
    for hop in trace.hops:
        crossed.setdefault((hop.src_task, hop.dst_task, hop.var), []).append(hop.link)
    for key, links in crossed.items():
        route = planned[key]
        assert links == [(min(a, b), max(a, b)) for a, b in zip(route, route[1:])]


def test_reloaded_bus_serialises_its_medium():
    """A bus is one shared medium; its saved file must still be one."""
    graph = random_layered(40, 4, seed=11)
    bus = make_machine("bus", 4, PARAMS)
    reloaded = TargetMachine.from_dict(bus.to_dict())
    assert reloaded.topology.shared_medium
    results = []
    for machine in (bus, reloaded):
        clear_compiled()
        schedule = get_scheduler("mh").schedule(graph, machine)
        results.append(
            (schedule.makespan(), simulate(schedule, contention=True).makespan())
        )
    assert results[0] == results[1]
    # The medium really is shared: dedicated links would finish sooner.
    full = make_machine("full", 4, PARAMS)
    dedicated = get_scheduler("mh-nocontention").schedule(graph, full)
    assert results[0][1] > simulate(dedicated, contention=True).makespan()


@pytest.mark.parametrize("design", ["family_random", "family_bitonic", "family_pipeline"])
def test_schedule_and_speedup_agree_in_both_orders(design):
    """``banger schedule`` and ``banger speedup --procs 8`` ask one question
    of a corpus project on its 8-processor machine; the answer must not depend
    on which was asked first."""
    doc = corpus_document(design)
    makespans = []
    for schedule_first in (True, False):
        clear_compiled()
        project = BangerProject.from_dict(doc, service=ScheduleService(disk_cache=False))
        assert project.machine.n_procs == 8
        if schedule_first:
            makespans.append(project.schedule("mh").makespan())
        makespans.append(project.speedup([8]).points[0].makespan)
        if not schedule_first:
            makespans.append(project.schedule("mh").makespan())
    assert len(set(makespans)) == 1, makespans


@pytest.mark.parametrize("src, dst", [(-1, 0), (0, 8), (8, 8), (0, 64)])
def test_out_of_range_processors_still_raise(src, dst):
    machine = make_machine("hypercube", 8, PARAMS)
    with pytest.raises(MachineError, match="out of range"):
        machine.comm_cost(src, dst, 1.0)
    with pytest.raises(MachineError, match="out of range"):
        machine.route(src, dst)
