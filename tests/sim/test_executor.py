"""Tests for schedule replay: static vs simulated cross-validation."""

import pytest

from repro.errors import SimError
from repro.graph import TaskGraph
from repro.graph.generators import butterfly, fork_join, gaussian_elimination, random_layered
from repro.machine import Bus, MachineParams, TargetMachine, make_machine
from repro.sched import SCHEDULERS, Schedule, get_scheduler
from repro.sim import compare_with_static, simulate

PARAMS = MachineParams(msg_startup=2.0, transmission_rate=1.0, process_startup=0.1)


@pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
def test_simulation_matches_static_without_contention(sched_name):
    """The core cross-validation: event replay never finishes a task later
    than the static schedule predicted (contention off)."""
    from repro.errors import ScheduleError

    tg = gaussian_elimination(6)
    machine = make_machine("hypercube", 8, PARAMS)
    try:
        schedule = get_scheduler(sched_name).schedule(tg, machine)
    except ScheduleError as exc:
        if "budget" in str(exc):
            pytest.skip("exhaustive out of range")
        raise
    trace = simulate(schedule)
    assert compare_with_static(schedule, trace) == []
    assert trace.makespan() <= schedule.makespan() + 1e-6


@pytest.mark.parametrize("sched_name", ["mh", "hlfet", "dsh", "roundrobin"])
def test_contention_only_delays(sched_name):
    tg = butterfly(8, work=1, comm=8)
    machine = make_machine("ring", 8, PARAMS)
    schedule = get_scheduler(sched_name).schedule(tg, machine)
    free = simulate(schedule, contention=False)
    congested = simulate(schedule, contention=True)
    assert congested.makespan() >= free.makespan() - 1e-6


def test_exact_match_for_tight_schedule():
    """A hand-built schedule with no slack must replay to identical times."""
    tg = TaskGraph()
    tg.add_task("a", work=2)
    tg.add_task("b", work=3)
    tg.add_edge("a", "b", var="x", size=2)
    machine = make_machine("full", 2, MachineParams(msg_startup=1.0, transmission_rate=1.0))
    s = Schedule(tg, machine)
    s.add("a", 0, 0.0, 2.0)
    s.add("b", 1, 5.0, 8.0)  # arrival = 2 + (1 + 2) = 5: tight
    trace = simulate(s)
    assert trace.run_of("a").finish == 2.0
    assert trace.run_of("b").start == 5.0
    assert trace.makespan() == 8.0


def test_slack_is_squeezed_out():
    """Static schedules may have idle slack; the replay starts tasks as soon
    as data and processor allow."""
    tg = TaskGraph()
    tg.add_task("a", work=1)
    tg.add_task("b", work=1)
    tg.add_edge("a", "b", var="x", size=1)
    machine = make_machine("full", 1, MachineParams())
    s = Schedule(tg, machine)
    s.add("a", 0, 0.0, 1.0)
    s.add("b", 0, 10.0, 11.0)  # 9 units of pointless slack
    trace = simulate(s)
    assert trace.run_of("b").start == 1.0
    assert trace.makespan() == 2.0


def test_duplication_replays(l=None):
    tg = TaskGraph()
    tg.add_task("a", work=1)
    tg.add_task("b", work=1)
    tg.add_edge("a", "b", var="x", size=100)
    machine = make_machine("full", 2, MachineParams(msg_startup=10.0))
    s = Schedule(tg, machine)
    s.add("a", 0, 0.0, 1.0)
    s.add("a", 1, 0.0, 1.0)
    s.add("b", 1, 1.0, 2.0)
    trace = simulate(s)
    assert trace.run_of("b").start == 1.0  # fed by the local duplicate
    assert len(trace.runs) == 3


def test_incomplete_schedule_rejected():
    tg = TaskGraph()
    tg.add_task("a")
    tg.add_task("b")
    machine = make_machine("full", 2, PARAMS)
    s = Schedule(tg, machine)
    s.add("a", 0, 0.0, 1.0)
    with pytest.raises(SimError, match="incomplete"):
        simulate(s)


def test_trace_contents():
    tg = gaussian_elimination(4)
    machine = make_machine("hypercube", 4, PARAMS)
    schedule = get_scheduler("mh").schedule(tg, machine)
    trace = simulate(schedule)
    assert sorted({r.task for r in trace.runs}) == sorted(tg.task_names)
    assert trace.graph_name == tg.name
    # one hop record per link crossed per remote message
    for hop in trace.hops:
        assert hop.finish > hop.start
        a, b = hop.link
        assert machine.topology.has_link(a, b)


def test_hops_route_over_real_links_multihop():
    tg = TaskGraph()
    tg.add_task("a", work=1)
    tg.add_task("b", work=1)
    tg.add_edge("a", "b", var="x", size=4)
    machine = make_machine("linear", 4, MachineParams(msg_startup=1.0))
    s = Schedule(tg, machine)
    s.add("a", 0, 0.0, 1.0)
    arrival = 1.0 + machine.comm_cost(0, 3, 4)
    s.add("b", 3, arrival, arrival + 1.0)
    trace = simulate(s)
    links = [h.link for h in trace.hops]
    assert links == [(0, 1), (1, 2), (2, 3)]
    # store-and-forward: hops are sequential
    assert trace.hops[0].finish <= trace.hops[1].start + 1e-9
    assert trace.hops[1].finish <= trace.hops[2].start + 1e-9


def test_bus_contention_serialises_messages():
    """On a bus, two simultaneous messages must queue behind each other."""
    tg = fork_join(2, work=1, comm=10)
    params = MachineParams(msg_startup=1.0, transmission_rate=1.0)
    machine = TargetMachine(Bus(3), params)
    s = get_scheduler("roundrobin").schedule(tg, machine)
    free = simulate(s, contention=False)
    congested = simulate(s, contention=True)
    busy = sum(congested.link_busy_time().values())
    assert congested.makespan() >= free.makespan()
    assert busy > 0


def test_trace_queries():
    tg = gaussian_elimination(4)
    machine = make_machine("hypercube", 4, PARAMS)
    trace = simulate(get_scheduler("mh").schedule(tg, machine))
    st = trace.start_times()
    ft = trace.finish_times()
    assert set(st) == set(tg.task_names)
    assert all(st[t] <= ft[t] for t in st)
    with pytest.raises(SimError):
        trace.run_of("nope")


def test_a_trace_shows_its_design_machine_size_and_makespan():
    tg = gaussian_elimination(4)
    machine = make_machine("hypercube", 4, PARAMS)
    trace = simulate(get_scheduler("mh").schedule(tg, machine))
    assert repr(trace) == (
        f"Trace({trace.graph_name!r} on {machine.name!r}, runs={len(tg)}, "
        f"hops={len(trace.hops)}, makespan={trace.makespan():.3f})"
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_graphs_replay_consistently(seed):
    tg = random_layered(30, 6, seed=seed)
    machine = make_machine("mesh", 9, PARAMS)
    schedule = get_scheduler("etf").schedule(tg, machine)
    trace = simulate(schedule)
    assert compare_with_static(schedule, trace) == []
