"""The schedule cache's packed form: a round trip loses nothing, and the
cache holds nothing the garbage collector has to traverse."""

import gc

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.graph.generators import random_layered
from repro.machine import MachineParams, make_machine
from repro.machine.machine import single_processor
from repro.sched import SCHEDULERS, get_scheduler
from repro.sched.incremental import incremental_reschedule
from repro.sched.schedule import Message, Placement, Schedule, pack_schedule, unpack_schedule
from repro.sched.serialize import encode_json, schedule_to_dict
from repro.sched.service import ScheduleService

PARAMS = MachineParams(msg_startup=0.5, transmission_rate=5.0)

graph_st = st.tuples(
    st.integers(1, 8),
    st.integers(1, 4),
    st.floats(0.0, 0.8),
    st.integers(0, 9999),
    st.sets(st.integers(0, 7)),
).map(lambda a: _with_zero_work(
    random_layered(a[0], min(a[1], a[0]), edge_prob=a[2], seed=a[3]), a[4]))


def _with_zero_work(graph, zeroed):
    for i, name in enumerate(graph.task_names):
        if i in zeroed:
            graph.set_work(name, 0.0)
    return graph


machine_st = st.sampled_from([("hypercube", 4), ("ring", 3), ("full", 2), ("one", 1)]).map(
    lambda fn: single_processor(PARAMS) if fn[0] == "one" else make_machine(*fn, PARAMS))


def assert_same(rebuilt: Schedule, original: Schedule) -> None:
    assert encode_json(schedule_to_dict(rebuilt)) == encode_json(schedule_to_dict(original))
    assert rebuilt.scheduler == original.scheduler
    assert rebuilt._by_proc == original._by_proc
    assert list(rebuilt._by_task.items()) == list(original._by_task.items())
    assert rebuilt.messages == original.messages
    assert [m.route for m in rebuilt.messages] == [m.route for m in original.messages]
    for proc in original._by_proc:
        assert rebuilt._starts[proc] == original._starts[proc]
        assert rebuilt._pmax[proc] == original._pmax[proc]
        for ready in (0.0, 1.0, 7.5):
            for duration in (0.0, 0.5, 3.0):
                assert (rebuilt.insertion_slot(proc, ready, duration)
                        == original.insertion_slot(proc, ready, duration))
    for placed in rebuilt._by_proc.values():
        assert all(type(e) is Placement for e in placed)
    assert all(type(m) is Message for m in rebuilt.messages)


@given(graph_st, machine_st, st.sampled_from(sorted(SCHEDULERS)))
@settings(max_examples=80, deadline=None)
def test_round_trip_over_an_equal_graph(graph, machine, name):
    schedule = get_scheduler(name).schedule(graph, machine)
    rebuilt = unpack_schedule(pack_schedule(schedule), graph.copy(), machine)
    assert_same(rebuilt, schedule)


@given(graph_st, st.sampled_from(["mh", "etf", "dls", "hlfet"]), st.floats(0.5, 4.0))
@settings(max_examples=30, deadline=None)
def test_round_trip_of_an_incremental_schedule(graph, name, factor):
    machine = make_machine("hypercube", 4, PARAMS)
    prior = get_scheduler(name).schedule(graph, machine)
    edited = graph.copy()
    first = edited.task_names[0]
    edited.set_work(first, edited.work(first) * factor + 1.0)
    schedule = incremental_reschedule(prior, edited).schedule
    rebuilt = unpack_schedule(pack_schedule(schedule), edited.copy(), machine)
    assert_same(rebuilt, schedule)


def test_round_trip_keeps_duplicates_and_gap_fills():
    graph = random_layered(24, 4, edge_prob=0.5, seed=3)
    machine = make_machine("hypercube", 4, MachineParams(msg_startup=5.0, transmission_rate=1.0))
    dsh = get_scheduler("dsh").schedule(graph, machine)
    assert dsh.has_duplication()
    assert_same(unpack_schedule(pack_schedule(dsh), graph.copy(), machine), dsh)
    dls = get_scheduler("dls").schedule(graph, machine)
    assert_same(unpack_schedule(pack_schedule(dls), graph.copy(), machine), dls)


def test_ints_stay_ints():
    graph = random_layered(3, 2, edge_prob=1.0, seed=1)
    machine = make_machine("full", 2, PARAMS)
    schedule = Schedule(graph, machine, "hand")
    a, b, c = graph.task_names
    schedule.add(a, 0, 0, 1)
    schedule.add(b, 1, 2, 3.5)
    schedule.add(c, 0, 1, 2)
    schedule.add_message(Message(a, b, "not-a-task", 2, 0, 1, 1, 2, (0, 1)))
    rebuilt = unpack_schedule(pack_schedule(schedule), graph, machine)
    assert_same(rebuilt, schedule)
    assert type(rebuilt.primary(a).start) is int


def test_cache_holds_no_tracked_object():
    """64 distinct puts leave no record object behind: every payload is one
    untracked ``bytes``, so a full LRU costs the collector nothing."""
    svc = ScheduleService(disk_cache=False)
    machine = make_machine("hypercube", 4, PARAMS)
    for seed in range(16):
        graph = random_layered(20, 4, edge_prob=0.3, seed=seed)
        for name in ("mh", "etf", "dls", "hlfet"):
            svc.schedule(graph, machine, name)
    assert len(svc) == 64 and svc.stats().misses == 64
    payloads = [svc._lru.peek(key) for key in svc._lru.keys()]
    assert all(type(p) is bytes and not gc.is_tracked(p) for p in payloads)
    seen, stack = set(), [svc._lru._entries]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        assert not isinstance(obj, (Schedule, Placement, Message))
        stack.extend(gc.get_referents(obj))
