"""Tests for the shared list-scheduling primitives (EST, insertion, placement,
ready tracking) on their one home, :mod:`repro.sched.core`."""

import pytest

from repro.errors import ScheduleError
from repro.graph import TaskGraph
from repro.machine import MachineParams, make_machine
from repro.sched.core import KernelState, ReadyHeap, ReadySet, SchedKernel

PARAMS = MachineParams(msg_startup=1.0, transmission_rate=1.0)


@pytest.fixture
def graph():
    tg = TaskGraph()
    tg.add_task("a", work=2)
    tg.add_task("b", work=2)
    tg.add_task("c", work=2)
    tg.add_edge("a", "c", var="x", size=3)
    tg.add_edge("b", "c", var="y", size=1)
    return tg


@pytest.fixture
def machine():
    return make_machine("full", 3, PARAMS)


@pytest.fixture
def kernel(graph, machine):
    return SchedKernel(graph, machine)


@pytest.fixture
def state(kernel):
    return KernelState(kernel)


A, B, C = 0, 1, 2  # task indices: graph insertion order


class TestDataReady:
    def test_entry_task_ready_at_zero(self, state):
        assert state.data_ready_time(A, 0) == 0.0

    def test_remote_and_local_arrivals(self, state):
        state.add("a", 0, 0.0, 2.0)
        state.add("b", 1, 0.0, 2.0)
        # on proc 0: a local (2.0), b remote (2 + 1 + 1 = 4)
        assert state.data_ready_time(C, 0) == 4.0
        # on proc 2: both remote; a: 2 + 1 + 3 = 6; b: 4
        assert state.data_ready_time(C, 2) == 6.0
        # the row primitive: every processor at once (proc 1: a remote, b local)
        assert state.data_ready_row(C) == [4.0, 6.0, 6.0]

    def test_duplication_uses_cheapest_copy(self, state):
        state.add("a", 0, 0.0, 2.0)
        state.add("a", 2, 0.0, 2.0)
        state.add("b", 2, 2.0, 4.0)
        assert state.data_ready_time(C, 2) == 4.0
        assert state.data_ready_row(C) == [6.0, 6.0, 4.0]

    def test_unscheduled_pred_raises(self, state):
        with pytest.raises(ScheduleError, match="unscheduled"):
            state.data_ready_time(C, 0)
        with pytest.raises(ScheduleError, match="unscheduled"):
            state.data_ready_row(C)


class TestEarliestStart:
    def test_empty_proc(self, state):
        assert state.earliest_start(A, 0) == 0.0

    def test_appends_after_last(self, state):
        state.add("a", 0, 0.0, 2.0)
        assert state.earliest_start(B, 0) == 2.0

    def test_insertion_finds_gap(self, state):
        state.add("a", 0, 0.0, 2.0)
        state.add("c", 0, 10.0, 12.0)
        # b (duration 2) fits in the gap [2, 10)
        assert state.earliest_start(B, 0, insertion=True) == 2.0
        assert state.earliest_start(B, 0, insertion=False) == 12.0

    def test_insertion_respects_ready_time(self, state):
        state.add("a", 1, 0.0, 2.0)
        state.add("b", 0, 0.0, 2.0)
        state.add("b", 0, 20.0, 22.0)  # duplicate later copy creates a gap
        # c on proc 0: a remote ready at 2+1+3=6; gap [2, 20) fits at 6
        assert state.earliest_start(C, 0, insertion=True) == 6.0

    def test_gap_too_small_skipped(self, state):
        state.add("a", 0, 0.0, 2.0)
        state.add("b", 0, 3.0, 5.0)
        # c needs 2 time units; gap [2,3) too small -> append at 5
        assert state.earliest_start(C, 0, insertion=True) == 5.0


class TestPlace:
    def test_place_records_messages(self, state):
        state.add("a", 0, 0.0, 2.0)
        state.add("b", 1, 0.0, 2.0)
        state.place(C, 0, 4.0)
        s = state.sched
        assert s.primary("c").finish == 6.0
        # only b's edge crosses processors
        assert len(s.messages) == 1
        msg = s.messages[0]
        assert (msg.src_task, msg.dst_task) == ("b", "c")
        assert msg.route == (1, 0)

    def test_place_local_no_messages(self, state):
        state.add("a", 0, 0.0, 2.0)
        state.add("b", 0, 2.0, 4.0)
        state.place(C, 0, 4.0)
        assert state.sched.messages == []


class TestBestProcessor:
    def test_prefers_data_locality(self, state):
        state.add("a", 1, 0.0, 2.0)
        state.add("b", 1, 2.0, 4.0)
        proc, start = state.best_processor(C)
        assert proc == 1
        assert start == 4.0

    def test_deterministic_tie_break(self, state):
        proc, start = state.best_processor(A)
        assert (proc, start) == (0, 0.0)


class TestReadyTasks:
    """The ready structures offer exactly the tasks whose predecessors are done."""

    def test_initial_ready(self, kernel):
        assert sorted(ReadySet(kernel)) == [A, B]
        heap = ReadyHeap(kernel, key=lambda i: (i,))
        assert [heap.pop(), heap.pop()] == [A, B]

    def test_after_preds_done(self, kernel):
        ready = ReadySet(kernel)
        assert ready.complete(A) == []
        assert sorted(ready) == [B]
        assert ready.complete(B) == [C]  # the indices this completion released
        assert sorted(ready) == [C]
        # the same two states, entered from an already-placed prefix
        heap = ReadyHeap(kernel, key=lambda i: (i,), placed={A})
        assert (len(heap), heap.pop()) == (1, B)
        heap = ReadyHeap(kernel, key=lambda i: (i,), placed={A, B})
        assert (len(heap), heap.pop()) == (1, C)

    def test_all_done(self, kernel):
        ready = ReadySet(kernel)
        for i in (A, B, C):
            ready.complete(i)
        assert len(ready) == 0
        heap = ReadyHeap(kernel, key=lambda i: (i,), placed={A, B, C})
        with pytest.raises(ScheduleError, match="no ready task"):
            heap.pop()
