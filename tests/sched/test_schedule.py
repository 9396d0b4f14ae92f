"""Unit tests for the Schedule container itself."""

import pytest

from repro.errors import ScheduleError
from repro.graph import TaskGraph
from repro.machine import IDEAL, MachineParams, make_machine
from repro.sched import Message, Placement, Schedule


@pytest.fixture
def graph():
    tg = TaskGraph("g")
    tg.add_task("a", work=2)
    tg.add_task("b", work=3)
    tg.add_task("c", work=1)
    tg.add_edge("a", "b", var="x", size=1)
    return tg


@pytest.fixture
def machine():
    return make_machine("full", 2, IDEAL)


@pytest.fixture
def sched(graph, machine):
    return Schedule(graph, machine, scheduler="test")


class TestPlacement:
    def test_duration(self):
        p = Placement("a", 0, 1.0, 3.5)
        assert p.duration == 2.5

    def test_rejects_negative_start(self):
        with pytest.raises(ScheduleError):
            Placement("a", 0, -1.0, 0.0)

    def test_rejects_finish_before_start(self):
        with pytest.raises(ScheduleError):
            Placement("a", 0, 2.0, 1.0)


class TestAdd:
    def test_basic_add_and_lookup(self, sched):
        sched.add("a", 0, 0.0, 2.0)
        assert "a" in sched
        assert sched.proc_of("a") == 0
        assert sched.primary("a").finish == 2.0

    def test_unknown_task_rejected(self, sched):
        with pytest.raises(ScheduleError, match="not in graph"):
            sched.add("zz", 0, 0.0, 1.0)

    def test_unknown_proc_rejected(self, sched):
        with pytest.raises(ScheduleError, match="out of range"):
            sched.add("a", 5, 0.0, 1.0)

    def test_overlap_rejected(self, sched):
        sched.add("a", 0, 0.0, 2.0)
        with pytest.raises(ScheduleError, match="overlaps"):
            sched.add("b", 0, 1.0, 4.0)

    def test_overlap_rejected_before(self, sched):
        sched.add("a", 0, 2.0, 4.0)
        with pytest.raises(ScheduleError, match="overlaps"):
            sched.add("b", 0, 0.0, 3.0)

    def test_adjacent_ok(self, sched):
        sched.add("a", 0, 0.0, 2.0)
        sched.add("b", 0, 2.0, 5.0)  # touching is fine
        assert sched.proc_finish(0) == 5.0

    def test_insertion_into_gap(self, sched):
        sched.add("a", 0, 0.0, 2.0)
        sched.add("b", 0, 5.0, 8.0)
        sched.add("c", 0, 3.0, 4.0)
        assert [e.task for e in sched.on_proc(0)] == ["a", "c", "b"]

    def test_duplication_allowed_across_procs(self, sched):
        sched.add("a", 0, 0.0, 2.0)
        sched.add("a", 1, 0.0, 2.0)
        assert len(sched.placements("a")) == 2
        assert sched.has_duplication()

    def test_same_slot_duplicate_rejected(self, sched):
        sched.add("a", 0, 0.0, 2.0)
        with pytest.raises(ScheduleError, match="twice|overlaps"):
            sched.add("a", 0, 0.0, 2.0)


class TestQueries:
    def test_makespan(self, sched):
        assert sched.makespan() == 0.0
        sched.add("a", 0, 0.0, 2.0)
        sched.add("b", 1, 1.0, 4.0)
        assert sched.makespan() == 4.0
        assert repr(sched) == "Schedule('test', graph='g', machine='full(2)', makespan=4.000)"

    def test_primary_is_earliest_finish(self, sched):
        sched.add("a", 0, 0.0, 5.0)
        sched.add("a", 1, 0.0, 2.0)
        assert sched.primary("a").proc == 1

    def test_assignment(self, sched):
        sched.add("a", 1, 0.0, 2.0)
        sched.add("b", 0, 0.0, 3.0)
        assert sched.assignment() == {"a": 1, "b": 0}

    def test_busy_idle(self, sched):
        sched.add("a", 0, 0.0, 2.0)
        sched.add("b", 0, 4.0, 7.0)
        assert sched.busy_time(0) == 5.0
        assert sched.idle_time(0) == 2.0
        assert sched.idle_time(1) == 7.0

    def test_gaps(self, sched):
        sched.add("a", 0, 1.0, 2.0)
        sched.add("b", 0, 4.0, 7.0)
        assert sched.gaps(0) == [(0.0, 1.0), (2.0, 4.0)]

    def test_gaps_empty_timeline(self, sched):
        assert sched.gaps(1) == []

    def test_procs_used(self, sched):
        sched.add("a", 1, 0.0, 1.0)
        assert sched.procs_used() == [1]

    def test_is_complete(self, sched):
        sched.add("a", 0, 0.0, 2.0)
        assert not sched.is_complete()
        sched.add("b", 0, 3.0, 6.0)
        sched.add("c", 1, 0.0, 1.0)
        assert sched.is_complete()

    def test_unscheduled_placements_raise(self, sched):
        with pytest.raises(ScheduleError, match="not been scheduled"):
            sched.placements("a")

    def test_iteration_orders_by_proc_then_time(self, sched):
        sched.add("b", 1, 0.0, 3.0)
        sched.add("a", 0, 1.0, 3.0)
        sched.add("c", 0, 0.0, 1.0)
        assert [(e.task, e.proc) for e in sched] == [("c", 0), ("a", 0), ("b", 1)]

    def test_len_counts_copies(self, sched):
        sched.add("a", 0, 0.0, 2.0)
        sched.add("a", 1, 0.0, 2.0)
        assert len(sched) == 2


class TestMessage:
    def test_message_fields(self):
        m = Message("a", "b", "x", 2.0, 0, 1, 1.0, 3.0, route=(0, 1))
        assert m.size == 2.0
        assert m.route == (0, 1)

    def test_message_rejects_bad_interval(self):
        with pytest.raises(ScheduleError):
            Message("a", "b", "x", 2.0, 0, 1, 3.0, 1.0)

    def test_add_message(self, sched):
        sched.add_message(Message("a", "b", "x", 1.0, 0, 1, 0.0, 1.0))
        assert len(sched.messages) == 1
