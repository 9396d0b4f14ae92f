"""Incremental rescheduling: byte-identical to the full reference, always
feasible, and honest about what it reused."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.conformance.generators import CaseGenerator
from repro.errors import ScheduleError
from repro.graph.generators import fork_join, random_layered
from repro.machine import MachineParams, NCUBE_LIKE, make_machine
from repro.sched import (
    full_reschedule,
    get_scheduler,
    incremental_reschedule,
    schedule_problems,
)
from repro.sched.incremental import NAME_SUFFIX, dirty_tasks
from repro.sched.serialize import schedule_to_json

PARAMS = MachineParams(msg_startup=0.4, transmission_rate=6.0, hop_latency=0.1)


def _prev(graph, machine, scheduler="mh"):
    return get_scheduler(scheduler).schedule(graph, machine)


class TestUnchanged:
    def test_identical_graph_returns_prior_verbatim(self):
        graph = random_layered(30, 4, seed=11)
        prev = _prev(graph, make_machine("hypercube", 4, PARAMS))
        result = incremental_reschedule(prev, graph.copy())
        assert result.unchanged
        assert result.schedule is prev
        assert result.n_dirty == 0
        assert result.n_reused == result.n_tasks == len(graph)
        assert result.reused_fraction == 1.0
        assert full_reschedule(prev, graph.copy()) is prev

    def test_label_edit_dirties_nothing(self):
        graph = random_layered(20, 3, seed=2)
        edited = graph.copy()
        edited.task(edited.task_names[0]).label = "renamed"
        assert dirty_tasks(graph, edited) == set()


class TestSingleEdit:
    def test_work_edit_matches_full_reference(self):
        graph = random_layered(60, 6, seed=7)
        prev = _prev(graph, make_machine("hypercube", 8, PARAMS))
        edited = graph.copy()
        victim = edited.task_names[len(edited) // 2]
        edited.set_work(victim, edited.work(victim) * 3.0 + 1.0)

        result = incremental_reschedule(prev, edited)
        assert not result.unchanged
        assert result.fallback is None
        # a proper, non-empty prefix of the schedule is reused
        assert 0 < result.n_dirty < result.n_tasks
        assert result.n_dirty + result.n_reused == result.n_tasks
        assert schedule_problems(result.schedule) == []
        assert schedule_to_json(result.schedule) == schedule_to_json(
            full_reschedule(prev, edited)
        )
        assert result.schedule.scheduler == "mh" + NAME_SUFFIX

    def test_added_node_is_placed_greedily(self):
        graph = random_layered(24, 4, seed=3)
        prev = _prev(graph, make_machine("mesh", 4, PARAMS), "etf")
        edited = graph.copy()
        tail = edited.task_names[-1]
        edited.add_task("bolted_on", work=2.5)
        edited.add_edge(tail, "bolted_on", var="x", size=1.0)

        result = incremental_reschedule(prev, edited)
        assert "bolted_on" in result.schedule.scheduled_tasks()
        assert schedule_problems(result.schedule) == []
        assert schedule_to_json(result.schedule) == schedule_to_json(
            full_reschedule(prev, edited)
        )

    def test_removed_node_disappears(self):
        from repro.graph.taskgraph import TaskGraph

        graph = fork_join(6)
        prev = _prev(graph, make_machine("full", 4, PARAMS))
        sink = [t for t in graph.task_names if not graph.successors(t)][0]
        edited = TaskGraph(graph.name)
        for t in graph.task_names:
            if t != sink:
                spec = graph.task(t)
                edited.add_task(t, spec.work, spec.label, spec.program)
        for e in graph.edges:
            if sink not in (e.src, e.dst):
                edited.add_edge(e.src, e.dst, var=e.var, size=e.size)

        result = incremental_reschedule(prev, edited)
        assert sink not in result.schedule.scheduled_tasks()
        assert schedule_problems(result.schedule) == []
        assert schedule_to_json(result.schedule) == schedule_to_json(
            full_reschedule(prev, edited)
        )

    def test_duplicating_scheduler_falls_back(self):
        graph = random_layered(20, 4, seed=9)
        prev = _prev(graph, make_machine("hypercube", 4, NCUBE_LIKE), "dsh")
        if not prev.has_duplication():
            pytest.skip("dsh did not duplicate on this input")
        edited = graph.copy()
        edited.set_work(edited.task_names[0], 9.0)
        result = incremental_reschedule(prev, edited)
        assert result.fallback == "duplication"
        assert result.n_dirty == result.n_tasks
        assert schedule_problems(result.schedule) == []

    def test_incomplete_prior_rejected(self):
        graph = fork_join(3)
        machine = make_machine("full", 2, PARAMS)
        prev = _prev(graph, machine)
        bigger = graph.copy()
        bigger.add_task("extra", work=1.0)
        # A schedule of the smaller graph is incomplete w.r.t. nothing — but
        # reversed, the prior graph has a task the schedule never placed.
        from repro.sched.schedule import Schedule

        partial = Schedule(bigger, machine, scheduler="mh")
        with pytest.raises(ScheduleError, match="complete previous schedule"):
            incremental_reschedule(partial, graph)


# Conformance-fuzzer graph families x machine families x deterministic
# schedulers, driven by Hypothesis: one random node's work is edited, and
# the incremental answer must be feasible and byte-identical to the
# full-reference reschedule.
@given(seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_property_single_edit_byte_identical(seed, pick):
    gen = CaseGenerator(seed)
    case = gen.next_graph_case()
    graph = case.taskgraph()
    machine = case.machine()
    prev = get_scheduler(case.scheduler).schedule(graph, machine)

    edited = graph.copy()
    victim = edited.task_names[pick % len(edited)]
    edited.set_work(victim, round(edited.work(victim) * 1.5 + 0.25, 6))

    result = incremental_reschedule(prev, edited)
    assert schedule_problems(result.schedule) == []
    assert result.n_dirty + result.n_reused == result.n_tasks
    reference = full_reschedule(prev, edited)
    assert schedule_to_json(result.schedule) == schedule_to_json(reference)

    # And a no-op edit hands the prior schedule back untouched.
    assert incremental_reschedule(prev, graph.copy()).schedule is prev


class TestProjectFacade:
    def _project(self, graph):
        from repro.env import BangerProject
        from repro.graph.generators import as_dataflow

        return (
            BangerProject("inc")
            .set_design(as_dataflow(graph))
            .set_machine("hypercube", 4, PARAMS)
        )

    def test_cold_then_warm(self):
        graph = random_layered(30, 4, seed=21)
        project = self._project(graph)

        cold = project.reschedule("mh")
        assert cold.fallback == "cold"
        assert cold.n_reused == 0

        edited = graph.copy()
        edited.set_work(edited.task_names[-1], 12.0)
        from repro.graph.generators import as_dataflow

        project.set_design(as_dataflow(edited))
        warm = project.reschedule("mh")
        assert warm.fallback is None
        assert warm.n_reused > 0
        assert schedule_problems(warm.schedule) == []

    def test_machine_change_goes_cold_again(self):
        graph = random_layered(20, 3, seed=5)
        project = self._project(graph)
        project.reschedule("mh")
        project.set_machine("mesh", 4, PARAMS)
        assert project.reschedule("mh").fallback == "cold"

    def test_schedule_seeds_the_prior(self):
        graph = random_layered(25, 4, seed=8)
        project = self._project(graph)
        project.schedule("mh")  # a plain schedule is a usable prior
        from repro.graph.generators import as_dataflow

        edited = graph.copy()
        edited.set_work(edited.task_names[0], 7.5)
        project.set_design(as_dataflow(edited))
        assert project.reschedule("mh").fallback is None

    def test_incremental_results_never_pollute_the_service_cache(self):
        graph = random_layered(20, 3, seed=13)
        project = self._project(graph)
        project.reschedule("mh")
        edited = graph.copy()
        edited.set_work(edited.task_names[0], 5.5)
        from repro.graph.generators import as_dataflow

        project.set_design(as_dataflow(edited))
        incremental = project.reschedule("mh").schedule
        fresh = project.schedule("mh")  # the scheduler's own cached answer
        assert fresh.scheduler == "mh"
        assert incremental.scheduler == "mh" + NAME_SUFFIX
