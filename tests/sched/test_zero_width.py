"""Zero-width tasks: with no process startup, a task of work 0 takes no
time, and a wide task placed at its start on the same processor is no
overlap.  :meth:`Schedule.add` puts a placement after the zero-width
placements that share its start."""

import pytest

from repro.errors import ScheduleError
from repro.graph import TaskGraph
from repro.graph.generators import random_layered
from repro.machine import IDEAL, MachineParams, make_machine
from repro.sched import Schedule, check_schedule
from repro.sched.registry import SCHEDULERS, get_scheduler


def _design() -> TaskGraph:
    """24 layered tasks, every fourth of work 0."""
    graph = random_layered(24, 6, edge_prob=0.12, seed=4)
    for index, name in enumerate(graph.task_names):
        if index % 4 == 0:
            graph.set_work(name, 0.0)
    return graph


@pytest.mark.parametrize("name", sorted(set(SCHEDULERS) - {"exhaustive"}))
def test_every_scheduler_schedules_zero_width_tasks(name):
    machine = make_machine("hypercube", 8, MachineParams())
    assert machine.params.process_startup == 0.0
    schedule = get_scheduler(name).schedule(_design(), machine)
    check_schedule(schedule)


def _graph() -> TaskGraph:
    graph = TaskGraph("g")
    graph.add_task("z", work=0)
    graph.add_task("y", work=0)
    graph.add_task("w", work=2)
    return graph


def test_a_wide_placement_goes_after_zero_width_ones_at_its_start():
    schedule = Schedule(_graph(), make_machine("full", 1, IDEAL))
    schedule.add("z", 0, 1.0, 1.0)
    schedule.add("w", 0, 1.0, 3.0)
    schedule.add("y", 0, 1.0, 1.0)
    assert [p.task for p in schedule.timeline(0)] == ["z", "y", "w"]
    assert schedule.proc_tail(0) == 3.0


def test_a_zero_width_placement_inside_a_wide_one_still_overlaps():
    schedule = Schedule(_graph(), make_machine("full", 1, IDEAL))
    schedule.add("w", 0, 1.0, 3.0)
    with pytest.raises(ScheduleError, match="overlaps"):
        schedule.add("z", 0, 2.0, 2.0)
