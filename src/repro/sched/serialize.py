"""Schedule (de)serialization: save a Gantt chart, reload it later.

A schedule document embeds its task graph and machine so it is
self-contained; loading reconstructs a fully functional
:class:`~repro.sched.schedule.Schedule` that can be rendered, simulated,
edited, and code-generated.  A document that is the base of an edit is read
by :func:`base_schedule_from_dict` instead: the same checks, keeping only
what re-timing reads.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Any, Callable

from repro.errors import ScheduleError, malformed_as
from repro.graph.serialize import taskgraph_from_dict, taskgraph_to_dict, tasktable_from_dict
from repro.graph.taskgraph import TaskTable
from repro.machine.machine import TargetMachine
from repro.sched.incremental import BaseSchedule, Replay
from repro.sched.schedule import Message, Schedule, check_transfer

FORMAT_VERSION = 1


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "type": "schedule",
        "scheduler": schedule.scheduler,
        "graph": taskgraph_to_dict(schedule.graph),
        "machine": schedule.machine.to_dict(),
        "placements": [
            {"task": e.task, "proc": e.proc, "start": e.start, "finish": e.finish}
            for e in schedule
        ],
        "messages": [
            {
                "src_task": m.src_task,
                "dst_task": m.dst_task,
                "var": m.var,
                "size": m.size,
                "src_proc": m.src_proc,
                "dst_proc": m.dst_proc,
                "start": m.start,
                "finish": m.finish,
                "route": list(m.route),
            }
            for m in schedule.messages
        ],
    }


def _read(
    data: dict[str, Any], read_graph: Callable[[dict[str, Any]], TaskTable]
) -> tuple[Schedule, list[tuple]]:
    """A schedule document's placements over ``read_graph`` of its graph,
    and its messages as :class:`Message` field tuples: every check a
    schedule document gets, in one order, whichever reader asks."""
    if data.get("type") != "schedule":
        raise ScheduleError(f"not a schedule document (type={data.get('type')!r})")
    graph = read_graph(data["graph"])
    machine = TargetMachine.from_dict(data["machine"])
    schedule = Schedule(graph, machine, scheduler=data.get("scheduler", ""))
    for p in data.get("placements", []):
        schedule.add(p["task"], p["proc"], p["start"], p["finish"])
    messages = []
    for m in data.get("messages", []):
        fields = (
            m["src_task"], m["dst_task"], m.get("var", ""), m.get("size", 1.0),
            m["src_proc"], m["dst_proc"], m["start"], m["finish"],
            tuple(m.get("route", ())),
        )
        check_transfer(fields[0], fields[1], fields[6], fields[7])
        messages.append(fields)
    return schedule, messages


@malformed_as(ScheduleError, "schedule")
def schedule_from_dict(data: dict[str, Any]) -> Schedule:
    schedule, messages = _read(data, taskgraph_from_dict)
    for fields in messages:
        schedule.add_message(Message(*fields))
    return schedule


@malformed_as(ScheduleError, "schedule")
def base_schedule_from_dict(data: dict[str, Any]) -> BaseSchedule:
    """A schedule document as the base of an edit (:class:`BaseSchedule`).

    Refused wherever :func:`schedule_from_dict` refuses it, by the same
    checks, but the embedded graph is kept only as the
    :class:`~repro.graph.taskgraph.TaskTable` re-timing reads and the
    messages are checked and dropped (re-timing derives them again).  The
    whole schedule is read from the document only if asked for.
    """
    placed, _ = _read(data, tasktable_from_dict)
    return base_schedule_over(placed, data)


def base_schedule_over(
    placed: Schedule, data: dict[str, Any], replay: Replay | None = None
) -> BaseSchedule:
    """The :class:`BaseSchedule` of ``data`` whose placements are ``placed``,
    read earlier from ``data`` or from a document equal to it, with their
    kept ``replay`` if any; the whole schedule is read from ``data`` only if
    asked for."""
    return BaseSchedule(placed, partial(schedule_from_dict, data), replay)


def schedule_to_json(schedule: Schedule, indent: int | None = 2) -> str:
    return json.dumps(schedule_to_dict(schedule), indent=indent)


def schedule_from_json(text: str) -> Schedule:
    return schedule_from_dict(json.loads(text))
