"""Schedule (de)serialization: save a Gantt chart, reload it later.

A schedule document embeds its task graph and machine so it is
self-contained; loading reconstructs a fully functional
:class:`~repro.sched.schedule.Schedule` that can be rendered, simulated,
edited, and code-generated.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ScheduleError, malformed_as
from repro.graph.serialize import taskgraph_from_dict, taskgraph_to_dict
from repro.machine.machine import TargetMachine
from repro.sched.schedule import Message, Schedule

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


@malformed_as(ScheduleError, "schedule")
def schedule_from_dict(data: dict[str, Any]) -> Schedule:
    if data.get("type") != "schedule":
        raise ScheduleError(f"not a schedule document (type={data.get('type')!r})")
    graph = taskgraph_from_dict(data["graph"])
    machine = TargetMachine.from_dict(data["machine"])
    schedule = Schedule(graph, machine, scheduler=data.get("scheduler", ""))
    for p in data.get("placements", []):
        schedule.add(p["task"], p["proc"], p["start"], p["finish"])
    for m in data.get("messages", []):
        schedule.add_message(
            Message(
                src_task=m["src_task"],
                dst_task=m["dst_task"],
                var=m.get("var", ""),
                size=m.get("size", 1.0),
                src_proc=m["src_proc"],
                dst_proc=m["dst_proc"],
                start=m["start"],
                finish=m["finish"],
                route=tuple(m.get("route", ())),
            )
        )
    return schedule


def schedule_to_json(schedule: Schedule, indent: int | None = 2) -> str:
    return json.dumps(schedule_to_dict(schedule), indent=indent)


def schedule_from_json(text: str) -> Schedule:
    return schedule_from_dict(json.loads(text))
