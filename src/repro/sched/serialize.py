"""Schedule (de)serialization: save a Gantt chart, reload it later.

A schedule document embeds its task graph and machine so it is
self-contained; loading reconstructs a fully functional
:class:`~repro.sched.schedule.Schedule` that can be rendered, simulated,
edited, and code-generated.

This module also owns the document's bytes as the daemon replies them
(:func:`encode_json`).  A schedule forked off a kept replay is encoded by
:func:`fork_reply`, spliced from pieces the replay keeps and held byte
for byte to ``encode_json(schedule_to_dict(schedule))``.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ScheduleError, malformed_as
from repro.graph.serialize import task_to_dict, taskgraph_from_dict, taskgraph_to_dict
from repro.machine.machine import TargetMachine
from repro.sched.incremental import Fork
from repro.sched.metrics import ScheduleReport, message_stats, report, zero_comm_levels
from repro.sched.schedule import Message, Placement, Schedule

FORMAT_VERSION = 1


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    return _document(
        schedule,
        taskgraph_to_dict(schedule.graph),
        schedule.machine.to_dict(),
        [_placement_dict(e) for e in schedule],
        [_message_dict(m) for m in schedule.messages],
    )


def _document(schedule: Schedule, graph: Any, machine: Any,
              placements: Any, messages: Any) -> dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "type": "schedule",
        "scheduler": schedule.scheduler,
        "graph": graph,
        "machine": machine,
        "placements": placements,
        "messages": messages,
    }


def _placement_dict(e: Placement) -> dict[str, Any]:
    return {"task": e.task, "proc": e.proc, "start": e.start, "finish": e.finish}


def _message_dict(m: Message) -> dict[str, Any]:
    return {
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


# --------------------------------------------------------------------- #
# the reply's encoding, spliced from encoded pieces
# --------------------------------------------------------------------- #
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _piece(value: Any) -> bytes:
    return _encode(value).encode("utf-8")


def encode_json(doc: Any) -> bytes:
    """``doc`` as the daemon encodes a reply: sorted keys, compact, UTF-8.

    A :class:`bytes` value of a mapping ``doc`` is taken as a value already
    so encoded, and spliced in as it is; no deeper value may be bytes.
    """
    if not isinstance(doc, dict) or not any(isinstance(v, bytes) for v in doc.values()):
        return _piece(doc)
    return b"{" + b",".join(
        _piece(key) + b":" + (value if isinstance(value, bytes) else _piece(value))
        for key, value in sorted(doc.items())
    ) + b"}"


def _array(items: list[bytes]) -> bytes:
    return b"[" + b",".join(items) + b"]"


class ForkReply:
    """What the replies of the schedules forked off one kept replay
    (:class:`repro.sched.incremental.Replay`) reuse: each fork's
    :func:`~repro.sched.metrics.report` and its document's bytes, made by
    :meth:`reply` at the cost of its edit.

    A fork shares the replay's frozen placements and messages
    (:meth:`Schedule.take_prefix`) and its machine, so those are encoded
    once; a fork encodes only its dirty placements and the messages into
    them.  It keeps every task on its base processor, so over one edge list
    every fork's :func:`~repro.sched.metrics.message_stats` are equal.  And
    a fork's graph differs from the one before it, over whose very edges it
    is, only in its :attr:`~repro.sched.incremental.Fork.changed` tasks:
    only their entries are encoded again, and only they and their ancestors
    levelled again.  What was read off the fork before is read again whole
    for any other fork: the first, one over other edges, or one after a fork
    this reply was not made for.
    """

    def __init__(self, replayed: Schedule) -> None:
        self._replayed = replayed  # keeps every piece's object, and so its id
        self._machine = _piece(replayed.machine.to_dict())
        self._placements = {id(e): _piece(_placement_dict(e)) for e in replayed}
        self._messages = {id(m): _piece(_message_dict(m)) for m in replayed.messages}
        self._n = 0  # the fork last read
        self._stats: tuple[int, float] = (0, 0.0)
        self._levels: dict[str, float] = {}
        self._entries: list[str] = []
        self._tasks: list[bytes] = []
        self._rest: dict[str, bytes] = {}

    def reply(self, schedule: Schedule, fork: Fork) -> tuple[ScheduleReport, bytes]:
        """``(report(schedule), encode_json(schedule_to_dict(schedule)))``
        of the ``schedule`` forked as ``fork``."""
        self._read(schedule, fork.changed if fork.n == self._n + 1 else None)
        self._n = fork.n
        critical_path = max((self._levels[t] for t in self._entries), default=0.0)
        placements, messages = self._placements, self._messages
        document = encode_json(_document(
            schedule,
            encode_json({**self._rest, "tasks": _array(self._tasks)}),
            self._machine,
            _array([placements.get(id(e)) or _piece(_placement_dict(e))
                    for e in schedule]),
            _array([messages.get(id(m)) or _piece(_message_dict(m))
                    for m in schedule.messages]),
        ))
        return report(schedule, self._stats, critical_path), document

    def _read(self, schedule: Schedule, changed: list[str] | None) -> None:
        graph = schedule.graph
        if changed is None:
            self._stats = message_stats(schedule)
            self._levels = zero_comm_levels(schedule)
            self._entries = graph.entry_tasks()
            doc = taskgraph_to_dict(graph)
            self._tasks = [_piece(task) for task in doc.pop("tasks")]
            self._rest = {key: _piece(value) for key, value in doc.items()}
        elif changed:
            self._levels = zero_comm_levels(schedule, changed, self._levels)
            at = {name: i for i, name in enumerate(graph.task_names)}
            for name in changed:
                self._tasks[at[name]] = _piece(task_to_dict(graph.task(name)))


def fork_reply(schedule: Schedule, fork: Fork) -> tuple[ScheduleReport, bytes]:
    """:func:`~repro.sched.metrics.report` of the ``schedule`` forked as
    ``fork``, and ``encode_json(schedule_to_dict(schedule))``, made by the
    :class:`ForkReply` its replay keeps."""
    replay = fork.replay
    if replay.reply is None:
        replay.reply = ForkReply(replay())
    return replay.reply.reply(schedule, fork)


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
