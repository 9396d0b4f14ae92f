"""An edit's ``base_schedule`` is read whole, by the one schedule reader.

The ``/schedule`` op reads a base document with ``schedule_from_dict``, as
every other schedule document is read.  What it answers and what it
refuses must be what that reader gives:

* the reply to every kind of edit equals the one built directly from
  ``incremental_reschedule(schedule_from_dict(base), flat)``, byte for byte;
* every mutated base the reader refuses, the op refuses when it reads its
  options, before any run, as ``malformed base_schedule`` with the
  reader's message;
* a base made on another machine is scheduled from scratch (``"cold"``),
  as :meth:`BangerProject.reschedule` does.
"""

from __future__ import annotations

import copy
from dataclasses import asdict

import pytest

from repro.env.project import BangerProject
from repro.errors import ReproError
from repro.graph.generators import as_dataflow, random_layered
from repro.graph.taskgraph import TaskGraph
from repro.machine import NCUBE_LIKE, MachineParams
from repro.sched.incremental import incremental_reschedule
from repro.sched.serialize import schedule_from_dict, schedule_to_dict
from repro.sched.metrics import report
from repro.server import ops
from repro.server.protocol import json_body

PARAMS = MachineParams(msg_startup=0.3, transmission_rate=10.0, hop_latency=0.1)
GRAPH = random_layered(40, 5, edge_prob=0.2, seed=3)


@pytest.fixture(autouse=True)
def fresh_service():
    ops.shared_service().clear()
    yield
    ops.shared_service().clear()


def _doc(graph: TaskGraph, family: str = "hypercube", procs: int = 8,
         params: MachineParams = PARAMS) -> dict:
    project = BangerProject("base").set_design(as_dataflow(graph))
    return project.set_machine(family, procs, params).to_dict()


def _rebuilt(tasks: list[tuple], edges: list[tuple]) -> TaskGraph:
    graph = TaskGraph(GRAPH.name)
    for name, work, label in tasks:
        graph.add_task(name, work=work, label=label)
    for src, dst, var, size in edges:
        graph.add_edge(src, dst, var=var, size=size)
    return graph


def _edited(kind: str) -> TaskGraph:
    """``GRAPH`` after one edit of ``kind``."""
    tasks = [(t.name, t.work, t.label) for t in GRAPH.tasks]
    edges = [(e.src, e.dst, e.var, e.size) for e in GRAPH.edges]
    mid = len(tasks) // 2
    if kind == "work":
        name, work, label = tasks[mid]
        tasks[mid] = (name, work * 2.0 + 1.0, label)
    elif kind == "edge size":
        src, dst, var, size = edges[len(edges) // 2]
        edges[len(edges) // 2] = (src, dst, var, size * 3.0)
    elif kind == "edge added":
        edges.append((tasks[0][0], tasks[-1][0], "extra", 2.0))
    elif kind == "edge removed":
        edges.pop(len(edges) // 2)
    elif kind == "task added":
        tasks.append(("bolted_on", 2.5, ""))
        edges.append((tasks[mid][0], "bolted_on", "b", 1.0))
    elif kind == "task deleted":
        gone = tasks.pop(mid)[0]
        edges = [e for e in edges if gone not in (e[0], e[1])]
    elif kind == "label only":
        name, work, _ = tasks[mid]
        tasks[mid] = (name, work, "renamed")
    return _rebuilt(tasks, edges)


def _refused(exc: ReproError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _reply(payload: dict) -> bytes | str:
    try:
        return json_body(ops.op_schedule(payload))
    except ReproError as exc:
        return _refused(exc)


def _direct(payload: dict) -> bytes | str:
    """The reply built by hand from ``incremental_reschedule`` over the
    whole base schedule and the project's flat graph, as the op's reply
    would quote it."""
    project = BangerProject.from_dict(payload["project"])
    try:
        result = incremental_reschedule(
            schedule_from_dict(payload["base_schedule"]), project.flat())
    except ReproError as exc:
        return _refused(ops.OpError(f"incremental reschedule failed: {exc}"))
    schedule = result.schedule
    return json_body({
        "type": "banger-schedule",
        "project": project.name,
        "scheduler": schedule.scheduler,
        "n_procs": schedule.machine.n_procs,
        "makespan": schedule.makespan(),
        "report": asdict(report(schedule)),
        "schedule": schedule_to_dict(schedule),
        "incremental": {
            "n_tasks": result.n_tasks,
            "n_dirty": result.n_dirty,
            "n_reused": result.n_reused,
            "reused_fraction": result.reused_fraction,
            "unchanged": result.unchanged,
            "fallback": result.fallback,
        },
    })


def _both(payload: dict) -> tuple:
    """``payload``'s reply from the op, then the one built directly."""
    return _reply(payload), _direct(payload)


def _base(scheduler: str = "mh", **machine) -> dict:
    return ops.op_schedule({"project": _doc(GRAPH, **machine),
                            "scheduler": scheduler})["schedule"]


@pytest.mark.parametrize("kind", [
    "work", "edge size", "edge added", "edge removed", "task added",
    "task deleted", "label only", "unchanged",
])
def test_every_edit_kind_answers_what_the_whole_base_answers(kind):
    payload = {"project": _doc(_edited(kind)), "base_schedule": _base()}
    new, old = _both(payload)
    assert isinstance(new, bytes), new
    assert new == old


def test_a_duplicated_base_answers_what_the_whole_base_answers():
    base = _base("dsh", params=NCUBE_LIKE)
    if not schedule_from_dict(base).has_duplication():
        pytest.skip("dsh did not duplicate on this input")
    for kind in ("work", "unchanged"):
        payload = {"project": _doc(_edited(kind), params=NCUBE_LIKE),
                   "base_schedule": base}
        new, old = _both(payload)
        assert isinstance(new, bytes) and new == old


def test_an_incomplete_base_answers_what_the_whole_base_answers():
    base = _base()
    base["placements"].pop()
    unchanged = _both({"project": _doc(GRAPH), "base_schedule": base})
    assert isinstance(unchanged[0], bytes) and unchanged[0] == unchanged[1]
    edited = _both({"project": _doc(_edited("work")), "base_schedule": base})
    assert "complete previous schedule" in edited[0] and edited[0] == edited[1]


def _overlap(doc: dict) -> None:
    first, second = doc["placements"][:2]
    second.update(proc=first["proc"], start=first["start"], finish=first["finish"])


MUTATIONS = {
    "not a schedule": lambda d: d.update(type="nope"),
    "no graph": lambda d: d.pop("graph"),
    "graph not a taskgraph": lambda d: d["graph"].update(type="dataflow"),
    "unknown edge endpoint": lambda d: d["graph"]["edges"][0].update(src="ghost"),
    "duplicate task": lambda d: d["graph"]["tasks"].append(
        copy.deepcopy(d["graph"]["tasks"][0])),
    "duplicate edge": lambda d: d["graph"]["edges"].append(
        copy.deepcopy(d["graph"]["edges"][0])),
    "negative work": lambda d: d["graph"]["tasks"][0].update(work=-1.0),
    "negative size": lambda d: d["graph"]["edges"][0].update(size=-2.0),
    "self-loop": lambda d: d["graph"]["edges"][0].update(
        dst=d["graph"]["edges"][0]["src"]),
    "non-dict meta": lambda d: d["graph"]["tasks"][0].update(meta=[1, 2]),
    "bindings not a dict": lambda d: d["graph"].update(graph_inputs=[1]),
    "bad machine": lambda d: d["machine"]["topology"].update(n_procs="four"),
    "placement of an unknown task": lambda d: d["placements"][0].update(task="ghost"),
    "out-of-range proc": lambda d: d["placements"][0].update(proc=99),
    "overlap": _overlap,
    "negative start": lambda d: d["placements"][0].update(start=-1.0),
    "finish before start": lambda d: d["placements"][0].update(
        finish=d["placements"][0]["start"] - 1.0),
    "message missing a key": lambda d: d["messages"][0].pop("dst_proc"),
    "message finish before start": lambda d: d["messages"][0].update(
        finish=d["messages"][0]["start"] - 1.0),
    "placements not a list": lambda d: d.update(placements=5),
}


def _refusal(read, doc: dict) -> str | None:
    """The message ``read(doc)`` refuses ``doc`` with, if any."""
    try:
        read(doc)
    except ReproError as exc:
        return str(exc)
    return None


def _options(doc: dict) -> None:
    ops.schedule_options({"base_schedule": doc})


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_both_readers_refuse_the_same_bases(name):
    """The reader called directly, and the op reading its options: the op
    refuses with the reader's own message."""
    doc = _base()
    assert doc["messages"], "the table needs a base with messages"
    MUTATIONS[name](doc)
    refused = _refusal(schedule_from_dict, doc)
    assert refused is not None
    with pytest.raises(ops.OpError) as exc:
        _options(doc)
    assert str(exc.value) == f"malformed base_schedule: {refused}"


def test_an_untouched_base_is_accepted_by_both_readers():
    doc = _base()
    assert _refusal(schedule_from_dict, doc) is None
    assert _refusal(_options, doc) is None


def test_a_base_from_another_machine_is_scheduled_cold():
    base = _base(family="mesh", procs=4)
    project = _doc(GRAPH)
    reply = ops.op_schedule({"project": project, "base_schedule": base})
    assert reply["n_procs"] == 8
    assert reply["incremental"]["fallback"] == "cold"
    assert reply["incremental"]["n_reused"] == 0
    assert reply["schedule"] == ops.op_schedule({"project": project})["schedule"]
