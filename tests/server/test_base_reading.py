"""An edit's ``base_schedule`` is read against the request's own flat graph.

The ``/schedule`` op reads a base document into what re-timing needs — its
placements, machine, scheduler name and each embedded task's work and
in-edges — instead of rebuilding the whole schedule.  What it answers and
what it refuses must be what the whole schedule gave:

* the reply to every kind of edit equals the one built from
  ``incremental_reschedule(schedule_from_dict(base), flat)``, byte for byte;
* every mutated base the classic reader refuses, the new reader refuses
  with the same message, before any run;
* a base made on another machine is scheduled from scratch (``"cold"``),
  as :meth:`BangerProject.reschedule` does.
"""

from __future__ import annotations

import copy

import pytest

from repro.env.project import BangerProject
from repro.errors import ReproError
from repro.graph.generators import as_dataflow, random_layered
from repro.graph.taskgraph import TaskGraph
from repro.machine import NCUBE_LIKE, MachineParams
from repro.sched.incremental import BaseSchedule
from repro.sched.serialize import base_schedule_from_dict, schedule_from_dict
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


def _classic(doc: dict) -> BaseSchedule:
    return BaseSchedule.of(schedule_from_dict(doc))


def _reply(payload: dict) -> bytes | str:
    try:
        return json_body(ops.op_schedule(payload))
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}"


def _both(monkeypatch, payload: dict) -> tuple:
    """``payload``'s reply through the base reader, then through the
    classic whole-schedule reader."""
    new = _reply(payload)
    with monkeypatch.context() as patch:
        patch.setattr(ops, "base_schedule_from_dict", _classic)
        old = _reply(payload)
    return new, old


def _base(scheduler: str = "mh", **machine) -> dict:
    return ops.op_schedule({"project": _doc(GRAPH, **machine),
                            "scheduler": scheduler})["schedule"]


@pytest.mark.parametrize("kind", [
    "work", "edge size", "edge added", "edge removed", "task added",
    "task deleted", "label only", "unchanged",
])
def test_every_edit_kind_answers_what_the_whole_base_answers(monkeypatch, kind):
    payload = {"project": _doc(_edited(kind)), "base_schedule": _base()}
    new, old = _both(monkeypatch, payload)
    assert isinstance(new, bytes), new
    assert new == old


def test_a_duplicated_base_answers_what_the_whole_base_answers(monkeypatch):
    base = _base("dsh", params=NCUBE_LIKE)
    if not schedule_from_dict(base).has_duplication():
        pytest.skip("dsh did not duplicate on this input")
    for kind in ("work", "unchanged"):
        payload = {"project": _doc(_edited(kind), params=NCUBE_LIKE),
                   "base_schedule": base}
        new, old = _both(monkeypatch, payload)
        assert isinstance(new, bytes) and new == old


def test_an_incomplete_base_answers_what_the_whole_base_answers(monkeypatch):
    base = _base()
    base["placements"].pop()
    unchanged = _both(monkeypatch, {"project": _doc(GRAPH), "base_schedule": base})
    assert isinstance(unchanged[0], bytes) and unchanged[0] == unchanged[1]
    edited = _both(monkeypatch, {"project": _doc(_edited("work")),
                                 "base_schedule": base})
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


def _refusal(reader, doc: dict) -> str | None:
    """The refusal's class and message.  A ``meta`` that is not a mapping
    fails the ``**`` of whichever ``add_task`` reads it, and Python names
    that method's class in the message: the one word the readers may differ
    in."""
    try:
        reader(doc)
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}".replace("TaskTable.", "TaskGraph.")
    return None


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_both_readers_refuse_the_same_bases(name):
    doc = _base()
    assert doc["messages"], "the table needs a base with messages"
    MUTATIONS[name](doc)
    refused = _refusal(schedule_from_dict, doc)
    assert refused is not None
    assert _refusal(base_schedule_from_dict, doc) == refused
    with pytest.raises(ops.OpError, match="malformed base_schedule"):
        ops.schedule_options({"base_schedule": doc})


def test_an_untouched_base_is_accepted_by_both_readers():
    doc = _base()
    assert _refusal(schedule_from_dict, doc) is None
    assert _refusal(base_schedule_from_dict, doc) is None


def test_a_base_from_another_machine_is_scheduled_cold():
    base = _base(family="mesh", procs=4)
    project = _doc(GRAPH)
    reply = ops.op_schedule({"project": project, "base_schedule": base})
    assert reply["n_procs"] == 8
    assert reply["incremental"]["fallback"] == "cold"
    assert reply["incremental"]["n_reused"] == 0
    assert reply["schedule"] == ops.op_schedule({"project": project})["schedule"]
