"""The kept replay keeps its kernel: a fork re-times at its size.

A fork over the very edges of the last graph that fitted a kept base
derives its scheduling kernel from that graph's (``SchedKernel.derived``):
the task tables and cost memos are shared, and only the changed tasks'
execution times are computed.  Any other graph gets a kernel built for it.
Here random editing sessions are served through one memo and every reply
is held, byte for byte, to a serve that keeps nothing: a kept kernel with
a stale execution time, or one kept past a graph over other edges, would
place some task at another time.
"""

from __future__ import annotations

import copy
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.env.project import BangerProject
from repro.graph.generators import as_dataflow, random_layered
from repro.lru import LEDGER
from repro.machine import MachineParams
from repro.sched.core import SchedKernel
from repro.server import ops
from repro.server.memo import RequestMemo
from repro.server.workers import serve

PARAMS = MachineParams(msg_startup=0.5, transmission_rate=5.0,
                       process_startup=0.05, hop_latency=0.1)


def _design() -> dict:
    graph = random_layered(30, 6, edge_prob=0.15, seed=4)
    project = BangerProject("kernel").set_design(as_dataflow(graph))
    return project.set_machine("hypercube", 4, PARAMS).to_dict()


ORIGINAL = _design()
TASKS = [i for i, n in enumerate(ORIGINAL["design"]["nodes"]) if n["kind"] == "task"]


def _base(doc: dict, scheduler: str) -> dict:
    return ops.execute("schedule", {"project": doc, "scheduler": scheduler})[
        "result"]["schedule"]


def _comparable(outcome: tuple) -> tuple:
    if outcome[0] == "ok":
        return "ok", outcome[1]["body"]
    return outcome[0], outcome[1], outcome[2].splitlines()[0]


def _task(doc: dict, k: int) -> dict:
    return doc["design"]["nodes"][TASKS[k]]


#: Task indices in a topological order of the design: an arc from an
#: earlier to a later one closes no cycle.
ORDER = sorted(range(len(TASKS)), key=[
    random_layered(30, 6, edge_prob=0.15, seed=4).topological_order().index(
        _task(ORIGINAL, k)["name"]) for k in range(len(TASKS))].__getitem__)


def _edited(data, doc: dict, kind: str) -> dict:
    """``doc`` with one or more task fields edited."""
    doc = copy.deepcopy(doc)
    pick = st.integers(0, len(TASKS) - 1)
    if kind == "one":
        _task(doc, data.draw(pick, label="task"))["work"] = data.draw(
            st.sampled_from([0.0, 1.5, 4.0, 9.25]), label="work")
    elif kind == "many":
        for k in data.draw(st.sets(pick, min_size=2, max_size=4), label="tasks"):
            _task(doc, k)["work"] = data.draw(
                st.floats(0.0, 12.0, allow_nan=False), label="work")
    else:
        _task(doc, data.draw(pick, label="task"))["label"] = data.draw(
            st.text("ab", max_size=3), label="label")
    return doc


def _restructured(data, doc: dict, kind: str) -> dict:
    """``doc`` with an arc added, or on another machine."""
    doc = copy.deepcopy(doc)
    if kind == "arc":
        k, j = sorted(data.draw(st.sets(st.integers(0, len(TASKS) - 1),
                                        min_size=2, max_size=2), label="arc"))
        doc["design"]["arcs"].append({"src": _task(doc, ORDER[k])["name"],
                                      "dst": _task(doc, ORDER[j])["name"],
                                      "var": "extra", "size": 1.0})
    else:
        doc["machine"]["params"]["msg_startup"] = 0.75
    return doc


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.data())
def test_an_editing_session_answers_what_a_cold_serve_answers(data):
    """Single- and multi-task work edits, reverts of the last edit,
    label-only edits, new base schedules, and between them an added arc or
    another machine, gone again with the next body, which is then built
    cold over other edges: every reply served through one memo equals the
    memo-less serve's, byte for byte."""
    memo = RequestMemo()
    base = _base(ORIGINAL, "mh")
    doc = was = ORIGINAL
    for step in range(data.draw(st.integers(3, 10), label="steps")):
        sent = None
        if step:
            kind = data.draw(st.sampled_from([
                "one", "one", "one", "many", "many", "revert", "label",
                "arc", "machine", "base",
            ]), label="edit")
            if kind == "revert":
                doc, was = was, doc
            elif kind == "base":
                base = _base(doc, data.draw(st.sampled_from(["mh", "etf"])))
            elif kind in ("arc", "machine"):
                sent = _restructured(data, doc, kind)
            else:
                doc, was = _edited(data, doc, kind), doc
        body = json.dumps({"project": sent or doc, "base_schedule": base}).encode()
        got = _comparable(serve(ops.execute, "schedule", body, memo))
        assert got == _comparable(serve(ops.execute, "schedule", body)), got


def test_a_session_derives_its_kernels_and_builds_the_rest(monkeypatch):
    """What the random sessions compare is the derived path: a fork over
    the last fitted graph's edges derives its kernel, and the first fork
    after an arc came and went builds one."""
    derived, built = [], []
    derive, build = SchedKernel.derived, SchedKernel.__init__
    monkeypatch.setattr(SchedKernel, "derived",
                        lambda self, *a: derived.append(a[1]) or derive(self, *a))
    monkeypatch.setattr(SchedKernel, "__init__",
                        lambda self, *a: built.append(a[0]) or build(self, *a))
    memo = RequestMemo()
    base = _base(ORIGINAL, "mh")
    docs = [ORIGINAL]
    for k, work in ((3, 2.5), (11, 0.0), (20, 7.0)):
        doc = copy.deepcopy(docs[-1])
        _task(doc, k)["work"] = work
        docs.append(doc)
    arc = copy.deepcopy(docs[-1])
    arc["design"]["arcs"].append({"src": _task(arc, 0)["name"],
                                  "dst": _task(arc, 29)["name"], "var": "extra"})
    back = copy.deepcopy(docs[-1])
    _task(back, 5)["work"] = 3.0
    before = LEDGER.snapshot()
    counts = []
    for doc in docs + [arc, back, docs[-1]]:
        body = json.dumps({"project": doc, "base_schedule": base}).encode()
        del derived[:], built[:]
        outcome = serve(ops.execute, "schedule", body, memo)
        counts.append((len(built), [sorted(c) for c in derived]))
        assert _comparable(outcome) == _comparable(serve(ops.execute, "schedule", body))
    t3, t11, t20, t5 = (_task(ORIGINAL, k)["name"] for k in (3, 11, 20, 5))
    assert counts == [
        (0, []),  # the base arrives, unedited: nothing is re-timed
        (2, []),  # the first fork: the base's full replay and its own kernel
        (0, [[t11]]),  # over the last fork's edges: derived
        (0, [[t20]]),
        (1, []),  # an added arc does not fit: a plain re-time builds one
        (1, []),  # the arc gone again, over other edges: built
        (0, [[t5]]),  # task 5 put back: derived
    ]
    assert LEDGER.since(before)["retime_forked"] == 5
