"""A NaN or infinite weight or size is a 400, never echoed back.

JSON has no ``NaN`` or ``Infinity``, but Python's decoder reads them (and
``1e999`` as infinity), and a design or base carrying one used to be
answered ``200`` with those tokens in the body.  Now the graph classes
refuse them where they check ``work`` and ``size`` and anywhere inside a
task's ``meta``, the machine parameters where they are range-checked, and
a schedule's placements and messages where their times are, so every
project route answers ``400`` ``bad-request``, in a body that is strict
JSON.
"""

from __future__ import annotations

import copy
import http.client
import json

from repro.env.project import BangerProject
from repro.graph.generators import as_dataflow, random_layered
from repro.machine import MachineParams

ROUTES = ["/lint", "/schedule", "/speedup", "/sweep", "/simulate", "/codegen"]
#: A value written in place of which ``1e999`` is spliced into the bytes.
SPLICED = 123456.5


def _project() -> dict:
    project = BangerProject("finite").set_design(
        as_dataflow(random_layered(20, 4, edge_prob=0.2, seed=2)))
    params = MachineParams(msg_startup=0.2, transmission_rate=20.0)
    return project.set_machine("hypercube", 4, params).to_dict()


def _body(payload: dict) -> bytes:
    return json.dumps(payload).encode().replace(str(SPLICED).encode(), b"1e999")


def _strict(raw: bytes) -> dict:
    def refuse(token: str):
        raise AssertionError(f"reply carries {token}")
    return json.loads(raw, parse_constant=refuse)


def _post(port: int, path: str, body: bytes) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, _strict(response.read())
    finally:
        conn.close()


def _first(design: dict, kind: str) -> dict:
    return next(n for n in design["nodes"] if n["kind"] == kind)


DESIGN_EDITS = {
    "task work NaN": lambda d: _first(d["design"], "task").update(work=float("nan")),
    "task work Infinity": lambda d: _first(d["design"], "task").update(work=float("inf")),
    "task work 1e999": lambda d: _first(d["design"], "task").update(work=SPLICED),
    "arc size NaN": lambda d: d["design"]["arcs"][0].update(size=float("nan")),
    "storage size Infinity": lambda d: _first(d["design"], "storage").update(
        size=float("inf")),
    "task meta NaN": lambda d: _first(d["design"], "task").update(
        meta={"tags": [{"weight": float("nan")}]}),
}

MACHINE_EDITS = {
    "msg_startup NaN": lambda d: d["machine"]["params"].update(msg_startup=float("nan")),
    "msg_startup Infinity": lambda d: d["machine"]["params"].update(
        msg_startup=float("inf")),
    "processor_speed 1e999": lambda d: d["machine"]["params"].update(
        processor_speed=SPLICED),
}

BASE_EDITS = {
    "task work NaN": lambda b: b["graph"]["tasks"][0].update(work=float("nan")),
    "task work 1e999": lambda b: b["graph"]["tasks"][0].update(work=SPLICED),
    "edge size NaN": lambda b: b["graph"]["edges"][0].update(size=float("nan")),
    "placement start NaN": lambda b: b["placements"][0].update(start=float("nan")),
    "placement finish Infinity": lambda b: b["placements"][0].update(
        finish=float("inf")),
    "message finish 1e999": lambda b: b["messages"][0].update(finish=SPLICED),
}


def test_a_non_finite_design_is_refused_at_every_project_route(daemon_factory):
    harness = daemon_factory(workers=1)
    for name, edit in DESIGN_EDITS.items():
        doc = _project()
        edit(doc)
        for route in ROUTES:
            status, reply = _post(harness.daemon.port, route, _body({"project": doc}))
            assert (status, reply["kind"]) == (400, "bad-request"), (name, route, reply)
            assert "finite number" in reply["message"], (name, route, reply)


def test_a_non_finite_machine_is_refused_at_every_project_route(daemon_factory):
    harness = daemon_factory(workers=1)
    for name, edit in MACHINE_EDITS.items():
        doc = _project()
        edit(doc)
        for route in ROUTES:
            status, reply = _post(harness.daemon.port, route, _body({"project": doc}))
            assert (status, reply["kind"]) == (400, "bad-request"), (name, route, reply)
            assert "finite number" in reply["message"], (name, route, reply)


def test_a_non_finite_base_is_refused_where_it_is_read(daemon_factory):
    harness = daemon_factory(workers=1)
    doc = _project()
    base = harness.client.schedule(doc)["schedule"]
    for name, edit in BASE_EDITS.items():
        bad = copy.deepcopy(base)
        edit(bad)
        status, reply = _post(harness.daemon.port, "/schedule",
                              _body({"project": doc, "base_schedule": bad}))
        assert (status, reply["kind"]) == (400, "bad-request"), (name, reply)
        assert reply["message"].startswith("malformed base_schedule"), (name, reply)
        assert "finite number" in reply["message"], (name, reply)
