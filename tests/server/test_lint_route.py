"""``POST /lint`` lints the design it is sent, a broken one included.

A cycle is what the linter reports (DF102), not a reason to refuse the
request: the daemon answers 200 with the report ``banger lint`` prints.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.server import ops
from repro.server.protocol import json_body

HEAT = pathlib.Path(__file__).parents[2] / "examples" / "heat_equation.json"


def _cyclic() -> dict:
    """The heat-equation design with an arc back from its last step."""
    doc = json.loads(HEAT.read_text(encoding="utf-8"))
    doc["design"]["arcs"].append(
        {"src": "step4", "dst": "step1", "var": "back", "size": 1}
    )
    return doc


@pytest.mark.parametrize("workers", [0, 1])
def test_a_cyclic_design_is_linted_not_refused(daemon_factory, workers):
    harness = daemon_factory(workers=workers)
    payload = {"project": _cyclic()}
    reply = harness.client.post("/lint", payload)
    assert reply["ok"] is False
    assert "DF102" in {d["rule"] for d in reply["diagnostics"]}
    assert reply == json.loads(json_body(ops.execute("lint", payload)["result"]))


def _with_program(program: str) -> tuple[dict, str]:
    """The heat-equation design with its first step's program replaced."""
    doc = json.loads(HEAT.read_text(encoding="utf-8"))
    task = next(node for node in doc["design"]["nodes"] if node["kind"] == "task")
    task["program"] = program
    return doc, task["name"]


@pytest.mark.parametrize("program, column", [
    ("input u\noutput v\nv := ²", 6),
    ("input u\noutput v\nlocal x²\nx² := u\nv := x²", 8),
])
def test_a_non_ascii_digit_is_a_pits001_diagnostic(program, column):
    """It used to escape ``lint`` as an untyped ``ValueError`` (``²``), or to
    pass lint as a name (``x²``) that the code generators cannot emit."""
    doc, node = _with_program(program)
    report = ops.execute("lint", {"project": doc})["result"]
    assert report["ok"] is False
    (d,) = [d for d in report["diagnostics"] if d["rule"] == "PITS001"]
    assert (d["node"], d["line"]) == (node, 3)
    assert d["message"] == f"line 3, column {column}: unexpected character '²'"
    for target in ("threads", "inproc"):
        with pytest.raises(ops.OpError, match=f"task '{node}' has static errors"):
            ops.execute("codegen", {"project": doc, "target": target, "run": target == "inproc"})
