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
