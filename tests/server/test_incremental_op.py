"""The /schedule op's base_schedule option: incremental edits over the wire."""

from __future__ import annotations

import pytest

from repro.env.project import BangerProject
from repro.graph.generators import as_dataflow, random_layered
from repro.machine import MachineParams
from repro.sched.incremental import NAME_SUFFIX
from repro.sched.serialize import schedule_from_dict
from repro.server.ops import OpError, coalesce_key, op_schedule, shared_service

PARAMS = MachineParams(msg_startup=0.3, transmission_rate=10.0)


def _project(graph) -> BangerProject:
    return (
        BangerProject("editloop")
        .set_design(as_dataflow(graph))
        .set_machine("hypercube", 4, PARAMS)
    )


@pytest.fixture(autouse=True)
def fresh_service():
    shared_service().clear()
    yield
    shared_service().clear()


class TestBaseScheduleOption:
    def test_incremental_roundtrip_over_the_op(self):
        graph = random_layered(30, 4, seed=17)
        first = op_schedule({"project": _project(graph).to_dict()})
        assert "incremental" not in first

        edited = graph.copy()
        edited.set_work(edited.task_names[0], 11.0)
        second = op_schedule({
            "project": _project(edited).to_dict(),
            "base_schedule": first["schedule"],
        })
        inc = second["incremental"]
        assert inc["n_dirty"] + inc["n_reused"] == inc["n_tasks"]
        assert inc["n_reused"] > 0
        assert not inc["unchanged"] and inc["fallback"] is None
        assert second["scheduler"] == "mh" + NAME_SUFFIX
        # The response document is a complete, reloadable schedule.
        reloaded = schedule_from_dict(second["schedule"])
        assert reloaded.makespan() == second["makespan"]

    def test_unchanged_design_reports_full_reuse(self):
        graph = random_layered(12, 3, seed=4)
        first = op_schedule({"project": _project(graph).to_dict()})
        again = op_schedule({
            "project": _project(graph).to_dict(),
            "base_schedule": first["schedule"],
        })
        assert again["incremental"]["unchanged"]
        assert again["incremental"]["n_dirty"] == 0

    def test_malformed_base_schedule_is_a_400(self):
        graph = random_layered(8, 2, seed=1)
        doc = _project(graph).to_dict()
        with pytest.raises(OpError, match="base_schedule"):
            op_schedule({"project": doc, "base_schedule": "not-a-dict"})
        with pytest.raises(OpError, match="base_schedule"):
            op_schedule({"project": doc, "base_schedule": {"type": "nope"}})

    def test_base_schedule_is_part_of_the_coalesce_key(self):
        graph = random_layered(10, 3, seed=2)
        doc = _project(graph).to_dict()
        plain = {"project": doc}
        base = op_schedule(plain)["schedule"]
        with_base = {"project": doc, "base_schedule": base}
        assert coalesce_key("schedule", plain) != coalesce_key(
            "schedule", with_base
        )
        # Same base, same key — identical edits coalesce.
        assert coalesce_key("schedule", dict(with_base)) == coalesce_key(
            "schedule", with_base
        )
        # Any other field splits it too, without a per-op table naming it.
        assert coalesce_key(
            "schedule", {**with_base, "future_option": 1}
        ) != coalesce_key("schedule", with_base)
