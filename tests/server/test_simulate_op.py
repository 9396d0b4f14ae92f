"""The /simulate op's scenario option: dynamic + reactive replay over the wire."""

from __future__ import annotations

import pytest

from repro.env.project import BangerProject
from repro.graph.generators import as_dataflow, random_layered
from repro.machine import MachineParams
from repro.machine.scenario import PROC_FAIL, PROC_SLOWDOWN, FaultEvent, FaultScenario
from repro.server.ops import (
    OpError,
    coalesce_key,
    execute,
    op_simulate,
    shared_service,
)

PARAMS = MachineParams(msg_startup=0.3, transmission_rate=10.0)


def _project() -> dict:
    graph = random_layered(24, 5, seed=3)
    return (
        BangerProject("dynamic")
        .set_design(as_dataflow(graph))
        .set_machine("hypercube", 4, PARAMS)
        .to_dict()
    )


def _scenario(kind: str, proc: int, time: float, factor: float = 1.0) -> dict:
    return FaultScenario(
        events=(FaultEvent(time=time, kind=kind, proc=proc, factor=factor),),
        name=f"op-{kind}",
    ).to_dict()


@pytest.fixture(autouse=True)
def fresh_service():
    shared_service().clear()
    yield
    shared_service().clear()


class TestScenarioOption:
    def test_plain_simulate_is_unchanged(self):
        doc = op_simulate({"project": _project()})
        assert doc["type"] == "banger-simulate"
        assert "scenario" not in doc and "stranded" not in doc

    def test_dynamic_scenario_fields(self):
        scen = _scenario(PROC_SLOWDOWN, proc=0, time=0.0, factor=4.0)
        doc = op_simulate({"project": _project(), "scenario": scen})
        assert doc["scenario"] == "op-proc_slowdown"
        assert doc["simulated_makespan"] >= doc["static_makespan"] - 1e-9
        assert doc["stranded"] == [] and doc["killed"] == []
        assert doc["lost_messages"] == 0

    def test_failure_strands_and_reactive_recovers(self):
        project = _project()
        static = op_simulate({"project": project})["static_makespan"]
        scen = _scenario(PROC_FAIL, proc=1, time=round(0.3 * static, 6))
        passive = op_simulate({"project": project, "scenario": scen})
        assert passive["stranded"], "killing a processor must strand work"
        reactive = op_simulate(
            {"project": project, "scenario": scen, "reactive": True}
        )
        assert reactive["reactive"]["rounds"] >= 1
        assert reactive["reactive"]["passive_makespan"] == pytest.approx(
            passive["simulated_makespan"]
        )
        assert len(reactive["stranded"]) <= len(passive["stranded"])

    def test_counters_report_dynamic_work(self):
        project = _project()
        static = op_simulate({"project": project})["static_makespan"]
        # a 6x straggler forces migrations; a death forces stranding
        slow = _scenario(PROC_SLOWDOWN, proc=0, time=0.0, factor=6.0)
        out = execute(
            "simulate", {"project": project, "scenario": slow, "reactive": True}
        )
        assert out["counters"]["reactive_remaps"] >= 1
        dead = _scenario(PROC_FAIL, proc=1, time=round(0.3 * static, 6))
        out = execute("simulate", {"project": project, "scenario": dead})
        assert out["counters"]["stranded_tasks"] >= 1
        plain = execute("simulate", {"project": project})
        assert plain["counters"]["reactive_remaps"] == 0
        assert plain["counters"]["stranded_tasks"] == 0

    def test_malformed_scenario_is_a_400(self):
        with pytest.raises(OpError):
            op_simulate({"project": _project(), "scenario": {"type": "nope"}})
        with pytest.raises(OpError):
            op_simulate({"project": _project(), "scenario": "not-a-dict"})

    def test_scenario_that_does_not_fit_the_machine_is_a_400(self):
        scen = _scenario(PROC_FAIL, proc=9, time=1.0)
        with pytest.raises(OpError):
            op_simulate({"project": _project(), "scenario": scen})

    def test_reactive_without_a_scenario_is_a_400(self):
        with pytest.raises(OpError, match="'scenario'"):
            op_simulate({"project": _project(), "reactive": True})

    def test_scenario_options_are_part_of_the_coalesce_key(self):
        project = _project()
        scen = _scenario(PROC_SLOWDOWN, proc=0, time=0.0, factor=4.0)
        keys = {
            coalesce_key("simulate", {"project": project}),
            coalesce_key("simulate", {"project": project, "scenario": scen}),
            coalesce_key("simulate", {"project": project, "scenario": scen,
                                      "reactive": True}),
            coalesce_key("simulate", {"project": project, "scenario": scen,
                                      "reactive": True, "threshold": 3.0}),
            # no per-op field table: a field no op reads yet still splits
            coalesce_key("simulate", {"project": project, "future_option": 1}),
        }
        assert len(keys) == 5
