"""Mutation check: a ``from_dict`` that forgets the family must be convicted.

Every fuzz case's machine is a reloaded document, so a reload that rebuilds a
registered family as a bare edge list (BFS-routed, the family kept only as a
label — what ``TargetMachine.from_dict`` once did) hands back a topology that
disagrees with the tables compiled for its own content hash, and a bus that
no longer shares its medium.  The ``roundtrip`` oracle holds the reload to its
tables, and the tables to the family's own router.
"""

import pytest

from repro.conformance import ORACLES, CaseContext, graph_case, shrink
from repro.graph.generators import random_layered
from repro.machine import CustomTopology, MachineParams, TargetMachine, make_machine
from repro.machine.compiled import clear_compiled
from repro.machine.scenario import LINK_FAIL, FaultEvent, FaultScenario

PARAMS = MachineParams(msg_startup=0.5, transmission_rate=5.0, hop_latency=0.1)


def _case(family: str, n_procs: int, scenario: FaultScenario | None = None):
    tg = random_layered(20, 4, seed=3)
    return graph_case(tg, make_machine(family, n_procs, PARAMS), "mh", scenario)


def _fails(case) -> bool:
    return bool(ORACLES["roundtrip"].check(CaseContext(case)))


@pytest.fixture
def forgetful_reload(monkeypatch):
    def from_dict(data):
        topo_doc = data["topology"]
        topo = CustomTopology(
            topo_doc["n_procs"],
            [tuple(link) for link in topo_doc["links"]],
            name=topo_doc["name"],
        )
        topo.family = topo_doc["family"]  # the bug: a label, not a router
        return TargetMachine(topo, MachineParams(**data["params"]), data["name"])

    monkeypatch.setattr(TargetMachine, "from_dict", staticmethod(from_dict))
    clear_compiled()
    yield
    clear_compiled()


@pytest.mark.parametrize(
    "family, n_procs, symptom",
    [
        ("hypercube", 8, "topology routes unlike its compiled tables"),
        ("mesh", 9, "topology routes unlike its compiled tables"),
        ("torus", 9, "topology routes unlike its compiled tables"),
        ("ring", 8, "topology routes unlike its compiled tables"),
        ("bus", 4, "shared medium"),
    ],
)
def test_roundtrip_oracle_catches_the_forgetful_reload(
    forgetful_reload, family, n_procs, symptom
):
    problems = ORACLES["roundtrip"].check(CaseContext(_case(family, n_procs)))
    assert any(symptom in p for p in problems), problems


def test_roundtrip_oracle_catches_a_router_choice_that_forgets_the_family(monkeypatch):
    """Reload and compile agreeing with each other is not enough: both must
    pick the family's analytic router when the links are the family's."""
    import repro.machine.compiled as compiled_mod
    import repro.machine.machine as machine_mod

    def always_custom(family, n_procs, links):
        return CustomTopology(n_procs, links)

    monkeypatch.setattr(compiled_mod, "routing_topology", always_custom)
    monkeypatch.setattr(machine_mod, "routing_topology", always_custom)
    clear_compiled()
    try:
        problems = ORACLES["roundtrip"].check(CaseContext(_case("hypercube", 8)))
    finally:
        clear_compiled()
    assert "compiled routes differ from the in-memory family's" in problems
    assert "in-memory family machine schedules differently" not in problems


@pytest.mark.parametrize(
    "family, n_procs",
    [("hypercube", 8), ("mesh", 9), ("torus", 9), ("ring", 8), ("bus", 4), ("star", 5)],
)
def test_roundtrip_oracle_passes_without_the_mutant(family, n_procs):
    assert ORACLES["roundtrip"].check(CaseContext(_case(family, n_procs))) == []


def test_hand_edited_links_are_not_held_to_the_family_router():
    """A document that keeps the family label but not its links is a custom
    machine: BFS-routed by design, and the oracle must not flag it."""
    case = _case("hypercube", 8)
    case.payload["machine"]["topology"]["links"].append([0, 7])
    assert ORACLES["roundtrip"].check(CaseContext(case)) == []


def test_witness_shrinks_past_a_scenario_naming_dropped_processors(forgetful_reload):
    """Shrinking the machine drops scenario events on links the smaller
    machine lacks — including links between processors it no longer has."""
    scenario = FaultScenario(
        events=(FaultEvent(time=1.0, kind=LINK_FAIL, link=(3, 7)),), name="cut"
    )
    case = _case("hypercube", 8, scenario)
    assert _fails(case)
    small, _ = shrink(case, _fails)
    assert _fails(small)
    assert small.payload["machine"]["topology"]["n_procs"] == 4
    assert not small.payload.get("scenario", {}).get("events")
