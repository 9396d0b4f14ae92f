"""A request derives its graph's facts once: counted, not timed.

One ``/sweep`` used to hash its flat graph 7 times (2 for the key, 1 in
``flat()``, 1 per scheduler's batch), index it 16 times and level it 12;
``/schedule`` hashed it twice and thrice with a ``base_schedule``.  An edit
against a base then still built the base's graph a second time, hashed
both graphs and took the new one's whole transitive closure.  The counts
below are taken by wrapping the functions themselves.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.env.project import BangerProject
from repro.graph import analysis
from repro.graph.generators import as_dataflow, random_layered
from repro.graph.taskgraph import TaskGraph
from repro.machine import MachineParams
from repro.sched import core
from repro.sched import serialize
from repro.sched import service as service_module
from repro.sched.serialize import schedule_to_dict
from repro.server import ops

PARAMS = MachineParams(msg_startup=0.2, transmission_rate=20.0)
SCHEDULERS = ["mh", "etf", "dls", "hlfet"]
SIZES = [2, 4, 8, 16]
EXAMPLES = pathlib.Path(__file__).parent.parent.parent / "examples"


def _project(work_of_r3: float | None = None) -> BangerProject:
    graph = random_layered(60, 6, edge_prob=0.12, seed=5)
    if work_of_r3 is not None:
        graph.set_work("r3", work_of_r3)
    project = BangerProject("counted").set_design(as_dataflow(graph))
    return project.set_machine("hypercube", 8, PARAMS)


@pytest.fixture
def counts(monkeypatch):
    """Calls of ``TaskGraph.content_hash``, ``GraphTables.__init__``, the
    kernel's ``static_levels`` and the service's ``average_parallelism``."""
    seen = {"hashes": 0, "tables": 0, "level_passes": 0, "parallelism": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        TaskGraph, "content_hash", counting("hashes", TaskGraph.content_hash))
    monkeypatch.setattr(
        core.GraphTables, "__init__", counting("tables", core.GraphTables.__init__))
    monkeypatch.setattr(
        core, "static_levels", counting("level_passes", analysis.static_levels))
    monkeypatch.setattr(
        service_module, "average_parallelism",
        counting("parallelism", analysis.average_parallelism))
    ops.shared_service().clear()
    yield seen
    ops.shared_service().clear()


def test_the_key_hashes_the_graph_once(counts):
    payload = {"project": _project().to_dict(), "schedulers": SCHEDULERS}
    ops.coalesce_key("sweep", payload)
    assert counts["hashes"] == 1


def test_a_schedule_hashes_the_graph_once(counts):
    ops.execute("schedule", {"project": _project().to_dict()})
    assert (counts["hashes"], counts["tables"]) == (1, 1)


@pytest.fixture
def builds(monkeypatch):
    """Inside one op: ``TaskGraph`` instances built, ``transitive_closure``
    calls, and whole-schedule reads (``schedule_from_dict``, wherever the
    op looks it up)."""
    seen = {"graphs": 0, "closures": 0, "schedule_from_dict": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        TaskGraph, "__init__", counting("graphs", TaskGraph.__init__))
    monkeypatch.setattr(TaskGraph, "transitive_closure",
                        counting("closures", TaskGraph.transitive_closure))
    whole = counting("schedule_from_dict", serialize.schedule_from_dict)
    monkeypatch.setattr(serialize, "schedule_from_dict", whole)
    monkeypatch.setattr(ops, "schedule_from_dict", whole)
    return seen


def _against_a_base(counts, builds, work_of_r3):
    base = schedule_to_dict(_project().schedule("mh"))
    payload = {"project": _project(work_of_r3).to_dict(), "base_schedule": base}
    for seen in (counts, builds):
        for name in seen:
            seen[name] = 0
    return ops.execute("schedule", payload)["result"]["incremental"]


def test_a_schedule_against_a_base_hashes_each_graph_once(counts, builds):
    """An unchanged design is the one case that compares content hashes:
    the edit's graph and the base's, read whole."""
    assert _against_a_base(counts, builds, None)["unchanged"] is True
    assert counts["hashes"] == 2
    assert builds == {"graphs": 2, "closures": 0, "schedule_from_dict": 1}


def test_an_edit_against_a_base_builds_one_graph_and_hashes_none(counts, builds):
    """A changed task cannot be an unchanged graph: the base is read against
    the request's own flat graph, and nothing is hashed."""
    assert _against_a_base(counts, builds, 99.0)["unchanged"] is False
    assert counts["hashes"] == 0
    assert builds == {"graphs": 1, "closures": 0, "schedule_from_dict": 0}


def test_a_sweep_hashes_indexes_and_levels_its_graph_once(counts):
    reply = ops.execute("sweep", {
        "project": _project().to_dict(), "schedulers": SCHEDULERS,
        "proc_counts": SIZES,
    })
    assert reply["counters"]["sched_runs"] == len(SCHEDULERS) * len(SIZES)
    assert reply["counters"]["kernel_builds"] >= len(SCHEDULERS) * len(SIZES)
    assert counts == {"hashes": 1, "tables": 1, "level_passes": 1, "parallelism": 1}


def test_flat_hashes_on_first_demand_and_a_sweep_still_hashes_once(counts):
    project = _project()
    project.flat()
    assert counts["hashes"] == 0
    assert project.fingerprints()["graph"] == project.hashed_flat()[1]
    assert counts["hashes"] == 1
    payload = {"project": project.to_dict(), "schedulers": SCHEDULERS}
    ops.coalesce_key("sweep", payload)
    ops.execute("sweep", payload)
    assert counts["hashes"] == 3  # one more for the key, one for the run


def test_a_sweep_answers_what_one_scheduler_at_a_time_answers(counts):
    """The batch is the same questions asked together: same reports."""
    project = _project()
    requests = ops.sweep_options({"schedulers": SCHEDULERS, "proc_counts": SIZES})
    together = ops.run_sweep(project, requests)
    alone = _project()
    assert list(together) == SCHEDULERS
    for request in requests:
        assert together[request.scheduler] == alone.speedup(request)


def test_codegen_hashes_the_graph_once(counts):
    project = BangerProject.load(str(EXAMPLES / "lu_decomposition.json"))
    ops.execute("codegen", {"project": project.to_dict()})
    assert counts["hashes"] == 1


def test_sharing_ends_with_the_batch(counts):
    """Outside a service batch every kernel builds its own tables, so an
    edit between two direct ``Scheduler.schedule`` calls is always seen."""
    from repro.sched import get_scheduler

    graph = random_layered(60, 6, edge_prob=0.12, seed=5)
    machine = _project().machine
    first = get_scheduler("hlfet").schedule(graph, machine)
    graph.set_work("r3", 500.0)
    second = get_scheduler("hlfet").schedule(graph, machine)
    assert counts["tables"] == 2
    assert second.makespan() > first.makespan()
    with core.sharing_graph_tables(graph):
        get_scheduler("hlfet").schedule(graph, machine)
        get_scheduler("etf").schedule(graph, machine)
        other = random_layered(10, 2, seed=1)  # another graph: not shared
        get_scheduler("etf").schedule(other, machine)
    assert counts["tables"] == 4
    get_scheduler("etf").schedule(graph, machine)
    assert counts["tables"] == 5
