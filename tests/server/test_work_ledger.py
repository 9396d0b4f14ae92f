"""``/metrics`` ``server.work``: the whole, exact work picture in both modes.

Every op's reply carries the difference of its process's shared
:class:`ScheduleService` stats across the op (the ledger's process-wide
counters included); the daemon sums those once.  These tests pin the three
ways that picture used to be wrong: process workers whose work never showed
up, inline threads whose overlapping windows counted one op's work several
times, and a counter reset that made a live service report negative work.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.client import BangerClient, ServerError
from repro.env.project import BangerProject
from repro.graph.generators import as_dataflow, random_layered
from repro.lru import LEDGER
from repro.machine import MachineParams
from repro.sched.service import ServiceStats
from repro.server import ops

#: What a reply's ``counters`` holds: every ServiceStats field but the two
#: gauges, the service's hits and misses under the daemon's names.
RENAMED = {"hits": "service_hits", "misses": "sched_runs"}
WORK_KEYS = {
    RENAMED.get(f.name, f.name)
    for f in dataclasses.fields(ServiceStats)
    if f.name not in ("entries", "last_sweep_seconds")
}

EIGHT = ["mh", "etf", "dls", "hlfet", "mcp", "ish", "cpop", "dsc"]


def test_execute_reports_the_service_stats_difference(project_doc):
    """For one ``schedule`` miss the reply's counters are the difference of
    the process's shared service stats across it, field for field."""
    ops.shared_service().clear()
    service = ops.shared_service()
    before = vars(service.stats())
    reply = ops.execute("schedule", {"project": project_doc, "scheduler": "hlfet"})
    after = vars(service.stats())
    expected = {
        RENAMED.get(name, name): value - before[name]
        for name, value in after.items()
        if name not in ("entries", "last_sweep_seconds")
    }
    assert reply["counters"] == expected
    assert set(expected) == WORK_KEYS
    assert expected["sched_runs"] == 1 and expected["kernel_builds"] >= 1


def test_inline_counts_each_op_once(daemon_factory):
    """Eight concurrent distinct requests on an inline daemon fold to eight
    scheduler runs and exactly the kernels this process built."""
    # long enough per op that four threads' windows would overlap
    params = MachineParams(msg_startup=0.2, transmission_rate=20.0)
    project_doc = (
        BangerProject("layered")
        .set_design(as_dataflow(random_layered(150, 10, seed=2)))
        .set_machine("hypercube", 8, params)
        .to_dict()
    )
    harness = daemon_factory(workers=0, queue_limit=64)
    barrier = threading.Barrier(len(EIGHT))
    errors: list[BaseException] = []

    def one(name: str) -> None:
        client = BangerClient(port=harness.daemon.port)
        barrier.wait()
        try:
            client.schedule(project_doc, scheduler=name)
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    base = LEDGER.snapshot()
    threads = [threading.Thread(target=one, args=(name,)) for name in EIGHT]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    built = LEDGER.since(base)["kernel_builds"]
    assert not errors, errors

    work = harness.client.metrics()["server"]["work"]
    assert work["sched_runs"] == len(EIGHT)
    assert work["kernel_builds"] == built >= len(EIGHT)


def test_process_workers_report_their_work(daemon_factory, project_doc):
    harness = daemon_factory(workers=2)
    threads = harness.client.codegen(project_doc, target="threads")
    mpi = harness.client.codegen(project_doc, target="mpi")
    assert threads["ir_hash"] == mpi["ir_hash"]
    work = harness.client.metrics()["server"]["work"]
    assert set(work) == WORK_KEYS
    # the worker that lowered the program answers the second target from it
    assert work["ir_misses"] == 1, work
    assert work["ir_hits"] >= 1, work

    harness.client.schedule(project_doc, scheduler="etf")
    work = harness.client.metrics()["server"]["work"]
    assert work["kernel_builds"] >= 1 and work["sched_runs"] >= 1, work


def test_a_crash_loses_no_counted_work(daemon_factory, project_doc, monkeypatch):
    """``server.work`` is the sum of the successful replies' counters — a
    crashed worker's replacement starts no count over — and never shrinks."""
    harness = daemon_factory(workers=1, debug=True)
    pool = harness.daemon.pool
    replies: list[dict] = []
    run = pool.run

    async def recording(*args, **kwargs):
        reply = await run(*args, **kwargs)
        if reply[0] == "ok":
            replies.append(reply[1]["counters"])
        return reply

    monkeypatch.setattr(pool, "run", recording)
    readings = [harness.client.metrics()["server"]["work"]]
    harness.client.schedule(project_doc, scheduler="mh")
    readings.append(harness.client.metrics()["server"]["work"])
    with pytest.raises(ServerError) as err:
        harness.client.post("/debug/crash", {})
    assert err.value.status == 500
    readings.append(harness.client.metrics()["server"]["work"])
    harness.client.schedule(project_doc, scheduler="etf")
    readings.append(harness.client.metrics()["server"]["work"])

    assert len(replies) == 2 and all(set(r) == WORK_KEYS for r in replies)
    work = readings[-1]
    assert set(work) == WORK_KEYS
    for name in WORK_KEYS:
        assert work[name] == pytest.approx(replies[0][name] + replies[1][name], abs=1e-3)
    for earlier, later in zip(readings, readings[1:]):
        for name, value in earlier.items():
            assert later[name] >= value, (name, earlier, later)
    assert work["sched_runs"] == 2
