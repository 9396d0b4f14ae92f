"""Every output check passes on real replies and fails on corrupted ones."""

import copy
import json
from dataclasses import replace

import numpy as np
import pytest

from bench import runner
from bench.daemon import Daemon
from bench.loadgen import closed_loop


@pytest.fixture(scope="module")
def live():
    """Real replies from a real daemon, one short smoke run per workload."""
    out = {}
    for name in ("edit_loop", "sweep_cold", "warm_mix"):
        workload = runner.make_workload(name, seed=5, seconds=1, smoke=True)
        with Daemon() as daemon:
            workload.warm(daemon)
            loop = closed_loop(
                daemon.port, workload.connections, workload.make_op, 1.0,
                group=workload.group, first_index=workload.first_index,
            )
        assert loop.records, name
        out[name] = (workload, loop.records)
    return out


def corrupted(record, edit):
    """``record`` with its JSON reply changed by ``edit(doc)``."""
    doc = json.loads(record.raw)
    edit(doc)
    return replace(record, raw=json.dumps(doc).encode())


def swap(records, position, record):
    return records[:position] + [record] + records[position + 1:]


@pytest.mark.parametrize("name", ["edit_loop", "sweep_cold", "warm_mix"])
def test_real_replies_pass_every_check(live, name):
    workload, records = live[name]
    assert workload.verify(records) == []


@pytest.mark.parametrize("name", ["edit_loop", "sweep_cold", "warm_mix"])
def test_a_non_2xx_reply_is_a_failure(live, name):
    workload, records = live[name]
    bad = replace(records[0], status=500, raw=b'{"type":"banger-error"}')
    assert len(workload.verify(swap(records, 0, bad))) == 1


@pytest.mark.parametrize("name", ["edit_loop", "sweep_cold", "warm_mix"])
def test_a_refused_connection_is_a_failure(live, name):
    workload, records = live[name]
    bad = replace(records[-1], status=0, raw=b"ConnectionRefusedError()")
    assert len(workload.verify(swap(records, len(records) - 1, bad))) == 1


def test_edit_loop_checks(live):
    workload, records = live["edit_loop"]

    def fails(edit):
        return workload.verify(swap(records, 0, corrupted(records[0], edit)))

    def overlong(doc):
        # the task that finishes last now runs longer than its work allows
        last = max(doc["schedule"]["placements"], key=lambda p: p["finish"])
        last["finish"] += 5.0

    def overlapping(doc):
        first, second = doc["schedule"]["placements"][:2]
        second["proc"], second["start"], second["finish"] = (
            first["proc"], first["start"], first["finish"])

    def fell_back(doc):
        doc["incremental"]["fallback"] = "cold"

    def wrong_type(doc):
        doc["type"] = "banger-sweep"

    def shifted_but_feasible(doc):
        # Still a valid schedule, no longer the reference's: only the
        # byte-identity check can see this one.
        for entry in doc["schedule"]["placements"] + doc["schedule"]["messages"]:
            entry["start"] += 1000.0
            entry["finish"] += 1000.0

    assert "infeasible" in fails(overlong)[0]
    assert "malformed" in fails(overlapping)[0]
    assert "fell back" in fails(fell_back)[0]
    assert "type" in fails(wrong_type)[0]
    # The identity check runs on a seeded sample of three; shifting every
    # reply guarantees the sampled ones are among them.
    problems = workload.verify([corrupted(r, shifted_but_feasible) for r in records])
    assert len(problems) == min(3, len(records))
    assert all("full_reschedule" in p for p in problems)
    assert "malformed" in workload.verify(
        swap(records, 0, replace(records[0], raw=b"not json")))[0]


def test_sweep_cold_checks(live):
    workload, records = live["sweep_cold"]

    def fails(edit, position=0):
        record = corrupted(records[position], edit)
        return workload.verify(swap(records, position, record))

    def slower_than_serial(doc):
        report = doc["schedulers"]["etf"]
        report["points"][0]["makespan"] = report["serial_time"] * 2

    def missing_scheduler(doc):
        del doc["schedulers"]["dls"]

    def missing_size(doc):
        doc["schedulers"]["mh"]["points"].pop()

    assert "exceeds serial time" in fails(slower_than_serial)[0]
    assert "schedulers" in fails(missing_scheduler)[0]
    assert "points" in fails(missing_size)[0]

    def nudged(doc):
        doc["schedulers"]["mh"]["points"][1]["makespan"] *= 0.999

    # The frozen-reference comparison runs on a seeded sample; nudging every
    # record guarantees the sampled ones are among them.
    everything = [corrupted(r, nudged) for r in records]
    problems = workload.verify(everything)
    assert problems and all("frozen reference" in p for p in problems)


def test_warm_mix_checks(live):
    workload, records = live["warm_mix"]
    kinds = {}
    for position, record in enumerate(records):
        kinds.setdefault(record.op.kind, []).append(position)
    assert {"store_get", "store_put"} <= set(kinds), "smoke mix too short"

    # a repeated key answering with different bytes
    seen = {}
    for position, record in enumerate(records):
        if record.op.kind in ("schedule", "simulate", "lint", "codegen"):
            if record.op.ctx in seen:
                break
            seen[record.op.ctx] = position
    else:
        pytest.fail("no key repeated in the smoke mix")
    flipped = replace(record, raw=record.raw + b" ")
    assert "different bytes" in workload.verify(swap(records, position, flipped))[0]

    def fails(kind, edit):
        position = kinds[kind][0]
        return workload.verify(
            swap(records, position, corrupted(records[position], edit)))

    def other_fingerprint(doc):
        doc["project"] = "0" * 64

    def stale_document(doc):
        doc["document"]["name"] = "somebody else's project"

    assert "another fingerprint" in fails("store_put", other_fingerprint)[0]
    assert "unposted fingerprint" in fails("store_get", other_fingerprint)[0]
    assert "does not hash" in fails("store_get", stale_document)[0]


def test_warm_up_failure_aborts_the_run():
    from bench.spec import BenchError

    workload = runner.make_workload("warm_mix", seed=5, seconds=1, smoke=True)
    workload.setup_ops[0] = replace(workload.setup_ops[0], body=b"{not json")
    with Daemon() as daemon, pytest.raises(BenchError, match="warm-up"):
        workload.warm(daemon)


def test_pipeline_batch_checks():
    workload = runner.make_workload("pipeline_batch", seed=5, seconds=1, smoke=True)
    outcomes = [workload.run_one(item, tracer=None) for item in workload.items]
    assert workload.verify(outcomes) == []
    lun = next(i for i, o in enumerate(outcomes) if o.item.name.startswith("lun"))

    def fails(change):
        bad = copy.copy(outcomes[lun])
        change(bad)
        return workload.verify(swap(outcomes, lun, bad))

    def wrong_threads_output(o):
        o.outputs = {**o.outputs, "threads": {"x": o.outputs["threads"]["x"] + 1e-9}}

    def wrong_solution(o):
        o.item = replace(o.item, solution=o.item.solution + 1.0)

    def slow_simulation(o):
        o.static_trace = outcomes[-1].static_trace
        o.schedule = outcomes[0].schedule

    def other_trace(o):
        o.static_trace = outcomes[lun - 1].static_trace

    assert "threads output 'x' differs" in fails(wrong_threads_output)[0]
    assert "numpy.linalg.solve" in fails(wrong_solution)[0]
    assert "exceeds the static makespan" in fails(slow_simulation)[0]
    assert "empty scenario" in fails(other_trace)[0]
    assert np.allclose(outcomes[lun].outputs["reference"]["x"],
                       outcomes[lun].item.solution)
