"""Drift-proofing: one ordering hook feeds the IR, every backend, and the
concurrency analyzer.  Patching ``ir.proc_steps`` must change all of
them together — no consumer may hold a private copy of the step order."""

import pytest

from repro.analysis.concurrency import ir_ops
from repro.codegen import generate, ir
from repro.codegen.ir import lower, lower_steps
from repro.graph import DataflowGraph, flatten
from repro.machine import MachineParams, make_machine
from repro.sched import get_scheduler

PARAMS = MachineParams(msg_startup=1.0, transmission_rate=2.0)


def chain_schedule():
    """first -> second -> third, roundrobin on 2 procs: proc 0 runs two
    steps whose order matters (send before recv), so reversing is visible
    everywhere."""
    g = DataflowGraph("driftcalc")
    g.add_storage("x", initial=3.0)
    g.add_task("first", program="input x\noutput a\na := x + 1", work=1)
    g.add_storage("a")
    g.add_task("second", program="input a\noutput b\nb := a * 2", work=1)
    g.add_storage("b")
    g.add_task("third", program="input b\noutput y\ny := b - 1", work=1)
    g.add_storage("y")
    for src, dst in [("x", "first"), ("first", "a"), ("a", "second"),
                     ("second", "b"), ("b", "third"), ("third", "y")]:
        g.connect(src, dst)
    tg = flatten(g)
    machine = make_machine("full", 2, PARAMS)
    return get_scheduler("roundrobin").schedule(tg, machine)


def reversed_steps(schedule, proc):
    return list(reversed(schedule.on_proc(proc)))


def test_mutation_changes_every_backend_identically(monkeypatch):
    schedule = chain_schedule()
    clean = {t: generate(schedule, target=t) for t in ("threads", "mpi", "c")}
    clean_ir = lower(schedule)

    monkeypatch.setattr(ir, "proc_steps", reversed_steps)
    mutated_ir = lower(schedule)
    assert mutated_ir.content_hash() != clean_ir.content_hash()
    for target in ("threads", "mpi", "c"):
        assert generate(schedule, target=target) != clean[target], (
            f"{target} backend did not see the mutated step order"
        )

    # the mutation is exactly a per-processor reversal of the IR step lists
    for proc in clean_ir.procs_used():
        assert [s.task for s in mutated_ir.steps(proc)] == [
            s.task for s in reversed(clean_ir.steps(proc))
        ]


def test_analyzer_and_ir_read_the_same_hook(monkeypatch):
    schedule = chain_schedule()

    clean = ir_ops(lower_steps(schedule)[0])
    assert clean == ir_ops(lower(schedule).procs)
    monkeypatch.setattr(ir, "proc_steps", reversed_steps)
    mutated = ir_ops(lower_steps(schedule)[0])
    assert mutated == ir_ops(lower(schedule).procs)
    assert mutated != clean


def test_backends_share_the_ir_channel_table(monkeypatch):
    """The channel set is a property of the plan, not of step order: a
    reordered IR still exposes exactly the planned channels, so the mpi
    tag table keys stay in lockstep for every consumer."""
    schedule = chain_schedule()
    clean = lower(schedule)
    monkeypatch.setattr(ir, "proc_steps", reversed_steps)
    mutated = lower(schedule)
    assert set(clean.channels) == set(mutated.channels)
