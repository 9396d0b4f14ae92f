"""Mutation check: a channel-ordering bug in the generator must be caught.

The acceptance test for the concurrency analyzer: inject an emission-order
bug into ``ir.proc_steps`` (reverse each processor's step sequence — the
classic "emit receives before the sends that feed them" mistake) and verify
that

* the static analyzer convicts the mutant with ``CG501`` (deadlock),
* the live channel protocol really does deadlock (short timeout),
* the ``codegen_deadlock`` conformance oracle reports the finding, and
* the unmutated generator stays clean on the same plan.

The analyzer reads the op sequences through the *same* ``proc_steps`` hook
the generator emits code from, so any ordering mutation is visible to both
sides by construction — this test pins that property.
"""

import pytest

from repro.analysis.concurrency import (
    analyze_plan,
    execute_plan_protocol,
    ir_ops,
)
from repro.codegen import ir
from repro.codegen.ir import lower_steps
from repro.conformance import ORACLES, CaseContext, graph_case
from repro.graph import DataflowGraph, flatten
from repro.machine import MachineParams, make_machine
from repro.sched import get_scheduler
from repro.severity import Severity


def chain_schedule():
    """first -> second -> third on 2 processors (roundrobin alternates),
    so processor 0 sends then receives: reversing its steps deadlocks."""
    g = DataflowGraph("chaincalc")
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
    machine = make_machine(
        "full", 2, MachineParams(msg_startup=1.0, transmission_rate=2.0)
    )
    return tg, machine, get_scheduler("roundrobin").schedule(tg, machine)


def reversed_steps(schedule, proc):
    return list(reversed(schedule.on_proc(proc)))


def test_unmutated_plan_is_clean_and_completes():
    _, _, schedule = chain_schedule()
    plan = lower_steps(schedule)[0]
    assert ir_ops(plan), "the pinned case must actually communicate"
    assert analyze_plan(plan) == []
    assert execute_plan_protocol(plan, timeout=5.0)


def test_reordering_mutation_is_convicted_statically(monkeypatch):
    _, _, schedule = chain_schedule()
    monkeypatch.setattr(ir, "proc_steps", reversed_steps)
    diags = analyze_plan(lower_steps(schedule)[0])
    assert [d.rule_id for d in diags] == ["CG501"]
    (d,) = diags
    assert d.severity is Severity.ERROR
    assert "deadlock" in d.message
    assert "blocked receiving" in d.message


def test_reordering_mutation_really_deadlocks(monkeypatch):
    _, _, schedule = chain_schedule()
    monkeypatch.setattr(ir, "proc_steps", reversed_steps)
    assert not execute_plan_protocol(lower_steps(schedule)[0], timeout=0.5)


def test_codegen_deadlock_oracle_reports_the_mutant(monkeypatch):
    tg, machine, _ = chain_schedule()
    case = graph_case(tg, machine, "roundrobin")
    oracle = ORACLES["codegen_deadlock"]

    assert oracle.check(CaseContext(case)) == []

    monkeypatch.setattr(ir, "proc_steps", reversed_steps)
    problems = oracle.check(CaseContext(case))
    assert problems
    assert any("CG501" in p for p in problems)


def test_mutation_reaches_the_emitted_program(monkeypatch):
    """The generator and the analyzer read the same ordering hook: the
    mutant's reversed order shows up in the generated Python text too."""
    from repro.codegen import generate

    _, _, schedule = chain_schedule()
    clean = generate(schedule, target="threads")
    monkeypatch.setattr(ir, "proc_steps", reversed_steps)
    mutated = generate(schedule, target="threads")
    assert mutated != clean
