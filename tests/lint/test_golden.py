"""Golden tests: one fixture per rule ID, asserting the exact diagnostic.

Each case pins down the (rule id, severity, location, message) a minimal
trigger produces, so any drift in the diagnostics surface is caught here.
"""

import pytest

from repro.calc.analyze import Severity, analyze
from repro.graph import TaskGraph
from repro.graph.dataflow import DataflowGraph
from repro.lint import lint_design, lint_schedule
from repro.machine import MachineParams, make_machine
from repro.sched import Schedule
from repro.sched.schedule import Placement


def only(report_or_diags, rule_id):
    """The diagnostics of one rule (and there must be at least one)."""
    hits = [d for d in report_or_diags if getattr(d, "rule_id", None) == rule_id
            or getattr(d, "rule", None) == rule_id]
    assert hits, f"{rule_id} did not fire"
    return hits


# ------------------------------------------------------------------ #
# PITS0xx — program analysis (location = source line)
# ------------------------------------------------------------------ #
PITS_CASES = [
    ("PITS001", "output r\nr := a +", Severity.ERROR, 2,
     "line 2, column 9: expected an expression, found '\\n'"),
    ("PITS002", "output r\nr := x + 1", Severity.ERROR, 2,
     "variable 'x' is not declared"),
    ("PITS003", "input a\noutput r\na := 2\nr := a", Severity.ERROR, 3,
     "input 'a' is read-only"),
    ("PITS004", "output r\nr := frobnicate(3)", Severity.ERROR, 2,
     "unknown function 'frobnicate'"),
    ("PITS005", "output r\nr := sqrt(1, 2)", Severity.ERROR, 2,
     "sqrt() takes 1 argument(s), got 2"),
    ("PITS006", "output r, s\nr := 1", Severity.ERROR, 0,
     "output 's' is never assigned"),
    ("PITS007", "input a, b\noutput r\nr := a", Severity.WARNING, 0,
     "input 'b' is never used"),
    ("PITS008", "output r\nlocal t\nr := 1", Severity.WARNING, 0,
     "local 't' is never used"),
    ("PITS009", "input PI\noutput r\nr := PI", Severity.WARNING, 0,
     "input 'PI' shadows a constant"),
    ("PITS010", "input i\noutput r\nr := 0\nfor i := 1 to 3 do r := r + i end",
     Severity.ERROR, 4, "loop variable 'i' is an input"),
    ("PITS011", "input n\noutput s\ns := 0\nforall i := 1 to n do s := s + i end",
     Severity.ERROR, 4,
     "forall body assigns scalar 's'; only elements indexed by 'i' may be written"),
    ("PITS012",
     "input n\noutput v\nlocal i\nv := zeros(n)\n"
     "forall i := 1 to n do v[1] := i end",
     Severity.ERROR, 5,
     "forall body writes 'v' with first subscript not 'i'; "
     "iterations must write disjoint elements"),
    ("PITS013",
     "input n\noutput v\nlocal i, j\nv := zeros(n)\n"
     "forall i := 1 to n do\n  forall j := 1 to n do v[i] := j end\nend",
     Severity.ERROR, 6,
     "nested forall is not supported; make the inner loop a plain for"),
    ("PITS014",
     "input n\noutput v\nlocal i\nv := zeros(n)\n"
     "forall i := 1 to n do\n  v[i] := i\n  display(v[i])\nend",
     Severity.WARNING, 7,
     "display inside forall prints in nondeterministic order "
     "once the node is split"),
    ("PITS015", "output r\nlocal t\nr := t + 1\nt := 2", Severity.ERROR, 3,
     "local 't' is read before it is assigned"),
    ("PITS016", "output r\nlocal v\nv := 3\nr := v[1]", Severity.ERROR, 4,
     "variable 'v' is subscripted like an array but is only ever "
     "assigned a scalar"),
    ("PITS017", "output r\nlocal t\nr := 1\nt := 99", Severity.WARNING, 4,
     "statement runs after every output is already final and "
     "cannot affect the result"),
    # PITS1xx — abstract interpretation (interval / kind domains)
    ("PITS101", "input a\noutput y\nlocal d\nd := 0\ny := a / d",
     Severity.ERROR, 5,
     "division by zero is guaranteed: the divisor is always 0"),
    ("PITS102", "input a\noutput y\nlocal d\nd := 0 - 4\ny := sqrt(d) + a",
     Severity.ERROR, 5,
     "sqrt() is always outside its domain here (argument is in [-4.0, -4.0])"),
    ("PITS103",
     "input a\noutput y\nlocal d\nd := 1\nif d > 2 then\ny := 0\nelse\ny := a\nend",
     Severity.WARNING, 6,
     "branch never executes: the condition is always false"),
    ("PITS104", "input a\noutput y\ny := 3 * 2", Severity.WARNING, 0,
     "output 'y' is provably the constant 6 on every input"),
    ("PITS105", "input a\noutput y\nlocal t\nt := 5\nt := a\ny := t",
     Severity.WARNING, 4,
     "value assigned to 't' is overwritten on line 5 before it can be read "
     "(dead store)"),
]


@pytest.mark.parametrize("rule_id,src,severity,line,message", PITS_CASES,
                         ids=[c[0] for c in PITS_CASES])
def test_pits_rule(rule_id, src, severity, line, message):
    d = only(analyze(src), rule_id)[0]
    assert d.severity is severity
    assert d.line == line
    assert d.message == message


@pytest.mark.parametrize("func", ["transpose", "copy", "abs"])
def test_pits016_takes_an_array_returning_builtin_as_array_evidence(func):
    """``T := 0`` then ``T := transpose(A)`` is an array by the time it is
    subscripted: the program runs, so PITS016 must not refuse it.  Which
    builtins return arrays is ``Builtin.returns_array``'s to say."""
    import numpy as np

    from repro.calc import run_program

    src = f"input A\noutput y\nlocal T\nT := 0\nT := {func}(A)\ny := T[1, 2]"
    found = analyze(src)
    assert not [d for d in found if d.severity is Severity.ERROR], found
    assert "PITS016" not in {d.rule for d in found}
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert run_program(src, A=A).outputs["y"] == {"transpose": 3.0}.get(func, 2.0)


def test_pits_rules_also_fire_through_lint_design():
    """Program diagnostics surface in the unified report with the node name."""
    g = DataflowGraph("d")
    g.add_task("t", program="output r\nr := x + 1")
    g.add_storage("r", data="r")
    g.connect("t", "r")
    d = only(lint_design(g), "PITS002")[0]
    assert d.node == "t"
    assert d.line == 2
    assert d.category == "pits"


# ------------------------------------------------------------------ #
# DF1xx — design structure (location = node name)
# ------------------------------------------------------------------ #
def test_df100_no_design():
    d = only(lint_design(None), "DF100")[0]
    assert d.severity is Severity.ERROR
    assert d.node == ""
    assert d.message == "no design yet — draw the dataflow graph first"


def test_df101_empty_graph():
    d = only(lint_design(DataflowGraph("d")), "DF101")[0]
    assert d.severity is Severity.ERROR
    assert d.message == "graph 'd' is empty"


def test_df102_cycle():
    g = DataflowGraph("d")
    g.add_task("t1")
    g.add_task("t2")
    g.connect("t1", "t2")
    g.connect("t2", "t1")
    d = only(lint_design(g), "DF102")[0]
    assert d.severity is Severity.ERROR
    assert d.node == "t1"
    assert d.message == "graph 'd' has a cycle: t1 -> t2 -> t1"


def test_df104_storage_to_storage_arc():
    g = DataflowGraph("d")
    g.add_storage("s1")
    g.add_storage("s2")
    g.connect("s1", "s2")
    d = only(lint_design(g), "DF104")[0]
    assert d.severity is Severity.ERROR
    assert d.node == "s2"
    assert d.message == ("arc s1->s2 connects two storage nodes; "
                         "data must flow through a task")


def _composite(inputs, outputs):
    sub = DataflowGraph("sub", inputs=inputs, outputs=outputs)
    sub.add_task("inner", program="output r\nr := 1")
    g = DataflowGraph("d")
    g.add_composite("c", sub)
    return g


def test_df105_input_port_names_unknown_node():
    d = only(lint_design(_composite({"v": "ghost"}, {})), "DF105")[0]
    assert d.severity is Severity.ERROR
    assert d.node == "c"
    assert d.message == ("composite 'c': input port 'v' names unknown "
                         "internal node 'ghost'")


def test_df106_output_port_names_unknown_node():
    d = only(lint_design(_composite({}, {"w": "gone"})), "DF106")[0]
    assert d.severity is Severity.ERROR
    assert d.node == "c"
    assert d.message == ("composite 'c': output port 'w' names unknown "
                         "internal node 'gone'")


def test_df107_and_df108_missing_ports():
    sub = DataflowGraph("sub")
    sub.add_task("inner", program="output r\nr := 1")
    g = DataflowGraph("d")
    g.add_storage("a", data="a")
    g.add_composite("c", sub)
    g.add_storage("o", data="o")
    g.connect("a", "c")
    g.connect("c", "o")
    report = lint_design(g)
    d107 = only(report, "DF107")[0]
    assert d107.node == "c"
    assert d107.message == ("composite 'c': incoming variable 'a' has no "
                            "input port in its subgraph")
    d108 = only(report, "DF108")[0]
    assert d108.node == "c"
    assert d108.message == ("composite 'c': outgoing variable 'o' has no "
                            "output port in its subgraph")


def test_df109_missing_program():
    g = DataflowGraph("d")
    g.add_task("t")
    d = only(lint_design(g), "DF109")[0]
    assert d.severity is Severity.ERROR
    assert d.node == "t"
    assert d.message == "no PITS program yet"


def test_df110_storage_write_race_witness_pair():
    g = DataflowGraph("d")
    g.add_task("w1", program="output r\nr := 1")
    g.add_task("w2", program="output r\nr := 2")
    g.add_storage("r", data="r")
    g.connect("w1", "r")
    g.connect("w2", "r")
    d = only(lint_design(g), "DF110")[0]
    assert d.severity is Severity.ERROR
    assert d.node == "r"
    assert d.message == (
        "storage 'r' has multiple writers with no precedence path between "
        "'w1' and 'w2'; the stored result is nondeterministic — "
        "sequentialise the writers or give the datum a single producer"
    )


# ------------------------------------------------------------------ #
# XL3xx — cross-layer interface (location = node name)
# ------------------------------------------------------------------ #
def _one_task(program, out_store=None):
    g = DataflowGraph("x")
    g.add_storage("a", data="a")
    g.add_task("t", program=program)
    g.connect("a", "t")
    if out_store:
        g.add_storage(out_store, data=out_store)
        g.connect("t", out_store)
    return lint_design(g)


def test_xl301_incoming_variable_not_declared():
    d = only(_one_task("output r\nr := 1", "r"), "XL301")[0]
    assert d.severity is Severity.ERROR
    assert d.node == "t"
    assert d.message == ("incoming variable 'a' is not declared as an input "
                         "of 't''s program")


def test_xl302_outgoing_variable_never_produced():
    d = only(_one_task("input a\noutput r\nr := a", "q"), "XL302")[0]
    assert d.severity is Severity.ERROR
    assert d.node == "t"
    assert d.message == ("outgoing arc carries 'q', which 't''s program "
                         "never produces")


def test_xl303_program_output_unconsumed():
    d = only(_one_task("input a\noutput r, s\nr := a\ns := a", "r"), "XL303")[0]
    assert d.severity is Severity.WARNING
    assert d.node == "t"
    assert d.message == ("program output 's' has no consumer "
                         "(no outgoing arc carries it)")


def test_xl304_program_input_never_supplied():
    d = only(_one_task("input a, b\noutput r\nr := a + b", "r"), "XL304")[0]
    assert d.severity is Severity.ERROR
    assert d.node == "t"
    assert d.message == "program input 'b' is never supplied by any incoming arc"


def test_wired_interface_is_clean():
    report = _one_task("input a\noutput r\nr := a", "r")
    assert report.ok
    assert not list(report)


# ------------------------------------------------------------------ #
# SCH2xx — schedule feasibility (location = task name)
# ------------------------------------------------------------------ #
@pytest.fixture
def sched_setup():
    tg = TaskGraph("g")
    tg.add_task("a", work=2)
    tg.add_task("b", work=3)
    tg.add_edge("a", "b", var="x", size=4)
    machine = make_machine("full", 2,
                           MachineParams(msg_startup=2.0, transmission_rate=1.0))
    return tg, machine


def test_sch201_never_scheduled(sched_setup):
    tg, machine = sched_setup
    s = Schedule(tg, machine)
    s.add("a", 0, 0.0, 2.0)
    d = only(lint_schedule(s), "SCH201")[0]
    assert d.severity is Severity.ERROR
    assert d.node == "b"
    assert d.message == "task 'b' was never scheduled"


def test_sch202_overlap(sched_setup):
    tg, machine = sched_setup
    s = Schedule(tg, machine)
    s.add("a", 0, 0.0, 2.0)
    # Schedule.add refuses overlaps, so inject the bad placement directly:
    # the lint rule is defence-in-depth against scheduler bugs.
    rogue = Placement("b", 0, 1.0, 4.0)
    s._by_proc[0].append(rogue)
    s._by_task.setdefault("b", []).append(rogue)
    d = only(lint_schedule(s), "SCH202")[0]
    assert d.severity is Severity.ERROR
    assert d.node == "b"
    assert d.message == "processor 0: 'a' [0,2) overlaps 'b' [1,4)"


def test_sch203_duration_mismatch(sched_setup):
    tg, machine = sched_setup
    s = Schedule(tg, machine)
    s.add("a", 0, 0.0, 2.5)
    s.add("b", 0, 2.5, 5.5)
    d = only(lint_schedule(s), "SCH203")[0]
    assert d.severity is Severity.ERROR
    assert d.node == "a"
    assert d.message == "task 'a' on processor 0: duration 2.5 != exec_time 2"


def test_sch204_depends_on_unscheduled(sched_setup):
    tg, machine = sched_setup
    s = Schedule(tg, machine)
    s.add("b", 0, 0.0, 3.0)
    d = only(lint_schedule(s), "SCH204")[0]
    assert d.severity is Severity.ERROR
    assert d.node == "b"
    assert d.message == "task 'b' depends on unscheduled 'a'"


def test_sch205_starts_before_ready(sched_setup):
    tg, machine = sched_setup
    s = Schedule(tg, machine)
    s.add("a", 0, 0.0, 2.0)
    s.add("b", 1, 3.0, 6.0)  # data only arrives at 2 + (2 + 4/1) = 8
    d = only(lint_schedule(s), "SCH205")[0]
    assert d.severity is Severity.ERROR
    assert d.node == "b"
    assert d.message == ("task 'b' on processor 1 starts at 3 but edge a->b "
                         "('x') is only ready at 8")


# ------------------------------------------------------------------ #
# MF4xx — machine/design fit
# ------------------------------------------------------------------ #
def test_mf401_more_processors_than_tasks():
    g = DataflowGraph("m")
    g.add_task("t", work=1.0, program="output r\nr := 1")
    g.add_storage("r", data="r")
    g.connect("t", "r")
    machine = make_machine("full", 4, MachineParams())
    d = only(lint_design(g, machine), "MF401")[0]
    assert d.severity is Severity.WARNING
    assert d.message == ("machine has 4 processors but the design has only "
                         "1 tasks; some processors will idle")


def test_mf402_startup_dwarfs_work():
    g = DataflowGraph("m")
    g.add_task("t1", work=1.0, program="output x\nx := 1")
    g.add_storage("x", data="x")
    g.add_task("t2", work=1.0, program="input x\noutput r\nr := x")
    g.add_storage("r", data="r")
    g.connect("t1", "x")
    g.connect("x", "t2")
    g.connect("t2", "r")
    machine = make_machine("full", 2,
                           MachineParams(msg_startup=50.0, transmission_rate=1.0))
    d = only(lint_design(g, machine), "MF402")[0]
    assert d.severity is Severity.WARNING
    assert d.message == ("message startup cost dwarfs mean task work; expect "
                         "the scheduler to serialise the design (consider "
                         "grain packing)")


def test_mf403_narrow_forall():
    g = DataflowGraph("m")
    prog = ("input a\noutput v\nlocal i\nv := zeros(2)\n"
            "forall i := 1 to 2 do v[i] := a end")
    g.add_storage("a", data="a")
    g.add_task("t", work=5.0, program=prog)
    g.add_storage("v", data="v")
    g.connect("a", "t")
    g.connect("t", "v")
    machine = make_machine("full", 8, MachineParams())
    d = only(lint_design(g, machine), "MF403")[0]
    assert d.severity is Severity.INFO
    assert d.node == "t"
    assert d.line == 5
    assert d.message == ("forall spans only 2 iteration(s) but the machine "
                         "has 8 processors; splitting this node cannot fill "
                         "the machine")


def test_mf404_high_ccr_high_diameter():
    g = DataflowGraph("m")
    g.add_storage("a", data="a", size=100.0)
    g.add_task("t", work=0.001, program="input a\noutput r\nr := a")
    g.add_storage("r", data="r", size=100.0)
    g.connect("a", "t")
    g.connect("t", "r")
    machine = make_machine("ring", 8,
                           MachineParams(msg_startup=1.0, transmission_rate=1.0))
    d = only(lint_design(g, machine), "MF404")[0]
    assert d.severity is Severity.INFO
    assert "diameter 4" in d.message
    assert "communication-bound" in d.message
