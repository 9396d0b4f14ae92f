"""Fuzz the whole pipeline: random PITS programs must compute identically
through the interpreter, the generated Python functions, the threaded
executor, and the generated whole program.

Programs are random straight-line arithmetic over two inputs (division is
guarded to stay total), so any divergence is a translator/runtime bug, not
a domain error.
"""

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.calc import run_program
from repro.codegen import (
    function_name,
    gen_task_function,
    generate,
    run,
    run_generated,
)
from repro.codegen import runtime as _rt
from repro.graph import DataflowGraph, flatten
from repro.machine import MachineParams, make_machine
from repro.sched import get_scheduler
from repro.sim import run_dataflow


def _expr_from(tree, names) -> str:
    """Map a hypothesis-drawn nested tuple to a guarded PITS expression."""
    kind, payload = tree
    if kind == "num":
        return f"{payload:.6g}"
    if kind == "var":
        return names[payload % len(names)]
    op, left, right = payload
    l, r = _expr_from(left, names), _expr_from(right, names)
    if op == "/":
        return f"({l} / (abs({r}) + 1))"  # total division
    if op == "min":
        return f"min({l}, {r})"
    if op == "max":
        return f"max({l}, {r})"
    return f"({l} {op} {r})"


def _leaf():
    return st.one_of(
        st.tuples(st.just("num"), st.floats(-5, 5, allow_nan=False)),
        st.tuples(st.just("var"), st.integers(0, 3)),
    )


def _tree(depth):
    if depth == 0:
        return _leaf()
    return st.one_of(
        _leaf(),
        st.tuples(
            st.just("op"),
            st.tuples(
                st.sampled_from(["+", "-", "*", "/", "min", "max"]),
                _tree(depth - 1),
                _tree(depth - 1),
            ),
        ),
    )


program_st = st.tuples(_tree(3), _tree(3), _tree(3), _tree(3))


def build_program(trees, in1="a", in2="b", out1="x", out2="y") -> str:
    """A straight-line two-in/two-out routine over the drawn expression trees."""
    names = (in1, in2, "t1", "t2")
    e1, e2, e3, e4 = trees
    return (
        f"input {in1}, {in2}\n"
        f"output {out1}, {out2}\n"
        "local t1, t2\n"
        f"t1 := {in1}\n"  # seed the locals so any var reference is defined
        f"t2 := {in2}\n"
        f"t1 := {_expr_from(e1, names)}\n"
        f"t2 := {_expr_from(e2, names)}\n"
        f"{out1} := {_expr_from(e3, names)}\n"
        f"{out2} := {_expr_from(e4, names)}\n"
    )


inputs_st = st.tuples(
    st.floats(-100, 100, allow_nan=False),
    st.floats(-100, 100, allow_nan=False),
)


@given(program_st, inputs_st)
@settings(max_examples=120, deadline=None)
def test_interpreter_vs_generated_function(trees, inputs):
    source = build_program(trees)
    a, b = inputs
    expected = run_program(source, a=a, b=b)

    code = gen_task_function("fz", source)
    namespace = {"_rt": _rt, "_np": np}
    exec(compile(code, "<fuzz>", "exec"), namespace)
    got = namespace[function_name("fz")]({"a": float(a), "b": float(b)}, lambda s: None)
    for key in ("x", "y"):
        assert got[key] == expected.outputs[key], source


@given(program_st, program_st, inputs_st)
@settings(max_examples=40, deadline=None)
def test_full_pipeline_equivalence(trees1, trees2, inputs):
    """Two fuzzed tasks in a chain: sequential == threaded == generated."""
    a, b = inputs
    src1 = build_program(trees1, in1="a", in2="b", out1="x0", out2="y0")
    src2 = build_program(trees2, in1="x0", in2="y0", out1="x", out2="y")

    g = DataflowGraph("fuzzchain")
    g.add_storage("a", initial=float(a))
    g.add_storage("b", initial=float(b))
    g.add_task("first", program=src1, work=2)
    g.add_storage("x0")
    g.add_storage("y0")
    g.add_task("second", program=src2, work=2)
    g.add_storage("x")
    g.add_storage("y")
    g.connect("a", "first")
    g.connect("b", "first")
    g.connect("first", "x0")
    g.connect("first", "y0")
    g.connect("x0", "second")
    g.connect("y0", "second")
    g.connect("second", "x")
    g.connect("second", "y")

    tg = flatten(g)
    seq = run_dataflow(tg)

    machine = make_machine("full", 2, MachineParams(msg_startup=0.5))
    schedule = get_scheduler("roundrobin").schedule(tg, machine)
    par = run(schedule, target="inproc")
    gen = run_generated(generate(schedule, target="threads"))

    for key in ("x", "y"):
        assert par[key] == seq.outputs[key]
        assert gen[key] == seq.outputs[key]
