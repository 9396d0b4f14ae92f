"""Tests for forall node splitting (the paper's fine-grain extension)."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import DataflowGraph, TaskGraph, flatten, max_width
from repro.graph.transform import (
    split_all,
    split_forall,
    split_problems,
    splittable_tasks,
)
from repro.machine import MachineParams, make_machine
from repro.sched import check_schedule, get_scheduler
from repro.codegen import run
from repro.sim import run_dataflow

VSCALE = """\
task vscale
input v, alpha
output w, total
local i, n
n := len(v)
w := zeros(n)
total := 2 * alpha
forall i := 1 to n do
  w[i] := alpha * v[i] + i
end
"""


def vector_graph(n=12):
    g = DataflowGraph("dp")
    g.add_storage("v", initial=np.arange(n, dtype=float), size=n)
    g.add_storage("alpha", initial=3.0)
    g.add_task("vscale", program=VSCALE, work=3 * n)
    g.add_storage("w", size=n)
    g.add_storage("total")
    g.connect("v", "vscale")
    g.connect("alpha", "vscale")
    g.connect("vscale", "w")
    g.connect("vscale", "total")
    return flatten(g)


class TestSplitProblems:
    def test_splittable(self):
        assert split_problems(VSCALE) == []

    def test_no_forall(self):
        assert any("no top-level forall" in p
                   for p in split_problems("output x\nx := 1"))

    def test_statement_after_forall(self):
        src = (
            "output w, s\nlocal i\nw := zeros(3)\n"
            "forall i := 1 to 3 do\nw[i] := i\nend\ns := 1"
        )
        assert any("after the forall" in p for p in split_problems(src))

    def test_uninitialised_array(self):
        src = (
            "input w0\noutput w\nlocal i\nw := w0\n"
            "forall i := 1 to 3 do\nw[i] := i\nend"
        )
        assert any("zeros" in p for p in split_problems(src))

    def test_static_errors_propagate(self):
        assert any("static errors" in p for p in split_problems("output x\nx := qq"))


class TestSplitForall:
    @pytest.mark.parametrize("ways", [2, 3, 4, 8])
    def test_results_unchanged(self, ways):
        tg = vector_graph(13)  # deliberately not divisible by most ways
        ref = run_dataflow(tg)
        split = split_forall(tg, "vscale", ways)
        got = run_dataflow(split)
        np.testing.assert_allclose(got.outputs["w"], ref.outputs["w"])
        assert got.outputs["total"] == ref.outputs["total"]

    def test_structure(self):
        tg = split_forall(vector_graph(), "vscale", 4)
        assert "vscale#p0" in tg and "vscale#merge" in tg
        assert "vscale" not in tg
        assert max_width(tg) >= 4
        assert tg.graph_outputs["w"] == "vscale#merge"
        # every shard consumes both graph inputs
        for k in range(4):
            assert f"vscale#p{k}" in tg.graph_inputs["v"]

    def test_work_divided(self):
        base = vector_graph()
        tg = split_forall(base, "vscale", 4)
        assert tg.work("vscale#p0") == pytest.approx(base.work("vscale") / 4)

    def test_small_iteration_space(self):
        """More shards than iterations: extra shards do zero trips."""
        tg = split_forall(vector_graph(2), "vscale", 4)
        ref = run_dataflow(vector_graph(2))
        got = run_dataflow(tg)
        np.testing.assert_allclose(got.outputs["w"], ref.outputs["w"])

    def test_ways_validation(self):
        with pytest.raises(GraphError, match="ways"):
            split_forall(vector_graph(), "vscale", 1)

    def test_unsplittable_task_rejected(self):
        tg = TaskGraph()
        tg.add_task("t", program="output x\nx := 1")
        with pytest.raises(GraphError, match="not splittable"):
            split_forall(tg, "t", 2)

    def test_no_program_rejected(self):
        tg = TaskGraph()
        tg.add_task("t")
        with pytest.raises(GraphError, match="no PITS program"):
            split_forall(tg, "t", 2)

    def test_original_untouched(self):
        tg = vector_graph()
        split_forall(tg, "vscale", 4)
        assert "vscale" in tg
        assert "vscale#p0" not in tg

    def test_name_collision_guard(self):
        tg = vector_graph()
        tg.add_task("vscale#p0", program="output z\nz := 1")
        with pytest.raises(GraphError, match="collide"):
            split_forall(tg, "vscale", 4)

    def test_double_split_of_different_nodes(self):
        """Two splittable nodes in one graph split independently."""
        g = DataflowGraph("two")
        import numpy as np

        g.add_storage("v", initial=np.arange(8, dtype=float), size=8)
        prog = (
            "input v\noutput w\nlocal i, n\nn := len(v)\nw := zeros(n)\n"
            "forall i := 1 to n do\nw[i] := v[i] + i\nend"
        )
        prog2 = (
            "input w\noutput u\nlocal i, n\nn := len(w)\nu := zeros(n)\n"
            "forall i := 1 to n do\nu[i] := w[i] * 2\nend"
        )
        g.add_task("f1", program=prog, work=8)
        g.add_storage("w", size=8)
        g.add_task("f2", program=prog2, work=8)
        g.add_storage("u", size=8)
        g.connect("v", "f1")
        g.connect("f1", "w")
        g.connect("w", "f2")
        g.connect("f2", "u")
        from repro.graph.transform import split_all

        tg = flatten(g)
        ref = run_dataflow(tg).outputs["u"]
        split = split_all(tg, 2)
        assert "f1#p1" in split and "f2#p1" in split
        np.testing.assert_allclose(run_dataflow(split).outputs["u"], ref)


class TestSplitScheduledExecution:
    def test_threaded_run_matches(self):
        tg = split_forall(vector_graph(16), "vscale", 4)
        machine = make_machine("full", 4, MachineParams(msg_startup=0.1))
        schedule = get_scheduler("mh").schedule(tg, machine)
        check_schedule(schedule)
        par = run(schedule, target="inproc")
        ref = run_dataflow(vector_graph(16))
        np.testing.assert_allclose(par["w"], ref.outputs["w"])

    def test_generated_code_matches(self):
        from repro.codegen import generate, run_generated

        tg = split_forall(vector_graph(10), "vscale", 2)
        machine = make_machine("full", 2, MachineParams(msg_startup=0.1))
        schedule = get_scheduler("mh").schedule(tg, machine)
        out = run_generated(generate(schedule, target="threads"))
        ref = run_dataflow(vector_graph(10))
        np.testing.assert_allclose(out["w"], ref.outputs["w"])

    def test_splitting_improves_speedup_for_heavy_forall(self):
        from repro.sched import predict_speedup
        from repro.sim import calibrate_works

        g = DataflowGraph("heavy")
        g.add_storage("v", initial=np.ones(64), size=64)
        g.add_task("f", program=(
            "input v\noutput w\nlocal i, n\nn := len(v)\nw := zeros(n)\n"
            "forall i := 1 to n do\nw[i] := sqrt(v[i] + i) * sin(i)\nend"
        ), work=64)
        g.add_storage("w", size=64)
        g.connect("v", "f")
        g.connect("f", "w")
        tg = calibrate_works(flatten(g))
        params = MachineParams(msg_startup=1.0, transmission_rate=100.0)
        single = predict_speedup(tg, (4,), params=params).points[0].speedup
        split = calibrate_works(split_forall(tg, "f", 4))
        multi = predict_speedup(split, (4,), params=params).points[0].speedup
        assert single == pytest.approx(1.0)
        assert multi > 2.0


class TestSplitAll:
    def test_finds_and_splits_everything(self):
        tg = vector_graph()
        assert splittable_tasks(tg) == ["vscale"]
        out = split_all(tg, 2)
        assert "vscale#p1" in out
        assert splittable_tasks(out) == []  # shards use plain for loops
