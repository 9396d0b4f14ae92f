"""Direct tests for public API corners not exercised elsewhere."""

import numpy as np
import pytest

from repro.graph import DataflowGraph, TaskGraph
from repro.graph.generators import random_hierarchical
from repro.graph.transform import analyze_split
from repro.machine import Hypercube, MachineParams, TargetMachine, make_machine
from repro.sched import Schedule, get_scheduler
from repro.sim import EventEngine, run_dataflow, simulate


class TestGraphOddsAndEnds:
    def test_in_arcs(self):
        g = DataflowGraph()
        g.add_task("a")
        g.add_task("b")
        g.connect("a", "b", var="v")
        (arc,) = g.in_arcs("b")
        assert (arc.src, arc.var) == ("a", "v")
        assert g.out_arcs("a")[0].dst == "b"

    def test_analyze_split_plan_fields(self):
        src = (
            "input v\noutput w, s\nlocal i, n\nn := len(v)\nw := zeros(n)\n"
            "s := n * 2\nforall i := 1 to n do\nw[i] := v[i]\nend"
        )
        plan = analyze_split("t", src)
        assert plan.parallel_outputs == ("w",)
        assert plan.replicated_outputs == ("s",)
        assert plan.loop.parallel
        assert len(plan.prelude) == 3


class TestMachineOddsAndEnds:
    def test_max_degree(self):
        assert Hypercube(3).max_degree() == 3

    def test_set_machine_accepts_machine_object(self):
        from repro.env import BangerProject

        g = DataflowGraph("d")
        g.add_task("t", program="output x\nx := 1")
        machine = TargetMachine(Hypercube(2), MachineParams())
        project = BangerProject().set_design(g).set_machine(machine)
        assert project.machine is machine
        assert project.schedule("serial").n_procs == 4


class TestScheduleOddsAndEnds:
    def test_scheduled_tasks_sorted(self):
        tg = TaskGraph()
        tg.add_task("z")
        tg.add_task("a")
        machine = make_machine("full", 2, MachineParams())
        s = Schedule(tg, machine)
        s.add("z", 0, 0.0, 1.0)
        s.add("a", 1, 0.0, 1.0)
        assert s.scheduled_tasks() == ["a", "z"]


class TestSimOddsAndEnds:
    def test_engine_pending(self):
        engine = EventEngine()
        engine.schedule(1.0, lambda: None)
        assert engine.pending == 1
        engine.run()
        assert engine.pending == 0

    def test_trace_runs_on(self):
        from repro.graph.generators import fork_join

        tg = fork_join(2, work=1, comm=1)
        machine = make_machine("full", 3, MachineParams())
        trace = simulate(get_scheduler("roundrobin").schedule(tg, machine))
        for proc in range(3):
            runs = trace.runs_on(proc)
            assert runs == sorted(runs, key=lambda r: r.start)

    def test_measured_works(self):
        g = DataflowGraph("m")
        g.add_storage("a", initial=2.0)
        g.add_task("t", program="input a\noutput x\nx := a * a")
        g.add_storage("x")
        g.connect("a", "t")
        g.connect("t", "x")
        from repro.graph import flatten

        result = run_dataflow(flatten(g))
        works = result.measured_works()
        assert works["t"] > 0


class TestHierarchicalProperties:
    @pytest.mark.parametrize("seed", range(12))
    def test_flatten_counts_match(self, seed):
        from repro.graph import count_primitive_tasks, flatten

        design = random_hierarchical(depth=3, seed=seed)
        design.validate()
        tg = flatten(design)
        assert len(tg) == count_primitive_tasks(design)
        assert tg.is_acyclic()

    @pytest.mark.parametrize("seed", range(6))
    def test_expand_idempotent(self, seed):
        from repro.graph import expand

        design = random_hierarchical(depth=3, seed=seed)
        once = expand(design)
        twice = expand(once)
        assert sorted(once.node_names) == sorted(twice.node_names)
        assert not once.composites
