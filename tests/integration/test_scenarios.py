"""Cross-subsystem scenarios: long chains of features working together."""

import numpy as np
import pytest

from repro.apps import lu3_design
from repro.codegen import generate, run, run_generated
from repro.env import BangerProject
from repro.graph import DataflowGraph, flatten
from repro.graph.generators import random_hierarchical
from repro.graph.transform import split_forall
from repro.machine import MachineParams, TIGHT_SMP, make_machine
from repro.sched import (
    check_schedule,
    get_scheduler,
    hill_climb,
    schedule_from_json,
    schedule_to_json,
)
from repro.sim import calibrate_works, run_dataflow, simulate

A = np.array([[4.0, 3.0, 2.0], [2.0, 4.0, 1.0], [1.0, 2.0, 3.0]])
B = np.array([1.0, 2.0, 3.0])


class TestSaveLoadSplitGenerate:
    def test_full_round_trip(self, tmp_path):
        """save -> load -> split -> calibrate -> schedule -> hill-climb ->
        serialise schedule -> reload -> generate -> run: all consistent."""
        g = DataflowGraph("roundtrip")
        g.add_storage("v", initial=np.arange(20, dtype=float), size=20)
        g.add_task("f", work=20, program=(
            "input v\noutput w\nlocal i, n\nn := len(v)\nw := zeros(n)\n"
            "forall i := 1 to n do\nw[i] := v[i] * 3 - i\nend"
        ))
        g.add_storage("w", size=20)
        g.connect("v", "f")
        g.connect("f", "w")
        project = BangerProject("roundtrip").set_design(g).set_machine(
            "full", 4, MachineParams(msg_startup=0.1, transmission_rate=100)
        )
        path = tmp_path / "p.json"
        project.save(str(path))

        loaded = BangerProject.load(str(path))
        reference = loaded.run().outputs["w"]

        loaded.split_node("f", 4)
        loaded.calibrate()
        schedule = loaded.schedule("mh")
        improved = hill_climb(schedule, max_moves=5)
        check_schedule(improved)

        reloaded = schedule_from_json(schedule_to_json(improved))
        generated = generate(reloaded, target="threads")
        out = run_generated(generated)
        np.testing.assert_allclose(out["w"], reference)

    def test_lu_project_through_every_backend(self, tmp_path):
        """One design; four execution backends; one answer."""
        project = BangerProject("lu").set_design(lu3_design()).set_machine(
            "hypercube", 4, TIGHT_SMP
        )
        expected = np.linalg.solve(A, B)
        seq = project.run({"A": A, "b": B}).outputs["x"]
        par = project.run_parallel({"A": A, "b": B}).outputs["x"]
        gen = run_generated(project.generate("python"), {"A": A, "b": B})["x"]
        np.testing.assert_allclose(seq, expected, rtol=1e-10)
        np.testing.assert_allclose(par, expected, rtol=1e-10)
        np.testing.assert_allclose(gen, expected, rtol=1e-10)
        # the simulator validates timing on the same schedule
        trace = simulate(project.schedule("mh"))
        assert trace.makespan() > 0


class TestHierarchicalScenarios:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_hierarchies_flatten_and_schedule(self, seed):
        design = random_hierarchical(depth=3, seed=seed)
        design.validate()
        tg = flatten(design)
        machine = make_machine("full", 4, MachineParams(msg_startup=1.0))
        for name in ("mh", "dsh", "lc"):
            schedule = get_scheduler(name).schedule(tg, machine)
            check_schedule(schedule)

    def test_hierarchy_json_roundtrip_preserves_flattening(self):
        from repro.graph import dataflow_from_json, dataflow_to_json

        design = random_hierarchical(depth=3, seed=8)
        back = dataflow_from_json(dataflow_to_json(design))
        a, b = flatten(design), flatten(back)
        assert sorted(a.task_names) == sorted(b.task_names)
        assert {(e.src, e.dst) for e in a.edges} == {(e.src, e.dst) for e in b.edges}


class TestAdvisorDrivenLoop:
    def test_split_then_advisor_approves(self):
        """The tuning loop of examples/tuning_session.py, asserted."""
        from repro.env import advise

        g = DataflowGraph("loop")
        g.add_storage("v", initial=np.linspace(0, 1, 32), size=32)
        g.add_task("f", work=32, program=(
            "input v\noutput w\nlocal i, n\nn := len(v)\nw := zeros(n)\n"
            "forall i := 1 to n do\nw[i] := sqrt(v[i] + i)\nend"
        ))
        g.add_storage("w", size=32)
        g.connect("v", "f")
        g.connect("f", "w")
        machine = make_machine("full", 4, MachineParams(msg_startup=0.2, transmission_rate=50))
        tg = calibrate_works(flatten(g))

        before = advise(tg, machine)
        assert any(a.kind == "parallelism" for a in before)

        split = calibrate_works(split_forall(tg, "f", 4))
        after = advise(split, machine)
        assert not any(a.kind == "parallelism" for a in after)

        ref = run_dataflow(tg).outputs["w"]
        schedule = get_scheduler("mh").schedule(split, machine)
        np.testing.assert_allclose(run(schedule, target="inproc")["w"], ref)
