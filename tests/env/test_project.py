"""Tests for the BangerProject facade — the paper's four-step workflow."""

import numpy as np
import pytest

from repro.apps import lu3_design
from repro.env import BangerProject
from repro.errors import ReproError
from repro.graph import DataflowGraph
from repro.machine import MachineParams, NCUBE_LIKE

A = np.array([[4.0, 3.0, 2.0], [2.0, 4.0, 1.0], [1.0, 2.0, 3.0]])
B = np.array([1.0, 2.0, 3.0])


@pytest.fixture
def lu_project():
    return BangerProject("fig1").set_design(lu3_design()).set_machine(
        "hypercube", 4, NCUBE_LIKE
    )


def small_project():
    g = DataflowGraph("small")
    g.add_storage("a", initial=2.0)
    g.add_task("sq")
    g.add_storage("r")
    g.connect("a", "sq")
    g.connect("sq", "r", var="r")
    return BangerProject("small").set_design(g).set_machine("full", 2)


class TestWorkflow:
    def test_repr_names_the_design_size_and_the_machine(self, lu_project):
        assert repr(lu_project) == "BangerProject('fig1', nodes=7, machine=hypercube(4))"
        unset = BangerProject("bare").set_design(lu3_design())
        assert repr(unset) == "BangerProject('bare', nodes=7, machine=unset)"

    def test_feedback_clean_for_complete_design(self, lu_project):
        fb = lu_project.feedback()
        assert fb.ok
        assert fb.error_count == 0

    def test_feedback_reports_missing_programs(self):
        project = small_project()
        fb = project.feedback()
        assert not fb.ok
        assert "sq" in fb.missing_programs
        assert "no PITS program" in fb.render()

    def test_feedback_empty_project(self):
        fb = BangerProject().feedback()
        assert "no design yet" in fb.design_problems[0]

    def test_attach_program_clears_missing(self):
        project = small_project()
        fb = project.attach_program("sq", "input a\noutput r\nr := a * a")
        assert fb.ok

    def test_attach_program_with_work_measurement(self):
        project = small_project()
        project.attach_program(
            "sq", "input a\noutput r\nr := a * a", update_work=True, a=3.0
        )
        _, task = project._find_task("sq")
        assert task.work > 0

    def test_attach_program_reports_errors(self):
        project = small_project()
        fb = project.attach_program("sq", "input a\noutput r\nr := a * zz")
        assert not fb.ok
        assert "sq" in fb.node_diagnostics

    def test_attach_to_nested_node(self, lu_project):
        fb = lu_project.attach_program(
            "lud.fan1",
            "input A\noutput m21, m31\nm21 := A[2,1] / A[1,1]\nm31 := A[3,1] / A[1,1]",
        )
        assert fb.ok

    def test_find_task_rejects_composite(self, lu_project):
        with pytest.raises(ReproError, match="not a primitive"):
            lu_project._find_task("lud")

    def test_trial_run_node(self, lu_project):
        result = lu_project.trial_run_node("lud.fan1", A=A)
        assert result.outputs["m21"] == pytest.approx(0.5)

    def test_trial_run_without_program(self):
        project = small_project()
        with pytest.raises(ReproError, match="no PITS program"):
            project.trial_run_node("sq")

    def test_machine_required_for_scheduling(self):
        project = BangerProject().set_design(lu3_design())
        with pytest.raises(ReproError, match="no target machine"):
            project.schedule()


class TestCalculatorIntegration:
    def test_open_calculator_prefills(self, lu_project):
        panel = lu_project.open_calculator("lud.fan1")
        assert panel.inputs == ["A"]
        assert sorted(panel.outputs) == ["m21", "m31"]
        assert any("m21 :=" in line for line in panel.lines)

    def test_commit_panel_roundtrip(self, lu_project):
        panel = lu_project.open_calculator("lud.fan2")
        fb = lu_project.commit_panel("lud.fan2", panel)
        assert fb.ok
        result = lu_project.trial_run_node(
            "lud.fan2", row2=[2.0, 1.0], row3=[1.0, 3.0]
        )
        assert result.outputs["m32"] == 0.5


class TestSchedulingAndRunning:
    def test_schedule_and_gantt(self, lu_project):
        text = lu_project.gantt("mh")
        assert "Gantt chart: lu3" in text

    def test_gantt_series(self, lu_project):
        text = lu_project.gantt_series((2, 4))
        assert text.count("Gantt chart") == 2

    def test_speedup(self, lu_project):
        report = lu_project.speedup((1, 2, 4))
        assert report.points[0].speedup == pytest.approx(1.0)
        assert "Speedup prediction" in lu_project.speedup_chart((1, 2))

    def test_run_sequential(self, lu_project):
        result = lu_project.run({"A": A, "b": B})
        np.testing.assert_allclose(result.outputs["x"], np.linalg.solve(A, B))

    def test_run_parallel_matches(self, lu_project):
        par = lu_project.run_parallel({"A": A, "b": B})
        np.testing.assert_allclose(par.outputs["x"], np.linalg.solve(A, B))

    def test_calibrate_updates_weights(self, lu_project):
        lu_project.design.node("A").initial = A
        lu_project.design.node("b").initial = B
        assert lu_project.calibrate() is lu_project
        assert lu_project.flat().work("solve.forward") > 1

    def test_scheduler_object_accepted(self, lu_project):
        from repro.sched import HLFETScheduler

        schedule = lu_project.schedule(HLFETScheduler())
        assert schedule.scheduler == "hlfet"


class TestScheduleCaching:
    """Every mutator must evict exactly the stale cache entries."""

    def assert_cached(self, project):
        assert project.schedule("mh") is project.schedule("mh")

    def test_schedule_is_memoized(self, lu_project):
        self.assert_cached(lu_project)
        stats = lu_project.service.stats()
        assert stats.hits >= 1

    def test_attach_program_evicts(self, lu_project):
        before = lu_project.schedule("mh")
        lu_project.attach_program(
            "lud.fan1",
            "input A\noutput m21, m31\nm21 := A[2,1] / A[1,1]\nm31 := A[3,1] / A[1,1]",
            update_work=True,
            A=A,
        )
        assert lu_project.schedule("mh") is not before
        self.assert_cached(lu_project)

    def test_commit_panel_evicts(self, lu_project):
        before = lu_project.schedule("mh")
        panel = lu_project.open_calculator("lud.fan2")
        lu_project.commit_panel("lud.fan2", panel)
        assert lu_project.schedule("mh") is not before

    @pytest.fixture
    def forall_project(self):
        g = DataflowGraph("dp")
        g.add_storage("v", initial=np.arange(24, dtype=float), size=24)
        g.add_task("f", work=24, program=(
            "input v\noutput w\nlocal i, n\nn := len(v)\nw := zeros(n)\n"
            "forall i := 1 to n do\nw[i] := v[i] * 2 + i\nend"
        ))
        g.add_storage("w", size=24)
        g.connect("v", "f")
        g.connect("f", "w")
        return BangerProject("dp").set_design(g).set_machine("full", 4)

    def test_split_node_evicts(self, forall_project):
        before = forall_project.schedule("mh")
        forall_project.split_node("f", 2)
        assert forall_project.schedule("mh") is not before
        self.assert_cached(forall_project)

    def test_split_all_evicts(self, forall_project):
        before = forall_project.schedule("mh")
        forall_project.split_all(2)
        assert forall_project.schedule("mh") is not before

    def test_calibrate_evicts(self, lu_project):
        lu_project.design.node("A").initial = A
        lu_project.design.node("b").initial = B
        before = lu_project.schedule("mh")
        lu_project.calibrate()
        assert lu_project.schedule("mh") is not before

    def test_set_design_evicts(self, lu_project):
        before = lu_project.schedule("mh")
        lu_project.set_design(lu3_design())
        assert lu_project.schedule("mh") is not before

    def test_set_machine_evicts(self, lu_project):
        before = lu_project.schedule("mh")
        lu_project.set_machine("hypercube", 8, NCUBE_LIKE)
        after = lu_project.schedule("mh")
        assert after is not before
        assert after.n_procs == 8

    def test_mutators_chain(self):
        project = (
            BangerProject("chain")
            .set_design(lu3_design())
            .set_machine("hypercube", 4, NCUBE_LIKE)
            .calibrate({"A": A, "b": B})
        )
        assert project.schedule("mh").n_procs == 4

    def test_polymorphic_set_machine_rejects_params_with_object(self):
        from repro.machine import make_machine

        project = BangerProject().set_design(lu3_design())
        with pytest.raises(ReproError, match="params"):
            project.set_machine(make_machine("mesh", 4), params=NCUBE_LIKE)


class TestScheduleRequests:
    """The unified ScheduleRequest is accepted everywhere a scheduler is."""

    def test_schedule_accepts_request(self, lu_project):
        from repro.sched import ScheduleRequest

        schedule = lu_project.schedule(ScheduleRequest(scheduler="hlfet"))
        assert schedule.scheduler == "hlfet"

    def test_gantt_accepts_request(self, lu_project):
        from repro.sched import ScheduleRequest

        text = lu_project.gantt(ScheduleRequest(scheduler="mh"))
        assert "Gantt chart: lu3" in text

    def test_gantt_reuses_schedule_cache(self, lu_project):
        lu_project.schedule("mh")
        misses = lu_project.service.stats().misses
        lu_project.gantt("mh")
        assert lu_project.service.stats().misses == misses

    def test_gantt_series_accepts_request(self, lu_project):
        from repro.sched import ScheduleRequest

        text = lu_project.gantt_series(ScheduleRequest(proc_counts=(2, 4)))
        assert text.count("Gantt chart") == 2

    def test_speedup_accepts_request(self, lu_project):
        from repro.sched import ScheduleRequest

        report = lu_project.speedup(
            ScheduleRequest(scheduler="hlfet", proc_counts=(1, 2))
        )
        assert report.scheduler == "hlfet"
        assert [p.n_procs for p in report.points] == [1, 2]

    def test_speedup_chart_accepts_request(self, lu_project):
        from repro.sched import ScheduleRequest

        assert "Speedup prediction" in lu_project.speedup_chart(
            ScheduleRequest(proc_counts=(1, 2))
        )

    def test_family_defaults_to_machine(self):
        project = (
            BangerProject("mesh")
            .set_design(lu3_design())
            .set_machine("mesh", 4, NCUBE_LIKE)
        )
        report = project.speedup((1, 4))
        assert report.family == "mesh"

    def test_family_override_wins(self, lu_project):
        report = lu_project.speedup((1, 4), family="ring")
        assert report.family == "ring"


class TestCodegenIntegration:
    def test_generate_python_runs(self, lu_project):
        from repro.codegen import run_generated

        source = lu_project.generate("python")
        out = run_generated(source, {"A": A, "b": B})
        np.testing.assert_allclose(out["x"], np.linalg.solve(A, B))

    def test_generate_all_languages(self, lu_project):
        assert "def main" in lu_project.generate("python")  # legacy alias
        assert "def main" in lu_project.generate("threads")
        assert "mpi4py" in lu_project.generate("mpi")
        assert "#include" in lu_project.generate("c")

    def test_legacy_language_name_maps_to_threads(self, lu_project):
        assert lu_project.generate("python") == lu_project.generate("threads")

    def test_unknown_language(self, lu_project):
        with pytest.raises(ReproError, match="unknown codegen target"):
            lu_project.generate("fortran")

    def test_project_lower_and_run(self, lu_project):
        program = lu_project.lower()
        assert program.n_procs == lu_project.machine.n_procs
        assert program.content_hash() == lu_project.lower().content_hash()
        from repro.codegen import run

        out = run(lu_project, target="inproc", inputs={"A": A, "b": B})
        np.testing.assert_allclose(out["x"], np.linalg.solve(A, B))


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path, lu_project):
        path = tmp_path / "project.json"
        lu_project.save(str(path))
        back = BangerProject.load(str(path))
        assert back.name == "fig1"
        assert back.machine.n_procs == 4
        result = back.run({"A": A, "b": B})
        np.testing.assert_allclose(result.outputs["x"], np.linalg.solve(A, B))

    def test_wrong_document_type(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            BangerProject.from_dict({"type": "something"})

    def test_outline(self, lu_project):
        assert "[composite] lud" in lu_project.outline()
