"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.apps import lu3_design
from repro.cli import main
from repro.env import BangerProject
from repro.machine import MachineParams


@pytest.fixture
def project_path(tmp_path):
    A = np.array([[4.0, 3.0, 2.0], [2.0, 4.0, 1.0], [1.0, 2.0, 3.0]])
    b = np.array([1.0, 2.0, 3.0])
    project = BangerProject("cli-test").set_design(lu3_design(A, b))
    project.set_machine("hypercube", 4,
                        MachineParams(msg_startup=0.2, transmission_rate=20.0))
    path = tmp_path / "project.json"
    project.save(str(path))
    return str(path)


class TestFeedbackAndOutline:
    def test_feedback_ok(self, project_path, capsys):
        assert main(["feedback", project_path]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_feedback_fails_on_broken_project(self, tmp_path, capsys):
        from repro.graph import DataflowGraph

        g = DataflowGraph("broken")
        g.add_task("t")  # no program
        project = BangerProject("broken").set_design(g)
        path = tmp_path / "broken.json"
        project.save(str(path))
        assert main(["feedback", str(path)]) == 1

    def test_outline(self, project_path, capsys):
        assert main(["outline", project_path]) == 0
        assert "[composite] lud" in capsys.readouterr().out

    def test_advise(self, project_path, capsys):
        assert main(["advise", project_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[")  # at least one [kind] line

    def test_missing_file(self, capsys):
        assert main(["outline", "/nonexistent/project.json"]) == 2
        assert "error" in capsys.readouterr().err


def _four_procs(doc):
    doc["machine"]["topology"]["n_procs"] = "four"
    return doc


class TestMalformedDocuments:
    """Every input file that is not what its flag needs exits 2 with one
    ``error:`` line — the loaders raise typed errors, never a traceback."""

    @pytest.mark.parametrize(
        "argv, bad_file, make_bad, expected",
        [
            (["schedule", "{bad}"], "list.json", lambda doc: [1, 2],
             "cannot load Banger project"),
            (["schedule", "{bad}"], "four.json", _four_procs,
             "malformed machine document"),
            (["simulate", "{project}", "--scenario", "{bad}"], "notime.json",
             lambda doc: {"type": "fault-scenario",
                          "events": [{"kind": "proc_fail", "proc": 0}]},
             "malformed scenario: malformed fault-scenario document"),
            (["simulate", "{project}", "--scenario", "{bad}"], "list.json",
             lambda doc: [1, 2], "scenario must be a fault-scenario document"),
            (["lint", "{project}", "--baseline", "{bad}"], "list.json",
             lambda doc: [1, 2], "cannot load SARIF baseline"),
        ],
    )
    def test_exit_2_with_one_error_line(
        self, project_path, tmp_path, capsys, argv, bad_file, make_bad, expected
    ):
        with open(project_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        bad = tmp_path / bad_file
        bad.write_text(json.dumps(make_bad(doc)), encoding="utf-8")
        argv = [a.format(project=project_path, bad=bad) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and expected in line
        assert "Traceback" not in captured.out + captured.err


class TestSchedule:
    def test_summary_row(self, project_path, capsys):
        assert main(["schedule", project_path]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "mh" in out

    def test_gantt_flag(self, project_path, capsys):
        assert main(["schedule", project_path, "--gantt", "--messages"]) == 0
        assert "Gantt chart" in capsys.readouterr().out

    def test_why_flag(self, project_path, capsys):
        assert main(["schedule", project_path, "--why"]) == 0
        assert "why the schedule" in capsys.readouterr().out

    def test_csv_and_chrome_outputs(self, project_path, tmp_path, capsys):
        csv = tmp_path / "sched.csv"
        trace = tmp_path / "sched.trace.json"
        assert main([
            "schedule", project_path, "--csv", str(csv),
            "--chrome-trace", str(trace),
        ]) == 0
        assert csv.read_text().startswith("task,proc")
        json.loads(trace.read_text())

    def test_scheduler_choice(self, project_path, capsys):
        assert main(["schedule", project_path, "--scheduler", "dsh"]) == 0
        assert "dsh" in capsys.readouterr().out


class TestSweepSimRun:
    def test_speedup(self, project_path, capsys):
        assert main(["speedup", project_path, "--procs", "1,2,4"]) == 0
        out = capsys.readouterr().out
        assert "Speedup prediction" in out
        assert "p=4" in out

    def test_bad_procs_list(self, project_path, capsys):
        assert main(["speedup", project_path, "--procs", "a,b"]) == 2

    def test_simulate(self, project_path, capsys):
        assert main(["simulate", project_path, "--contention"]) == 0
        out = capsys.readouterr().out
        assert "Simulated Gantt" in out
        assert "simulated makespan" in out

    def test_run_sequential(self, project_path, capsys):
        assert main(["run", project_path]) == 0
        assert "x = " in capsys.readouterr().out

    def test_run_parallel(self, project_path, capsys):
        assert main(["run", project_path, "--parallel"]) == 0
        out = capsys.readouterr().out
        assert "ran on processors" in out
        assert "x = " in out


class TestSweep:
    def test_single_scheduler_table(self, project_path, capsys):
        assert main(["sweep", project_path, "--procs", "1,2,4"]) == 0
        out = capsys.readouterr().out
        assert "speedup prediction" in out
        assert "speedup" in out and "eff" in out

    def test_multiple_schedulers(self, project_path, capsys):
        assert main([
            "sweep", project_path, "--procs", "1,2",
            "--scheduler", "mh,hlfet",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("speedup prediction") == 2
        assert "hlfet" in out

    def test_stats_flag(self, project_path, capsys):
        assert main([
            "sweep", project_path, "--procs", "1,2", "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "hit(s)" in out and "miss(es)" in out and "sweep:" in out

    def test_json_artifact(self, project_path, tmp_path, capsys):
        out_file = tmp_path / "sweep.json"
        assert main([
            "sweep", project_path, "--procs", "1,2,4",
            "--scheduler", "mh,serial",
            "--json", str(out_file),
        ]) == 0
        doc = json.loads(out_file.read_text(encoding="utf-8"))
        assert doc["type"] == "banger-sweep"
        assert doc["proc_counts"] == [1, 2, 4]
        assert sorted(doc["schedulers"]) == ["mh", "serial"]
        points = doc["schedulers"]["mh"]["points"]
        assert [p["n_procs"] for p in points] == [1, 2, 4]
        assert doc["stats"]["misses"] > 0

    def test_the_cache_bypass_flag_is_gone(self, project_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", project_path, "--no-cache"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-cache" in capsys.readouterr().err

    def test_gantt_flag(self, project_path, capsys):
        assert main([
            "sweep", project_path, "--procs", "2", "--gantt",
        ]) == 0
        assert "Gantt chart" in capsys.readouterr().out

    def test_empty_scheduler_list(self, project_path, capsys):
        assert main(["sweep", project_path, "--scheduler", ","]) == 2


class TestCodegenTopologyDemo:
    def test_codegen_stdout(self, project_path, capsys):
        assert main(["codegen", project_path, "--target", "mpi"]) == 0
        assert "mpi4py" in capsys.readouterr().out

    def test_codegen_to_file(self, project_path, tmp_path, capsys):
        out_file = tmp_path / "prog.py"
        assert main(["codegen", project_path, "-o", str(out_file)]) == 0
        text = out_file.read_text()
        compile(text, "prog", "exec")

    def test_topology(self, capsys):
        assert main(["topology", "--family", "mesh", "--procs", "9"]) == 0
        assert "mesh(3x3)" in capsys.readouterr().out

    def test_demo(self, tmp_path, capsys):
        save = tmp_path / "demo.json"
        assert main(["demo", "--save", str(save)]) == 0
        out = capsys.readouterr().out
        assert "Gantt chart" in out
        assert save.exists()
        # the saved project round-trips through the CLI again
        assert main(["outline", str(save)]) == 0
