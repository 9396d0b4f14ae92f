"""Tests for the interactive shell (driven via onecmd / scripted stdin)."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.env.shell import BangerShell


def make_shell(stdin_text: str = ""):
    out = io.StringIO()
    shell = BangerShell(stdin=io.StringIO(stdin_text), stdout=out)
    return shell, out


class TestDrawing:
    def test_new_task_storage_connect(self):
        shell, out = make_shell()
        shell.onecmd("new demo")
        shell.onecmd("storage a 4")
        shell.onecmd("task sq 2")
        shell.onecmd("storage r")
        shell.onecmd("connect a sq")
        shell.onecmd("connect sq r r")
        shell.onecmd("outline")
        text = out.getvalue()
        assert "new design 'demo'" in text
        assert "[task] sq" in text
        assert "[storage] a" in text

    def test_feedback_counts_update(self):
        shell, out = make_shell()
        shell.onecmd("new d")
        shell.onecmd("task t")
        assert "warning" in out.getvalue()

    def test_feedback_lists_every_problem(self):
        shell, out = make_shell()
        shell.onecmd("new d")
        shell.onecmd("task t")
        before = len(out.getvalue())
        shell.onecmd("feedback")
        listed = out.getvalue()[before:]
        assert listed.startswith("feedback: 1 error(s), 0 warning(s)")
        assert "[t] error: no PITS program yet (DF109)" in listed

    def test_errors_are_caught_not_raised(self):
        shell, out = make_shell()
        shell.onecmd("new d")
        shell.onecmd("connect nope alsonope")
        assert "error:" in out.getvalue()

    def test_usage_messages(self):
        shell, out = make_shell()
        for bad in ("task", "storage", "connect x", "program", "save", "load",
                    "split onlyone"):
            shell.onecmd(bad)
        assert out.getvalue().count("usage:") == 7


class TestFullSession:
    def build_session(self):
        program = "input a\noutput r\nr := sqrt(a)\n.\n"
        shell, out = make_shell(stdin_text=program)
        shell.onecmd("new demo")
        shell.onecmd("storage a 16")
        shell.onecmd("task sq 2")
        shell.onecmd("storage r")
        shell.onecmd("connect a sq")
        shell.onecmd("connect sq r r")
        shell.onecmd("machine hypercube 4 ncube")
        shell.onecmd("program sq")
        return shell, out

    def test_program_entry_and_trial(self):
        shell, out = self.build_session()
        shell.onecmd("trial sq a=25")
        text = out.getvalue()
        assert "0 error(s)" in text
        assert "r = 5.0" in text

    def test_run_and_gantt_and_speedup(self):
        shell, out = self.build_session()
        shell.onecmd("run")
        shell.onecmd("gantt")
        shell.onecmd("speedup 1,2")
        text = out.getvalue()
        assert "r = 4.0" in text
        assert "Gantt chart" in text
        assert "Speedup prediction" in text

    def test_run_parallel(self):
        shell, out = self.build_session()
        shell.onecmd("run parallel")
        assert "ran on processors" in out.getvalue()

    def test_advise(self):
        shell, out = self.build_session()
        shell.onecmd("advise")
        assert "[" in out.getvalue()

    def test_why(self):
        shell, out = self.build_session()
        shell.onecmd("why")
        assert "why the schedule" in out.getvalue()

    def test_codegen_to_file(self, tmp_path):
        shell, out = self.build_session()
        target = tmp_path / "prog.py"
        shell.onecmd(f"codegen python {target}")
        assert target.exists()
        compile(target.read_text(), "prog", "exec")

    def test_save_load_roundtrip(self, tmp_path):
        shell, out = self.build_session()
        path = tmp_path / "session.json"
        shell.onecmd(f"save {path}")
        shell2, out2 = make_shell()
        shell2.onecmd(f"load {path}")
        shell2.onecmd("run")
        assert "r = 4.0" in out2.getvalue()

    def test_quit(self):
        shell, out = make_shell()
        assert shell.onecmd("quit") is True
        assert "bye" in out.getvalue()

    def test_empty_line_is_noop(self):
        shell, out = make_shell()
        assert shell.onecmd("") is False

    def test_the_package_resolves_the_shell_on_first_use(self):
        import repro.env

        assert repro.env.BangerShell is BangerShell

    def test_the_documented_entry_point_runs_a_session(self):
        """``python -m repro.env.shell``, as README.md and docs/TUTORIAL.md
        start it."""
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "repro.env.shell"], input="new d\nquit\n",
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stderr
        assert "new design 'd'" in done.stdout and "bye" in done.stdout


class TestSplitInShell:
    def test_split_command(self):
        program = (
            "input v\noutput w\nlocal i, n\nn := len(v)\nw := zeros(n)\n"
            "forall i := 1 to n do\nw[i] := v[i] * 2\nend\n.\n"
        )
        shell, out = make_shell(stdin_text=program)
        shell.onecmd("new dp")
        shell.onecmd("storage v")
        shell.onecmd("task f 8")
        shell.onecmd("storage w")
        shell.onecmd("connect v f")
        shell.onecmd("connect f w w")
        shell.onecmd("machine full 4 smp")
        shell.onecmd("program f")
        shell.onecmd("split f 4")
        assert "split 'f' 4 ways" in out.getvalue()
        assert "f#p3" in shell.project.flat()


class TestOneValidator:
    """The shell is a third door onto ``repro.server.ops``' validators: a bad
    size list or scheduler name prints the sentence ``banger`` exits 2 with."""

    EXAMPLE = str(Path(__file__).parents[2] / "examples" / "lu_decomposition.json")

    @pytest.mark.parametrize(
        "line, flags",
        [
            ("speedup a,b", ["speedup", "--procs", "a,b"]),
            ("speedup 0,2", ["speedup", "--procs", "0,2"]),
            ("speedup 1,x", ["speedup", "--procs", "1,x"]),
            ("speedup -4", ["speedup", "--procs", "-4"]),
            ("gantt nope", ["speedup", "--scheduler", "nope"]),
            ("why nope", ["schedule", "--scheduler", "nope"]),
        ],
    )
    def test_shell_and_cli_refuse_alike(self, line, flags, capsys):
        from repro.cli import main

        shell, out = make_shell()
        shell.onecmd(f"load {self.EXAMPLE}")
        shell.onecmd(line)
        said = out.getvalue().splitlines()[-1]
        assert main([flags[0], self.EXAMPLE, *flags[1:]]) == 2
        assert said == capsys.readouterr().err.strip()
        assert said.startswith("error: ")

    def test_default_sizes_are_the_cli_and_daemon_default(self, capsys):
        from repro.cli import main

        shell, out = make_shell()
        shell.onecmd(f"load {self.EXAMPLE}")
        loaded = out.getvalue()
        shell.onecmd("speedup")
        assert main(["speedup", self.EXAMPLE]) == 0
        assert out.getvalue()[len(loaded):] == capsys.readouterr().out
