"""An interactive Banger session — the GUI's text-mode stand-in.

A :mod:`cmd`-based shell over :class:`~repro.env.project.BangerProject`:
draw nodes, wire arcs, write routines, pick a machine, and watch feedback
update after every command — the same interaction loop as the paper's
environment, minus the mouse.

Run it with ``python -m repro.env.shell`` or embed it::

    from repro.env.shell import BangerShell
    BangerShell().cmdloop()

Every command is a one-liner except ``program``, which reads PITS source
until a line containing only ``.``.
"""

from __future__ import annotations

import cmd
import shlex
import sys
from typing import IO

from repro.env.project import BangerProject
from repro.errors import ReproError
from repro.machine.params import PRESETS
from repro.server import ops


class BangerShell(cmd.Cmd):
    intro = (
        "Banger interactive session. Type help or ? for commands; "
        "start with: new <name>"
    )
    prompt = "banger> "

    def __init__(self, stdin: IO[str] | None = None, stdout: IO[str] | None = None):
        super().__init__(stdin=stdin, stdout=stdout)
        if stdin is not None:
            self.use_rawinput = False
        self.project = BangerProject("session")

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def emit(self, text: str = "") -> None:
        self.stdout.write(text + "\n")

    def onecmd(self, line: str) -> bool:  # noqa: D102 - cmd.Cmd API
        try:
            return super().onecmd(line)
        except ReproError as exc:
            self.emit(f"error: {exc}")
            return False
        except (ValueError, KeyError) as exc:
            self.emit(f"error: {exc}")
            return False

    def _args(self, line: str) -> list[str]:
        return shlex.split(line)

    @staticmethod
    def _scheduler(line: str) -> str:
        """The scheduler a line names (``mh`` if none), checked as the CLI's
        ``--scheduler`` and the daemon's ``scheduler`` are."""
        return ops.scheduler_option({"scheduler": line.strip() or None})

    def _feedback_line(self) -> None:
        fb = self.project.feedback()
        self.emit(f"({fb.error_count} error(s), {fb.warning_count} warning(s))")

    # ------------------------------------------------------------------ #
    # step 1: drawing
    # ------------------------------------------------------------------ #
    def do_new(self, line: str) -> None:
        """new <name> — start a fresh design."""
        name = line.strip() or "untitled"
        self.project = BangerProject(name)
        self.project.design.name = name
        self.emit(f"new design {name!r}")

    def do_task(self, line: str) -> None:
        """task <name> [work] — add a task oval."""
        args = self._args(line)
        if not args:
            self.emit("usage: task <name> [work]")
            return
        work = float(args[1]) if len(args) > 1 else 1.0
        self.project.design.add_task(args[0], work=work)
        self.project._invalidate()
        self._feedback_line()

    def do_storage(self, line: str) -> None:
        """storage <name> [initial-value] — add a storage rectangle."""
        args = self._args(line)
        if not args:
            self.emit("usage: storage <name> [initial]")
            return
        initial = float(args[1]) if len(args) > 1 else None
        self.project.design.add_storage(args[0], initial=initial)
        self.project._invalidate()
        self._feedback_line()

    def do_connect(self, line: str) -> None:
        """connect <src> <dst> [var] [size] — draw an arc."""
        args = self._args(line)
        if len(args) < 2:
            self.emit("usage: connect <src> <dst> [var] [size]")
            return
        var = args[2] if len(args) > 2 else ""
        size = float(args[3]) if len(args) > 3 else None
        self.project.design.connect(args[0], args[1], var=var, size=size)
        self.project._invalidate()
        self._feedback_line()

    def do_outline(self, line: str) -> None:
        """outline — print the design."""
        self.emit(self.project.outline())

    # ------------------------------------------------------------------ #
    # step 2: machine
    # ------------------------------------------------------------------ #
    def do_machine(self, line: str) -> None:
        """machine <family> <procs> [preset] — e.g. machine hypercube 4 ncube."""
        args = self._args(line)
        if len(args) < 2:
            self.emit(f"usage: machine <family> <procs> [{'|'.join(PRESETS)}]")
            return
        params = PRESETS[args[2]] if len(args) > 2 else PRESETS["ideal"]
        self.project.set_machine(args[0], int(args[1]), params)
        self.emit(f"target machine: {self.project.machine.name}")

    # ------------------------------------------------------------------ #
    # step 3: the calculator
    # ------------------------------------------------------------------ #
    def do_program(self, line: str) -> None:
        """program <node> — enter PITS source; finish with a line '.'"""
        node = line.strip()
        if not node:
            self.emit("usage: program <node>")
            return
        self.emit(f"enter PITS for {node!r}; end with a single '.'")
        lines: list[str] = []
        while True:
            raw = self.stdin.readline()
            if not raw or raw.strip() == ".":
                break
            lines.append(raw.rstrip("\n"))
        fb = self.project.attach_program(node, "\n".join(lines) + "\n")
        self.emit(fb.render())

    def do_trial(self, line: str) -> None:
        """trial <node> k=v [k=v ...] — trial-run one node."""
        args = self._args(line)
        if not args:
            self.emit("usage: trial <node> name=value ...")
            return
        bindings = {}
        for pair in args[1:]:
            key, _, value = pair.partition("=")
            bindings[key] = float(value)
        result = self.project.trial_run_node(args[0], **bindings)
        for name, value in result.outputs.items():
            self.emit(f"{name} = {value}")
        for message in result.displayed:
            self.emit(f"| {message}")
        self.emit(f"({result.ops:.0f} ops)")

    def do_feedback(self, line: str) -> None:
        """feedback — validate everything and list all problems."""
        self.emit(self.project.feedback().render())

    def do_advise(self, line: str) -> None:
        """advise — measured improvement suggestions."""
        from repro.env.advisor import render_advice

        self.emit(render_advice(self.project.advise()))

    # ------------------------------------------------------------------ #
    # step 4: schedule, run, generate
    # ------------------------------------------------------------------ #
    def do_gantt(self, line: str) -> None:
        """gantt [scheduler] — schedule and draw the chart."""
        self.emit(self.project.gantt(self._scheduler(line)))

    def do_why(self, line: str) -> None:
        """why [scheduler] — explain every placement's binding constraint."""
        from repro.sched import render_explanations

        self.emit(render_explanations(self.project.schedule(self._scheduler(line))))

    def do_speedup(self, line: str) -> None:
        """speedup [p1,p2,...] — speedup prediction chart (default 1,2,4,8)."""
        procs = ops.comma_list(line) if line.strip() else None
        request = ops.speedup_options({"proc_counts": procs})
        self.emit(self.project.speedup_chart(request))

    def do_run(self, line: str) -> None:
        """run [parallel] — execute the whole design."""
        if line.strip() == "parallel":
            result = self.project.run_parallel()
            self.emit(
                f"ran on processors {result.procs_used} with "
                f"{result.messages_sent} message(s)"
            )
            outputs = result.outputs
        else:
            seq = self.project.run()
            for message in seq.displayed():
                self.emit(f"| {message}")
            outputs = seq.outputs
        for name in sorted(outputs):
            self.emit(f"{name} = {outputs[name]}")

    def do_split(self, line: str) -> None:
        """split <node> <ways> — shard a forall node."""
        args = self._args(line)
        if len(args) != 2:
            self.emit("usage: split <node> <ways>")
            return
        self.project.split_node(args[0], int(args[1]))
        self.emit(f"split {args[0]!r} {args[1]} ways")

    def do_codegen(self, line: str) -> None:
        """codegen [python|mpi|c] [file] — generate the parallel program."""
        args = self._args(line)
        language = args[0] if args else "python"
        source = self.project.generate(language)
        if len(args) > 1:
            with open(args[1], "w", encoding="utf-8") as fh:
                fh.write(source)
            self.emit(f"wrote {args[1]} ({len(source.splitlines())} lines)")
        else:
            self.emit(source)

    # ------------------------------------------------------------------ #
    # persistence / exit
    # ------------------------------------------------------------------ #
    def do_save(self, line: str) -> None:
        """save <path> — save the project as JSON."""
        path = line.strip()
        if not path:
            self.emit("usage: save <path>")
            return
        self.project.save(path)
        self.emit(f"saved {path}")

    def do_load(self, line: str) -> None:
        """load <path> — load a saved project."""
        path = line.strip()
        if not path:
            self.emit("usage: load <path>")
            return
        self.project = BangerProject.load(path)
        self.emit(f"loaded {self.project.name!r}")
        self._feedback_line()

    def do_quit(self, line: str) -> bool:
        """quit — leave the session."""
        self.emit("bye")
        return True

    do_exit = do_quit
    do_EOF = do_quit

    def emptyline(self) -> bool:  # pressing return does nothing (cmd repeats
        return False              # the last command by default — surprising)


def main() -> int:
    BangerShell().cmdloop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
