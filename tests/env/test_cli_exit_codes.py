"""Exit codes are uniform across every subcommand.

The contract (also stated in ``repro/cli.py``'s docstring and
``docs/server.md``): ``0`` success, ``1`` findings/failures, ``2``
usage/missing-input.  Parametrized over the whole subcommand surface so a
new command cannot silently invent its own convention.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.apps import lu3_design
from repro.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from repro.env import BangerProject
from repro.graph import DataflowGraph
from repro.machine import MachineParams


@pytest.fixture(scope="module")
def good_project(tmp_path_factory) -> str:
    A = np.array([[4.0, 3.0, 2.0], [2.0, 4.0, 1.0], [1.0, 2.0, 3.0]])
    b = np.array([1.0, 2.0, 3.0])
    project = BangerProject("exit-codes").set_design(lu3_design(A, b))
    project.set_machine("hypercube", 4,
                        MachineParams(msg_startup=0.2, transmission_rate=20.0))
    path = tmp_path_factory.mktemp("cli") / "good.json"
    project.save(str(path))
    return str(path)


@pytest.fixture(scope="module")
def broken_project(tmp_path_factory) -> str:
    g = DataflowGraph("broken")
    g.add_task("t")  # primitive node without a program: feedback errors
    project = BangerProject("broken").set_design(g)
    path = tmp_path_factory.mktemp("cli") / "broken.json"
    project.save(str(path))
    return str(path)


@pytest.fixture(scope="module")
def not_json(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("cli") / "garbage.json"
    path.write_text("this is not json{", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def not_a_project(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("cli") / "other.json"
    path.write_text('{"type": "something-else"}', encoding="utf-8")
    return str(path)


SUCCESS_COMMANDS = [
    ["feedback", "{good}"],
    ["lint", "{good}"],
    ["outline", "{good}"],
    ["advise", "{good}"],
    ["schedule", "{good}"],
    ["speedup", "{good}", "--procs", "1,2"],
    ["sweep", "{good}", "--procs", "1,2"],
    ["simulate", "{good}"],
    ["run", "{good}"],
    ["codegen", "{good}"],
    ["conform", "--runs", "2"],
    ["topology", "--family", "mesh", "--procs", "9"],
]

USAGE_COMMANDS = [
    ["feedback", "/nonexistent/project.json"],
    ["schedule", "/nonexistent/project.json"],
    ["schedule", "{not_json}"],
    ["schedule", "{not_a_project}"],
    ["speedup", "{good}", "--procs", "a,b"],
    ["sweep", "{good}", "--scheduler", " , "],
    ["conform", "--replay", "/nonexistent/corpus"],
]

FAILURE_COMMANDS = [
    ["feedback", "{broken}"],
    ["lint", "{broken}"],
]


def _fill(argv, good, broken, not_json, not_a_project):
    table = {
        "{good}": good,
        "{broken}": broken,
        "{not_json}": not_json,
        "{not_a_project}": not_a_project,
    }
    return [table.get(a, a) for a in argv]


@pytest.mark.parametrize("argv", SUCCESS_COMMANDS, ids=lambda a: " ".join(a[:2]))
def test_success_exits_zero(argv, good_project, broken_project, not_json,
                            not_a_project, capsys):
    argv = _fill(argv, good_project, broken_project, not_json, not_a_project)
    assert main(argv) == EXIT_OK


@pytest.mark.parametrize("argv", FAILURE_COMMANDS, ids=lambda a: " ".join(a[:2]))
def test_findings_exit_one(argv, good_project, broken_project, not_json,
                           not_a_project, capsys):
    argv = _fill(argv, good_project, broken_project, not_json, not_a_project)
    assert main(argv) == EXIT_FAILURE


@pytest.mark.parametrize("argv", USAGE_COMMANDS, ids=lambda a: " ".join(a[:3]))
def test_usage_exits_two(argv, good_project, broken_project, not_json,
                         not_a_project, capsys):
    argv = _fill(argv, good_project, broken_project, not_json, not_a_project)
    assert main(argv) == EXIT_USAGE


def test_simulate_without_a_scenario_does_not_swallow_reactive(good_project, capsys):
    assert main(["simulate", good_project, "--reactive"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--scenario" in captured.err and not captured.out


def test_scenario_that_does_not_fit_the_machine_exits_two(
    good_project, tmp_path, capsys
):
    """The daemon answers this 400, so the CLI exits 2 (docs/server.md)."""
    from repro.machine.scenario import PROC_FAIL, FaultEvent, FaultScenario

    misfit = FaultScenario(events=(FaultEvent(time=1.0, kind=PROC_FAIL, proc=99),))
    path = tmp_path / "misfit.json"
    path.write_text(json.dumps(misfit.to_dict()), encoding="utf-8")
    for extra in ([], ["--reactive"]):
        argv = ["simulate", good_project, "--scenario", str(path), *extra]
        assert main(argv) == EXIT_USAGE
        assert "cannot load fault scenario" in capsys.readouterr().err


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("banger ")
    from repro import __version__

    assert __version__ in out


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE
