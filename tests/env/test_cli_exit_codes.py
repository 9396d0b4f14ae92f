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
from repro.machine.scenario import PROC_FAIL, FaultEvent, FaultScenario
from repro.server.ops import OPS, OpError


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
    ["speedup", "--procs", "0", "{good}"],
    ["sweep", "{good}", "--scheduler", " , "],
    ["sweep", "--scheduler", "bogus", "{good}"],
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
    assert "'scenario'" in captured.err and not captured.out


def test_scenario_that_does_not_fit_the_machine_exits_two(
    good_project, tmp_path, capsys
):
    """The daemon answers this 400, so the CLI exits 2 (docs/server.md)."""
    misfit = FaultScenario(events=(FaultEvent(time=1.0, kind=PROC_FAIL, proc=99),))
    path = tmp_path / "misfit.json"
    path.write_text(json.dumps(misfit.to_dict()), encoding="utf-8")
    for extra in ([], ["--reactive"]):
        argv = ["simulate", good_project, "--scenario", str(path), *extra]
        assert main(argv) == EXIT_USAGE
        assert "does not fit the project machine" in capsys.readouterr().err


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("banger ")
    from repro import __version__

    assert __version__ in out


@pytest.mark.parametrize("flag, value", [
    pytest.param(flag, "-1", id=flag) for flag in (
        "--cache-entries", "--quota-projects", "--quota-versions", "--quota-bytes",
    )
] + [
    pytest.param(flag, value, id=f"{flag} {value}") for flag, value in (
        ("--queue-limit", "0"), ("--timeout", "0"), ("--workers", "-1"),
    )
])
def test_serve_refuses_a_negative_bound_before_it_binds(flag, value, capsys):
    """``--cache-entries -1`` used to hang every computed request, a
    negative quota refused every put, ``--queue-limit 0`` answered every
    request 503 and ``--timeout 0`` 504; each is a usage error now, the
    daemon's own refusal naming the flag."""
    assert main(["serve", "--port", "0", flag, value, "--no-seed-corpus"]) == EXIT_USAGE
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and value in line


def test_serve_help_names_every_endpoint(capsys):
    from repro.server.app import ROUTES

    with pytest.raises(SystemExit):
        main(["serve", "--help"])
    words = capsys.readouterr().out.replace(",", " ").split()
    for path in [*ROUTES, "/healthz", "/metrics", "/projects"]:
        assert path in words, path


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


# --------------------------------------------------------------------- #
# one table, both doors: the same mistake gets the same answer from
# ``banger <cmd>`` (exit 2) and from the daemon's op (OpError -> 400)
# --------------------------------------------------------------------- #
MISFIT = FaultScenario(
    events=(FaultEvent(time=1.0, kind=PROC_FAIL, proc=99),)
).to_dict()
NO_TIME = {"type": "fault-scenario", "events": [{"kind": "proc_fail", "proc": 0}]}
SCENARIOS = {"{misfit}": MISFIT, "{no_time}": NO_TIME, "{a_list}": [1, 2]}

#: (subcommand == op, argv after the project, the same options as a payload)
PARITY = [
    ("lint", ["--concurrency", "--scheduler", "bogus"],
     {"concurrency": True, "scheduler": "bogus"}),
    ("lint", ["--scheduler", "bogus"], {"scheduler": "bogus"}),
    ("schedule", ["--scheduler", "bogus"], {"scheduler": "bogus"}),
    ("speedup", ["--scheduler", "bogus"], {"scheduler": "bogus"}),
    ("sweep", ["--scheduler", "mh,bogus"], {"schedulers": ["mh", "bogus"]}),
    ("simulate", ["--scheduler", "bogus"], {"scheduler": "bogus"}),
    ("codegen", ["--scheduler", "bogus"], {"scheduler": "bogus"}),
    ("sweep", ["--scheduler", "5"], {"schedulers": [5]}),
    ("sweep", ["--scheduler", ","], {"schedulers": []}),
    ("speedup", ["--procs", "0,2"], {"proc_counts": [0, 2]}),
    ("sweep", ["--procs", "0,2"], {"proc_counts": [0, 2]}),
    ("speedup", ["--procs", "a,b"], {"proc_counts": ["a", "b"]}),
    ("codegen", ["--target", "mpi", "--run"], {"target": "mpi", "run": True}),
    ("codegen", ["--target", "c", "--run"], {"target": "c", "run": True}),
    ("codegen", ["--target", "fortran"], {"target": "fortran"}),
    ("lint", ["--fail-on", "never"], {"fail_on": "never"}),
    ("simulate", ["--reactive"], {"reactive": True}),
    ("simulate", ["--scenario", "{misfit}"], {"scenario": "{misfit}"}),
    ("simulate", ["--scenario", "{misfit}", "--reactive"],
     {"scenario": "{misfit}", "reactive": True}),
    ("simulate", ["--scenario", "{no_time}"], {"scenario": "{no_time}"}),
    ("simulate", ["--scenario", "{a_list}"], {"scenario": "{a_list}"}),
]


@pytest.mark.parametrize(
    "command, tail, options", PARITY,
    ids=[" ".join([command, *tail]) for command, tail, _ in PARITY],
)
def test_both_doors_refuse_alike(command, tail, options, good_project,
                                 tmp_path, capsys):
    for placeholder, doc in SCENARIOS.items():
        if placeholder in tail:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            tail = [str(path) if a == placeholder else a for a in tail]
            options = {**options, "scenario": doc}
    assert main([command, good_project, *tail]) == EXIT_USAGE
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert not captured.out
    with open(good_project, encoding="utf-8") as fh:
        payload = {"project": json.load(fh), **options}
    with pytest.raises(OpError) as refusal:
        OPS[command](payload)
    assert line == f"error: {refusal.value}"


@pytest.mark.parametrize("command", ["run", "edit"])
def test_commands_without_an_endpoint_check_the_scheduler_the_same_way(
    command, good_project, capsys
):
    extra = ["--parallel"] if command == "run" else ["--move", "t", "0"]
    assert main([command, good_project, "--scheduler", "bogus", *extra]) == EXIT_USAGE
    assert "unknown scheduler 'bogus'" in capsys.readouterr().err


def test_a_scheduler_of_the_wrong_type_gets_one_answer_from_every_op(good_project):
    with open(good_project, encoding="utf-8") as fh:
        doc = json.load(fh)
    messages = set()
    for op in ("lint", "schedule", "speedup", "simulate", "codegen"):
        with pytest.raises(OpError) as refusal:
            OPS[op]({"project": doc, "scheduler": 5})
        messages.add(str(refusal.value))
    assert messages == {"scheduler must be a scheduler name string, got 5"}


def test_conform_defaults_are_the_fuzzers_own_in_both_doors(capsys):
    import inspect

    from repro.conformance import run

    default = inspect.signature(run).parameters["runs"].default
    assert OPS["conform"]({"budget": 0})["runs"] == default
    assert main(["conform", "--budget", "0", "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["runs"] == default


@pytest.mark.parametrize(
    "input_file, expected",
    [("fault scenario", ["simulate", "{good}", "--scenario", "{not_json}"]),
     ("fault scenario",
      ["projects", "put", "t/n", "{good}", "--scenario", "{not_json}"]),
     ("Banger project", ["projects", "put", "t/n", "{not_json}"]),
     ("SARIF baseline", ["lint", "{good}", "--baseline", "{not_json}"])],
    ids=["simulate --scenario", "put --scenario", "put project", "lint --baseline"],
)
def test_invalid_json_blames_the_file_that_holds_it(
    input_file, expected, good_project, not_json, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("BANGER_STORE_DIR", str(tmp_path / "store"))
    argv = _fill(expected, good_project, None, not_json, None)
    assert main(argv) == EXIT_USAGE
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: cannot load {input_file}")
    assert "JSON" in line and "Banger project" not in line.replace(input_file, "")


# --------------------------------------------------------------------- #
# ...and the same answer on the success side, where the CLI prints JSON
# --------------------------------------------------------------------- #
def test_sweep_json_holds_the_daemons_schedulers(good_project, tmp_path, capsys):
    out = tmp_path / "sweep.json"
    argv = ["sweep", good_project, "--scheduler", "mh,hlfet", "--procs", "1,2",
            "--json", str(out)]
    assert main(argv) == EXIT_OK
    with open(good_project, encoding="utf-8") as fh:
        reply = OPS["sweep"]({"project": json.load(fh), "proc_counts": [1, 2],
                              "schedulers": ["mh", "hlfet"]})
    written = json.loads(out.read_text(encoding="utf-8"))
    assert written["schedulers"] == reply["schedulers"]
    assert written["proc_counts"] == [1, 2]


def test_lint_json_is_the_daemons_document(good_project, capsys):
    argv = ["lint", good_project, "--format", "json", "--concurrency",
            "--suppress", "XL303,MF401"]
    assert main(argv) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    with open(good_project, encoding="utf-8") as fh:
        reply = OPS["lint"]({"project": json.load(fh), "concurrency": True,
                             "suppress": ["XL303", "MF401"]})
    assert reply.pop("type") == "banger-lint"
    # ``ok`` is the one field the doors define apart: the report's own (no
    # errors) in the file, the ``fail_on`` verdict in the reply.
    assert reply.pop("ok") is True and printed.pop("ok") is True
    assert printed == reply
