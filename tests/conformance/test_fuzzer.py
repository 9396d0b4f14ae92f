"""Fuzzer determinism, generator validity, shrinker behaviour, CLI surface."""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.calc.analyze import errors as static_errors
from repro.conformance import Case, CaseGenerator, pits_case, run, shrink
from repro.conformance.generators import FUZZ_SCHEDULERS, MACHINE_FAMILIES
from repro.machine import MachineParams, build_topology
from repro.sched import SCHEDULERS


def test_same_seed_same_cases():
    a = [CaseGenerator(7).next_case() for _ in range(40)]
    b = [CaseGenerator(7).next_case() for _ in range(40)]
    assert [c.case_id for c in a] == [c.case_id for c in b]


def test_different_seeds_differ():
    a = [CaseGenerator(1).next_case().case_id for _ in range(10)]
    b = [CaseGenerator(2).next_case().case_id for _ in range(10)]
    assert a != b


def test_generator_covers_both_kinds_and_valid_graphs():
    gen = CaseGenerator(11)
    kinds = set()
    for _ in range(60):
        case = gen.next_case()
        kinds.add(case.kind)
        if case.kind == "graph":
            tg = case.taskgraph()
            assert len(tg) >= 1 and tg.is_acyclic()
            assert case.machine().n_procs >= 2
            assert case.scheduler in SCHEDULERS
    assert kinds == {"graph", "pits"}


def test_fuzz_schedulers_are_registered_and_deterministic_subset():
    assert set(FUZZ_SCHEDULERS) <= set(SCHEDULERS)
    for stochastic in ("random", "anneal", "exhaustive"):
        assert stochastic not in FUZZ_SCHEDULERS


def test_machine_families_are_buildable():
    for family, sizes in MACHINE_FAMILIES:
        for n in sizes:
            assert build_topology(family, n).n_procs == n


def test_run_is_deterministic_and_clean():
    first = run(seed=0, runs=40)
    second = run(seed=0, runs=40)
    assert first.ok, [f.detail for f in first.failures]
    assert first.digest() == second.digest()
    assert first.outcomes == second.outcomes
    assert first.stats.cases == 40
    assert first.stats.oracle_checks > 40


def test_run_oracle_subset_changes_digest():
    full = run(seed=0, runs=15)
    subset = run(seed=0, runs=15, oracles=["makespan"])
    assert subset.oracle_names == ["makespan"]
    assert subset.digest() != full.digest()
    assert all(o[1] == "makespan" for o in subset.outcomes)


def test_time_budget_truncates_and_reports():
    report = run(seed=0, runs=10_000, time_budget=0.2)
    assert report.stats.truncated
    assert report.stats.cases < 10_000


def test_case_roundtrip_and_ids():
    case = CaseGenerator(5).next_case()
    again = Case.from_dict(json.loads(json.dumps(case.to_dict())))
    assert again.case_id == case.case_id
    assert again.canonical() == case.canonical()


def test_pits_shrink_deletes_statements_and_simplifies_inputs():
    """A PITS witness loses every body statement the failure does not need
    — never a declaration, never into a program that no longer analyzes
    clean — and its scalar inputs move toward 0 and 1."""
    source = (
        "input a, b\noutput y\nlocal t, u\n"
        "t := a + 1\nu := t * 2\ny := a * b\ndisplay(u)\n"
    )
    proposed = []

    def fails(case):
        proposed.append(case.source)
        return "y := a * b" in case.source and case.inputs()["b"] != 0

    small, spent = shrink(pits_case(source, {"a": 2.5, "b": 7.25}), fails)
    assert small.source == "input a, b\noutput y\nlocal t, u\ny := a * b\n"
    assert small.inputs() == {"a": 0.0, "b": 1.0}
    assert spent == len(proposed)
    for text in proposed:
        assert text.startswith("input a, b\noutput y\nlocal t, u\n")
        assert not static_errors(text), text


def test_stats_render_and_dict():
    report = run(seed=3, runs=10)
    doc = report.as_dict()
    assert doc["type"] == "banger-conform"
    assert doc["digest"] == report.digest()
    assert "cases" in report.stats.render()
    assert set(doc["oracles"]) == set(report.oracle_names)


CORPUS = pathlib.Path(__file__).parent / "corpus"


def run_cli(*args):
    # like tests/integration/test_cli_subprocess.py: inherit the parent env
    # (tier-1 runs with PYTHONPATH=src) rather than rebuilding it
    return subprocess.run(
        [sys.executable, "-m", "repro", "conform", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_conform(fmt):
    out = run_cli("--seed", "1", "--runs", "25", "--format", fmt)
    assert out.returncode == 0, out.stderr
    if fmt == "json":
        doc = json.loads(out.stdout)
        assert doc["ok"] is True and doc["runs"] == 25
    else:
        assert "digest" in out.stdout and out.stdout.strip().endswith("ok")


def test_cli_conform_twice_same_digest():
    def digest() -> str:
        out = run_cli("--seed", "2", "--runs", "25", "--format", "json")
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout)["digest"]

    assert digest() == digest()


def test_cli_conform_replay_corpus():
    out = run_cli("--replay", str(CORPUS), "--format", "json")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["ok"] is True and doc["cases"] >= 1


def test_cli_conform_replay_missing_dir_exit_2():
    out = run_cli("--replay", "/no/such/corpus")
    assert out.returncode == 2
    assert "no such corpus directory" in out.stderr
