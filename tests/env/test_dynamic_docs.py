"""docs/dynamic.md stays in sync with the dynamic layer it describes."""

import pathlib
import re

from repro.machine.scenario import EVENT_KINDS, PROFILES
from repro.server.ops import execute

ROOT = pathlib.Path(__file__).parent.parent.parent
DOCS = ROOT / "docs" / "dynamic.md"
TEXT = DOCS.read_text(encoding="utf-8")


def test_every_event_kind_and_profile_is_documented():
    for kind in EVENT_KINDS:
        assert f"`{kind}`" in TEXT, f"event kind {kind} missing from docs/dynamic.md"
    for profile in PROFILES:
        assert f"`{profile}`" in TEXT, f"profile {profile} missing from docs/dynamic.md"


def test_documented_api_names_exist():
    import repro.machine.scenario as scenario
    import repro.sched.reactive as reactive
    import repro.sim.dynamic as dynamic

    for name, module in (
        ("FaultScenario", scenario),
        ("seeded_scenario", scenario),
        ("simulate_dynamic", dynamic),
        ("DynamicTrace", dynamic),
        ("expected_stranded", dynamic),
        ("reactive_execute", reactive),
        ("ReactiveResult", reactive),
    ):
        assert name in TEXT, f"{name} missing from docs/dynamic.md"
        assert hasattr(module, name)


def test_documented_counters_are_the_emitted_ones():
    # the doc names the four ledger counters the two modules declare, and
    # execute() really reports each to the daemon's /metrics
    import repro.sched.reactive
    import repro.sim.dynamic
    from repro.lru import LEDGER

    work = execute("sleep", {"seconds": 0})["counters"]
    names = ("reactive_remaps", "reactive_rounds", "dynamic_sims", "stranded_tasks")
    for name in names:
        assert f"`{name}`" in TEXT, f"counter {name} missing from docs/dynamic.md"
        assert name in work and name in LEDGER.snapshot()
    declared = set()
    for module in (repro.sched.reactive, repro.sim.dynamic):
        source = pathlib.Path(module.__file__).read_text(encoding="utf-8")
        call = re.search(r"LEDGER\.declare\(([^)]*)\)", source).group(1)
        declared |= set(re.findall(r"(\w+)=", call))
    assert declared == set(names)


def test_cli_flags_in_doc_exist():
    import subprocess
    import sys

    help_text = subprocess.run(
        [sys.executable, "-m", "repro.cli", "simulate", "--help"],
        capture_output=True, text=True,
        cwd=ROOT, env={"PYTHONPATH": "src", "PATH": ""},
    ).stdout
    for flag in ("--scenario", "--reactive", "--threshold"):
        assert flag in TEXT, f"{flag} missing from docs/dynamic.md"
        assert flag in help_text, f"{flag} missing from `banger simulate --help`"


def test_referenced_files_exist():
    for rel in re.findall(
        r"`((?:src|benchmarks|tests|docs)/[A-Za-z0-9_./]+\.(?:py|md|json))`", TEXT
    ):
        assert (ROOT / rel).exists(), f"docs/dynamic.md references missing {rel}"
    for rel in re.findall(r"\]\(([a-z_]+\.md)\)", TEXT):
        assert (ROOT / "docs" / rel).exists()
