"""The schedule cache has no off switch, anywhere.

A schedule is keyed by the content of its graph, machine and scheduler, so
the cache cannot serve a stale answer and nothing needs to go around it:
cold timing is a fresh ``ScheduleService()`` or ``clear()``.  This pins the
removal: no parameter, dataclass field, keyword hand-off, argparse flag or
payload read by that name is left under ``src/repro`` (a text search finds
all five), and no mention in the docs or examples sends a reader looking
for one.
"""

import dataclasses
import pathlib
import re

import pytest

from repro.sched import ScheduleRequest

ROOT = pathlib.Path(__file__).parent.parent.parent
SWITCH = re.compile(r"use_cache|no[-_]cache")


@pytest.mark.parametrize("tree", ["src/repro", "docs", "examples", "README.md"])
def test_nothing_names_a_cache_bypass(tree):
    base = ROOT / tree
    paths = [base] if base.is_file() else sorted(base.rglob("*"))
    found = [
        f"{path.relative_to(ROOT)}:{n}"
        for path in paths
        if path.suffix in (".py", ".md", ".json")
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if SWITCH.search(line)
    ]
    assert not found, found


def test_a_request_has_four_fields():
    fields = [f.name for f in dataclasses.fields(ScheduleRequest)]
    assert fields == ["scheduler", "proc_counts", "family", "params"]
