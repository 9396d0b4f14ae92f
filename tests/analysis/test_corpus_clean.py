"""The committed regression corpus stays clean under the new analyzers.

Every corpus entry is a case that *passed* (after its original bug was
fixed), so the static analyzers must not convict any of them: no
error-severity PITS1xx on PITS sources, no CG5xx errors on plans lowered
from graph cases.
"""

import pathlib

import pytest

from repro.analysis.concurrency import analyze_plan
from repro.calc.analyze import analyze
from repro.codegen.ir import lower_steps
from repro.conformance import load_entry
from repro.conformance.cases import GRAPH, PITS
from repro.sched import get_scheduler
from repro.severity import Severity

CORPUS = pathlib.Path(__file__).parent.parent / "conformance" / "corpus"
ENTRIES = sorted(CORPUS.glob("*.json"))


def test_corpus_is_nonempty():
    assert len(ENTRIES) >= 6


@pytest.mark.parametrize("path", ENTRIES, ids=[p.stem for p in ENTRIES])
def test_corpus_entry_is_not_convicted(path):
    case = load_entry(path).case
    if case.kind == PITS:
        errors = [
            d for d in analyze(case.source)
            if d.rule.startswith("PITS1") and d.severity is Severity.ERROR
        ]
        assert not errors, errors
    elif case.kind == GRAPH:
        schedule = get_scheduler(case.scheduler).schedule(
            case.taskgraph(), case.machine()
        )
        diags = analyze_plan(lower_steps(schedule)[0])
        errors = [d for d in diags if d.severity is Severity.ERROR]
        assert not errors, [d.message for d in errors]
