"""Totality and zero-false-positive guarantees for the analyzers.

Two properties back the whole PR:

* **never raises, always terminates** — the abstract interpreter is total
  on arbitrary text and on every program the conformance fuzzer can
  generate (widening bounds the fixpoint iteration);
* **no false convictions** — fuzzed programs and plans all genuinely run
  (the conformance suite executes them), so the analyzer must report zero
  error-severity PITS1xx findings on fuzzed sources and zero CG5xx
  errors on plans lowered from real schedules.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.absint import interpret
from repro.analysis.concurrency import analyze_plan
from repro.calc.analyze import analyze
from repro.codegen.ir import lower_steps
from repro.conformance.cases import GRAPH, PITS
from repro.conformance.generators import CaseGenerator
from repro.severity import Severity

FUZZ_RUNS = 200


@given(st.text(max_size=400))
@settings(max_examples=150, deadline=None)
def test_interpret_is_total_on_arbitrary_text(text):
    interpret(text)  # must not raise, whatever the input


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_interpret_is_total_on_fuzzed_programs(seed):
    case = CaseGenerator(seed).next_pits_case()
    analysis = interpret(case.source)
    # a generated program parses, so the analysis is substantive:
    assert len(analysis.effects) > 0


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_analyze_is_total_on_fuzzed_programs(seed):
    case = CaseGenerator(seed).next_pits_case()
    analyze(case.source)


def test_fuzz_sweep_has_zero_false_convictions():
    """200 fuzzed cases: no error-severity PITS1xx, no CG5xx errors."""
    gen = CaseGenerator(20260808)
    pits_seen = graph_seen = 0
    for _ in range(FUZZ_RUNS):
        case = gen.next_case()
        if case.kind == PITS:
            pits_seen += 1
            errors = [
                d for d in analyze(case.source)
                if d.rule.startswith("PITS1") and d.severity is Severity.ERROR
            ]
            assert not errors, (case.source, errors)
        elif case.kind == GRAPH:
            graph_seen += 1
            from repro.sched import get_scheduler

            schedule = get_scheduler(case.scheduler).schedule(
                case.taskgraph(), case.machine()
            )
            diags = analyze_plan(lower_steps(schedule)[0])
            errors = [d for d in diags if d.severity is Severity.ERROR]
            assert not errors, (case.case_id, [d.message for d in errors])
    # the 3:1 mix must actually exercise both analyzers
    assert pits_seen >= 20 and graph_seen >= 100
