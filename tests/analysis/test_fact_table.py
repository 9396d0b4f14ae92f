"""Each PITS program is parsed, analyzed and abstract-interpreted once per text.

Work counts, not wall time: the three derivations are wrapped and counted,
and every answer is held equal with the shared table warm, cold, and at
bound 1 (where every lookup evicts), error cases included.
"""

import importlib
import sys
import threading
import traceback
from contextlib import contextmanager

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import apps
from repro.analysis.absint import ProgramAnalysis, interpret
from repro.calc import ast
from repro.calc.analyze import analyze, errors
from repro.calc.cost import estimate_work
from repro.calc.interp import run_program
from repro.calc.parser import parse, parse_expression
from repro.codegen.backends import get_backend
from repro.codegen.backends.c import _c_function
from repro.codegen.pits2py import gen_task_function
from repro.conformance.generators import CaseGenerator
from repro.env.project import BangerProject
from repro.errors import CalcSyntaxError
from repro.facts import shared_cache
from repro.graph.dataflow import DataflowGraph
from repro.lint import lint_project

# ``repro.calc.analyze`` the attribute is the function; these are the modules
PARSER = importlib.import_module("repro.calc.parser")
ANALYZE = importlib.import_module("repro.calc.analyze")
ABSINT = importlib.import_module("repro.analysis.absint")

BAD = "output y\ny := (1 +"
DEEP = "output y\ny := " + "(" * 2000 + "1" + ")" * 2000


@pytest.fixture
def work(monkeypatch):
    """Counts of tokenizer runs, ``analyze`` bodies and ``_Interp.run`` calls
    from a cold table."""
    counts = {"tokenize": 0, "analyze": 0, "interpret": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(PARSER, "tokenize", counted("tokenize", PARSER.tokenize))
    monkeypatch.setattr(ANALYZE, "_analyze", counted("analyze", ANALYZE._analyze))
    monkeypatch.setattr(
        ABSINT._Interp, "run", counted("interpret", ABSINT._Interp.run)
    )
    shared_cache().clear()
    return counts


@contextmanager
def bound(entries):
    """The shared table at ``entries`` entries, emptied on the way in."""
    table = shared_cache()
    before = table.max_entries
    table.clear()
    table.max_entries = entries
    try:
        yield table
    finally:
        table.max_entries = before
        table.clear()


def program_texts(project):
    return {t.program for t in project.flat().tasks if isinstance(t.program, str)}


# ---------------------------------------------------------------------- #
# work counts
# ---------------------------------------------------------------------- #
def test_whole_pipeline_derives_each_program_once(work):
    a = np.random.default_rng(1).uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
    project = BangerProject("lun4").set_design(apps.lun_design(4, a, np.ones(4)))
    project.set_machine("hypercube", 4)
    texts = program_texts(project)
    assert len(texts) == 9

    assert not lint_project(project, concurrency=True).error_count
    program = project.lower("mh")
    for target in ("threads", "mpi", "c"):
        assert get_backend(target).emit(program)
    for target in ("inproc", "threads"):
        assert get_backend(target).run(program)
    assert np.allclose(project.run().outputs["x"], np.linalg.solve(a, np.ones(4)))

    assert work == {"tokenize": len(texts), "analyze": len(texts),
                    "interpret": len(texts)}


def test_relinting_a_design_larger_than_the_old_bound_derives_nothing(work):
    """600 programs × three facts fit the table, so an in-order re-lint is
    answered entirely from it (at 512 entries every one was evicted before
    it was asked for again: 0 hits of 600)."""
    design = DataflowGraph("wide")
    design.add_storage("a", data="a", initial=1.0)
    for i in range(600):
        design.add_task(f"t{i}", program=f"input a\noutput r{i}\nr{i} := a + {i}")
        design.add_storage(f"r{i}", data=f"r{i}")
        design.connect("a", f"t{i}")
        design.connect(f"t{i}", f"r{i}")
    project = BangerProject("wide").set_design(design)

    first = lint_project(project)
    assert work == {"tokenize": 600, "analyze": 600, "interpret": 600}
    again = lint_project(project)
    assert work == {"tokenize": 600, "analyze": 600, "interpret": 600}
    assert again.diagnostics == first.diagnostics


def test_clearing_the_shared_cache_forgets_parsed_programs(work):
    text = "input a\noutput y\ny := a * 2"
    parse(text), analyze(text), interpret(text)
    parse(text), analyze(text), interpret(text)
    assert work == {"tokenize": 1, "analyze": 1, "interpret": 1}
    assert shared_cache().stats()["entries"] == 3
    shared_cache().clear()
    assert shared_cache().stats() == {"entries": 0, "hits": 0, "misses": 0}
    parse(text)
    assert work["tokenize"] == 2 and shared_cache().stats()["misses"] == 1


def test_a_parsed_program_is_computed_directly(work):
    program = parse("input a\noutput y\ny := a * 2")
    for _ in range(2):
        analyze(program), interpret(program)
    # per call: one analyze body and the interpretation inside it, plus
    # the direct interpret
    assert work == {"tokenize": 1, "analyze": 2, "interpret": 4}
    assert shared_cache().stats()["entries"] == 1


def test_parse_expression_is_not_remembered(work):
    for _ in range(3):
        assert isinstance(parse_expression("1 + 2 * x"), ast.Binary)
    assert work["tokenize"] == 3 and len(shared_cache()) == 0


# ---------------------------------------------------------------------- #
# syntax errors are remembered as data
# ---------------------------------------------------------------------- #
def test_a_syntax_error_is_tokenized_once_and_raised_fresh(work):
    raised = []
    for _ in range(50):
        with pytest.raises(CalcSyntaxError) as info:
            parse(BAD)
        raised.append(info.value)
    assert work["tokenize"] == 1
    first, last = raised[0], raised[-1]
    assert len({id(exc) for exc in raised}) == 50
    assert (str(last), last.line, last.column) == (str(first), first.line, first.column)
    assert first.line == 2 and "line 2, column" in str(first)
    # a stored exception instance would gain frames on every re-raise
    depth = [len(traceback.extract_tb(exc.__traceback__)) for exc in raised]
    assert depth[-1] == depth[1]

    assert [d.rule for d in analyze(BAD)] == ["PITS001"]
    assert analyze(BAD)[0].message == str(first) and analyze(BAD)[0].line == 2
    assert interpret(BAD) == ProgramAnalysis((), (), ())
    assert work == {"tokenize": 1, "analyze": 0, "interpret": 0}


def test_deep_nesting_is_still_a_syntax_error_not_a_recursion_error():
    shared_cache().clear()
    for _ in range(2):
        with pytest.raises(CalcSyntaxError) as info:
            parse(DEEP)
        assert str(info.value) == "expression is nested too deeply"
        assert (info.value.line, info.value.column) == (0, 0)
        assert info.value.__cause__ is None and info.value.__context__ is None
    assert [d.rule for d in analyze(DEEP)] == ["PITS001"]


def test_analyze_hands_each_caller_its_own_list():
    text = "input a, b\noutput y\ny := a"
    mine = analyze(text)
    assert [d.rule for d in mine] == ["PITS007"]
    mine.clear()
    assert [d.rule for d in analyze(text)] == ["PITS007"]
    assert errors(text) == []


# ---------------------------------------------------------------------- #
# warm == cold == bound 1
# ---------------------------------------------------------------------- #
def outcome(fn, *args, **kwargs):
    try:
        value = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the failure is the observation
        return ("raised", type(exc), str(exc),
                getattr(exc, "line", None), getattr(exc, "column", None))
    return ("returned", value)


def observe(text, inputs):
    run = outcome(run_program, text, **inputs)
    return (
        outcome(parse, text),
        outcome(analyze, text),
        outcome(errors, text),
        outcome(interpret, text),
        outcome(gen_task_function, "t", text),
        outcome(_c_function, "t", text),
        outcome(estimate_work, text),
        # a RunResult holds arrays, which do not compare with ==
        run if run[0] == "raised" else ("returned", repr(run[1])),
    )


def assert_table_is_invisible(text, inputs=None):
    inputs = inputs or {}
    with bound(shared_cache().max_entries):
        cold = observe(text, inputs)
        warm = observe(text, inputs)
    with bound(1) as table:
        evicting = observe(text, inputs)
        assert len(table) <= 1
    assert cold == warm == evicting


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_fuzzed_programs_read_the_same_warm_cold_and_evicting(seed):
    case = CaseGenerator(seed).next_pits_case()
    assert_table_is_invisible(case.source, case.inputs())


_WORDS = ("input", "output", "local", "x", "y", ":=", "1", "2.5", "+", "/", "(",
          ")", "[", "]", ",", "if", "then", "else", "end", "while", "do", "for",
          "to", "forall", "repeat", "until", "display", "sqrt", "0", "\n", ";",
          "# lint: disable=PITS101", "'s", "@")


@given(st.one_of(
    st.text(max_size=200),
    st.lists(st.sampled_from(_WORDS), max_size=40).map(" ".join),
))
@settings(max_examples=120, deadline=None)
def test_arbitrary_text_reads_the_same_warm_cold_and_evicting(text):
    assert_table_is_invisible(text)


def test_benchmark_programs_read_the_same_warm_cold_and_evicting():
    """The 13 application designs ``pipeline_batch`` runs at full size."""
    designs = [apps.lu3_design(), apps.lun_design(4), apps.heat_design(),
               apps.matmul_design(4), apps.montecarlo_design(),
               apps.pipeline_design(), *map(apps.lun_design, range(6, 13))]
    texts = set()
    for design in designs:
        texts |= program_texts(BangerProject(design.name).set_design(design))
    assert len(texts) == 323
    for text in sorted(texts):
        assert_table_is_invisible(text)
    assert_table_is_invisible(BAD)
    assert_table_is_invisible(DEEP)


# ---------------------------------------------------------------------- #
# the threads backend's workers share the table
# ---------------------------------------------------------------------- #
def test_threads_hammering_a_small_table_agree_with_the_serial_answers():
    texts = [f"input a\noutput y\nlocal d\nd := {i}\ny := a / d" for i in range(10)]
    texts += [BAD, "output y\ny := undeclared"]
    serial = [(outcome(parse, t), analyze(t)) for t in texts]
    failures = []

    def hammer(offset):
        try:
            for k in range(120):
                i = (k + offset) % len(texts)
                got = (outcome(parse, texts[i]), analyze(texts[i]))
                if got != serial[i]:
                    failures.append((i, got))
        except Exception as exc:  # noqa: BLE001
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with bound(8) as table:
            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(table) <= 8
    finally:
        sys.setswitchinterval(interval)
    assert not failures
