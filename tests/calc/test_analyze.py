"""Tests for static analysis (instant feedback diagnostics)."""

import pytest

from repro.calc import Severity, analyze, errors, is_clean, run_program
from repro.errors import CalcSyntaxError


def messages(source, severity=None):
    return [
        d.message
        for d in analyze(source)
        if severity is None or d.severity is severity
    ]


class TestCleanPrograms:
    def test_trivial(self):
        assert is_clean("output x\nx := 1")

    def test_full_program(self):
        src = """
task T
input a
output y
local t
t := a * 2
y := t + 1
"""
        assert analyze(src) == []

    def test_loop_variable_implicitly_declared(self):
        src = "input n\noutput s\ns := 0\nfor i := 1 to n do\ns := s + i\nend"
        assert errors(src) == []


class TestErrors:
    def test_syntax_error_reported_as_diagnostic(self):
        diags = analyze("x := ")
        assert len(diags) == 1
        assert diags[0].severity is Severity.ERROR

    def test_undeclared_use(self):
        msgs = messages("output x\nx := y + 1", Severity.ERROR)
        assert any("'y' is not declared" in m for m in msgs)

    def test_undeclared_assignment(self):
        msgs = messages("output x\nx := 1\nz := 2", Severity.ERROR)
        assert any("'z' is not declared" in m for m in msgs)

    def test_assign_to_input(self):
        msgs = messages("input a\noutput x\na := 1\nx := a", Severity.ERROR)
        assert any("read-only" in m for m in msgs)

    def test_loop_var_is_input(self):
        msgs = messages("input i\noutput x\nx := 0\nfor i := 1 to 3 do\nx := x + 1\nend",
                        Severity.ERROR)
        assert any("loop variable" in m for m in msgs)

    def test_output_never_assigned(self):
        msgs = messages("input a\noutput x, y\nx := a", Severity.ERROR)
        assert any("'y' is never assigned" in m for m in msgs)

    def test_unknown_function(self):
        msgs = messages("output x\nx := wizard(1)", Severity.ERROR)
        assert any("unknown function" in m for m in msgs)

    def test_wrong_arity(self):
        msgs = messages("output x\nx := sqrt(1, 2)", Severity.ERROR)
        assert any("argument" in m for m in msgs)

    def test_undeclared_in_condition(self):
        msgs = messages("output x\nx := 0\nif q > 0 then\nx := 1\nend", Severity.ERROR)
        assert any("'q'" in m for m in msgs)

    def test_undeclared_index_base(self):
        msgs = messages("output x\nx := V[1]", Severity.ERROR)
        assert any("'V'" in m for m in msgs)

    def test_multiple_errors_all_reported(self):
        src = "output x\nx := y + z\nw := 1"
        msgs = messages(src, Severity.ERROR)
        assert len(msgs) >= 3


class TestWarnings:
    def test_unused_input(self):
        msgs = messages("input a, b\noutput x\nx := a", Severity.WARNING)
        assert any("'b' is never used" in m for m in msgs)

    def test_unused_local(self):
        msgs = messages("output x\nlocal t\nx := 1", Severity.WARNING)
        assert any("'t' is never used" in m for m in msgs)

    def test_input_shadowing_constant(self):
        msgs = messages("input PI\noutput x\nx := PI", Severity.WARNING)
        assert any("shadows" in m for m in msgs)

    def test_warnings_do_not_fail_is_clean(self):
        assert is_clean("input a, b\noutput x\nx := a")


class TestDiagnosticRendering:
    def test_str_includes_line(self):
        (d,) = [d for d in analyze("output x\nx := zz") if d.severity is Severity.ERROR]
        assert "line 2" in str(d)
        assert str(d).startswith("error")

    def test_display_not_flagged(self):
        assert errors('output x\nx := 1\ndisplay("done", x)') == []


class TestNonAsciiDigits:
    """``y := ²`` used to raise an untyped ``ValueError`` out of ``analyze``
    and every caller; now it is one PITS001 syntax error at the character."""

    @pytest.mark.parametrize("source, column", [
        ("output y\ny := ²", 6),
        ("output y\nlocal x²\ny := 1", 8),
        ("output y\ny := ١٢", 6),
    ])
    def test_is_one_syntax_error(self, source, column):
        (d,) = analyze(source)
        assert (d.rule, d.severity, d.line) == ("PITS001", Severity.ERROR, 2)
        assert d.message.startswith(f"line 2, column {column}: unexpected character")

    def test_a_trial_run_refuses_it_typed(self):
        with pytest.raises(CalcSyntaxError, match="unexpected character '²'"):
            run_program("output y\ny := ²")
