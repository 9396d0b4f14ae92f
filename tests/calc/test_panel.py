"""Tests for the calculator panel state machine (Figure 4 behaviours)."""

import pytest

from repro.calc import CalculatorPanel, Severity, all_buttons
from repro.errors import CalcError


@pytest.fixture
def panel():
    return (
        CalculatorPanel("SquareRoot")
        .declare_input("a")
        .declare_output("x")
        .declare_local("g", "eps")
    )


class TestDeclarations:
    def test_windows_populated(self, panel):
        assert panel.inputs == ["a"]
        assert panel.outputs == ["x"]
        assert panel.locals == ["g", "eps"]
        assert panel.variables == ["a", "x", "g", "eps"]

    def test_duplicate_rejected(self, panel):
        with pytest.raises(CalcError, match="already declared"):
            panel.declare_local("a")

    def test_invalid_name_rejected(self, panel):
        with pytest.raises(CalcError, match="not a valid"):
            panel.declare_local("2fast")

    def test_repr_counts_the_windows(self, panel):
        assert repr(panel) == "CalculatorPanel('SquareRoot', io=1+1, locals=2, lines=0)"


class TestButtonEntry:
    def test_digits_accumulate(self, panel):
        panel.press("1", "2", ".", "5")
        assert panel.current_line == "12.5"

    def test_expression_spacing(self, panel):
        panel.press("g", ":=", "a", "/", "2")
        assert panel.current_line == "g := a / 2"

    def test_function_button_opens_paren(self, panel):
        panel.press("x", ":=", "sqrt", "a", ")")
        assert panel.current_line == "x := sqrt(a)"

    def test_unknown_button(self, panel):
        with pytest.raises(CalcError, match="no button"):
            panel.press("undeclared_var")

    def test_backspace_digit_then_token(self, panel):
        panel.press("a", "1", "2")
        panel.press("BACKSPACE")  # kills the 2
        assert panel.current_line == "a 1"
        panel.press("BACKSPACE")
        panel.press("BACKSPACE")
        assert panel.current_line == ""

    def test_clear(self, panel):
        panel.press("g", ":=", "1", "CLEAR")
        assert panel.current_line == ""

    def test_enter_commits_line(self, panel):
        panel.press("g", ":=", "a", "ENTER")
        assert panel.lines == ["g := a"]
        assert panel.current_line == ""

    def test_enter_on_empty_line_is_noop(self, panel):
        panel.press("ENTER")
        assert panel.lines == []

    def test_clear_all(self, panel):
        panel.press("g", ":=", "1", "ENTER", "CLEAR-ALL")
        assert panel.lines == []

    def test_keyword_buttons(self, panel):
        panel.press("while", "g", ">", "0", "do")
        assert panel.current_line == "while g > 0 do"

    def test_constant_buttons(self, panel):
        panel.press("g", ":=", "PI")
        assert panel.current_line == "g := PI"

    def test_index_entry(self, panel):
        panel.declare_local("v")
        panel.press("v", "[", "1", "]", ":=", "3")
        assert panel.current_line == "v[1] := 3"


class TestSourceAssembly:
    def test_header_lines(self, panel):
        src = panel.source()
        assert "task SquareRoot" in src
        assert "input a" in src
        assert "output x" in src
        assert "local g, eps" in src

    def test_type_line_multiline(self, panel):
        panel.type_line("g := a\nx := g")
        assert panel.lines == ["g := a", "x := g"]


class TestInstantFeedback:
    def test_diagnostics_on_incomplete_program(self, panel):
        # no line assigns x yet
        diags = panel.diagnostics()
        assert any("never assigned" in d.message for d in diags)

    def test_diagnostics_track_edits(self, panel):
        panel.type_line("x := sqrt(a)")
        errors = [d for d in panel.diagnostics() if d.severity is Severity.ERROR]
        assert errors == []

    def test_newton_raphson_entered_by_buttons(self, panel):
        """Recreate Figure 4's SquareRoot with button presses only."""
        panel.press("eps", ":=", "1e-12", "ENTER")
        panel.press("g", ":=", "a", "/", "2", "ENTER")
        panel.press("while", "abs", "g", "*", "g", "-", "a", ")", ">", "eps", "do", "ENTER")
        panel.press("g", ":=", "(", "g", "+", "a", "/", "g", ")", "/", "2", "ENTER")
        panel.press("end", "ENTER")
        panel.press("x", ":=", "g", "ENTER")
        result = panel.trial_run(a=2.0)
        assert result.outputs["x"] == pytest.approx(2**0.5)
        assert panel.register == pytest.approx(2**0.5)

    def test_calculate_button(self, panel):
        panel.store(a=16.0)
        panel.press("sqrt", "a", ")")
        assert panel.calculate() == 4.0
        assert panel.register == 4.0
        # line survives for further editing
        assert panel.current_line == "sqrt(a)"

    def test_calculate_empty_rejected(self, panel):
        with pytest.raises(CalcError, match="nothing"):
            panel.calculate()

    def test_trial_run_reports_display(self, panel):
        panel.type_line('display("starting")\nx := a')
        result = panel.trial_run(a=1.0)
        assert result.displayed == ["starting"]


class TestButtonInventory:
    def test_groups_present(self):
        groups = all_buttons()
        assert set(groups) == {
            "digits", "operators", "keywords", "functions", "constants", "editing",
        }
        assert "sqrt" in groups["functions"]
        assert "PI" in groups["constants"]
        assert ":=" in groups["operators"]

    def test_every_function_is_pressable(self):
        panel = CalculatorPanel().declare_output("x")
        for fn in all_buttons()["functions"]:
            panel.press(fn)
            panel.press("CLEAR")
