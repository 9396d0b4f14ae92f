"""Tests for the PITS interpreter: semantics, arrays, errors, metering."""

import math

import numpy as np
import pytest

from repro.calc import ast, eval_expression, run_program
from repro.calc.interp import Interpreter
from repro.errors import (
    CalcLimitError,
    CalcNameError,
    CalcRuntimeError,
    CalcTypeError,
)


def run1(body, **inputs):
    """Run a one-output program and return that output."""
    keys = ", ".join(inputs) if inputs else ""
    header = f"input {keys}\n" if keys else ""
    r = run_program(header + "output out_\n" + body, **inputs)
    return r.outputs["out_"]


class TestScalars:
    def test_arithmetic(self):
        assert run1("out_ := 2 + 3 * 4") == 14.0
        assert run1("out_ := (2 + 3) * 4") == 20.0
        assert run1("out_ := 7 % 3") == 1.0
        assert run1("out_ := 2 ^ 10") == 1024.0
        assert run1("out_ := -2 ^ 2") == -4.0

    def test_division(self):
        assert run1("out_ := 7 / 2") == 3.5

    def test_division_by_zero(self):
        with pytest.raises(CalcRuntimeError, match="division by zero"):
            run1("out_ := 1 / 0")

    def test_modulo_by_zero(self):
        with pytest.raises(CalcRuntimeError, match="modulo by zero"):
            run1("out_ := 1 % 0")

    def test_complex_power_rejected(self):
        with pytest.raises(CalcRuntimeError, match="not a real"):
            run1("out_ := (-1) ^ 0.5")

    def test_inputs_are_floats(self):
        assert run1("out_ := a + 1", a=1) == 2.0

    def test_constants(self):
        assert run1("out_ := PI") == pytest.approx(math.pi)
        assert run1("out_ := cos(pi)") == pytest.approx(-1.0)


class TestControlFlow:
    def test_if_branches(self):
        body = (
            "if a > 0 then\nout_ := 1\nelif a < 0 then\nout_ := -1\n"
            "else\nout_ := 0\nend"
        )
        assert run1(body, a=3) == 1.0
        assert run1(body, a=-3) == -1.0
        assert run1(body, a=0) == 0.0

    def test_while(self):
        body = "out_ := 0\nwhile out_ < 10 do\nout_ := out_ + 3\nend"
        assert run1(body) == 12.0

    def test_for_inclusive(self):
        body = "out_ := 0\nfor i := 1 to 5 do\nout_ := out_ + i\nend"
        assert run1(body) == 15.0

    def test_for_step_down(self):
        body = "out_ := 0\nfor i := 10 to 2 step -2 do\nout_ := out_ + 1\nend"
        assert run1(body) == 5.0

    def test_for_zero_trips(self):
        body = "out_ := 0\nfor i := 5 to 1 do\nout_ := out_ + 1\nend"
        assert run1(body) == 0.0

    def test_for_zero_step_rejected(self):
        with pytest.raises(CalcRuntimeError, match="step"):
            run1("out_ := 0\nfor i := 1 to 5 step 0 do\nout_ := 1\nend")

    def test_repeat_runs_at_least_once(self):
        body = "out_ := 100\nrepeat\nout_ := out_ + 1\nuntil true"
        assert run1(body) == 101.0

    def test_condition_must_be_boolean(self):
        with pytest.raises(CalcTypeError, match="condition"):
            run1("if 1 then\nout_ := 1\nend\nout_ := 2")

    def test_step_limit(self):
        with pytest.raises(CalcLimitError, match="steps"):
            run_program("output x\nx := 0\nwhile true do\nx := x + 1\nend", step_limit=1000)


class TestArrays:
    def test_vector_literal_and_indexing(self):
        assert run1("local v\nv := [10, 20, 30]\nout_ := v[2]") == 20.0

    def test_matrix_literal(self):
        assert run1("local A\nA := [[1, 2], [3, 4]]\nout_ := A[2, 1]") == 3.0

    def test_zeros_and_assignment(self):
        body = "local v\nv := zeros(3)\nv[1] := 7\nout_ := v[1] + v[3]"
        assert run1(body) == 7.0

    def test_one_based_bounds(self):
        with pytest.raises(CalcRuntimeError, match="out of range 1..3"):
            run1("local v\nv := zeros(3)\nout_ := v[0]")
        with pytest.raises(CalcRuntimeError, match="out of range"):
            run1("local v\nv := zeros(3)\nout_ := v[4]")

    def test_fractional_subscript_rejected(self):
        with pytest.raises(CalcTypeError, match="not an integer"):
            run1("local v\nv := zeros(3)\nout_ := v[1.5]")

    def test_wrong_rank(self):
        with pytest.raises(CalcTypeError, match="vector"):
            run1("local v\nv := zeros(3)\nout_ := v[1, 2]")

    def test_three_subscripts_of_a_built_program_are_a_rank_error(self):
        """The parser allows two subscripts at most; a program built as a
        tree may carry more, and is refused at its line, typed."""
        three = tuple(ast.Num(value=1.0) for _ in range(3))
        program = ast.Program(inputs=("A",), outputs=("y",), body=(ast.Assign(
            target=ast.Name(ident="y"), value=ast.Index(base="A", subscripts=three, line=2),
            line=2),))
        with pytest.raises(CalcTypeError, match="line 2: 'A' is a matrix; 3 subscript"):
            Interpreter(program).run(A=[[1.0, 2.0], [3.0, 4.0]])

    def test_elementwise_arith(self):
        r = run_program("input u, v\noutput w\nw := u + v * 2", u=[1, 2], v=[10, 20])
        np.testing.assert_allclose(r.outputs["w"], [21, 42])

    def test_array_scalar_broadcast(self):
        r = run_program("input v\noutput w\nw := v / 2", v=[2, 4])
        np.testing.assert_allclose(r.outputs["w"], [1, 2])

    def test_shape_mismatch(self):
        with pytest.raises(CalcTypeError, match="shape mismatch"):
            run_program("input u, v\noutput w\nw := u + v", u=[1, 2], v=[1, 2, 3])

    def test_array_equality(self):
        assert run1("local a, b, t\na := [1, 2]\nb := [1, 2]\n"
                    "if a = b then\nout_ := 1\nelse\nout_ := 0\nend") == 1.0

    def test_array_ordering_rejected(self):
        with pytest.raises(CalcTypeError, match="ordering"):
            run1("local a\na := [1]\nif a > 2 then\nout_ := 1\nend\nout_ := 0")

    def test_value_semantics_on_assignment(self):
        body = (
            "local a, b\na := [1, 2]\nb := a\nb[1] := 99\nout_ := a[1]"
        )
        assert run1(body) == 1.0

    def test_ragged_matrix_rejected(self):
        with pytest.raises(CalcTypeError, match="ragged"):
            run1("local A\nA := [[1, 2], [3]]\nout_ := 0")

    def test_matrix_assignment(self):
        body = "local A\nA := zeros(2, 2)\nA[1, 2] := 5\nout_ := A[1, 2]"
        assert run1(body) == 5.0


class TestNamesAndIO:
    def test_missing_input(self):
        with pytest.raises(CalcNameError, match="missing input"):
            run_program("input a\noutput x\nx := a")

    def test_extra_input(self):
        with pytest.raises(CalcNameError, match="unknown input"):
            run_program("output x\nx := 1", a=1)

    def test_undeclared_variable(self):
        with pytest.raises(CalcNameError, match="not declared"):
            run_program("output x\nx := 1\ny := 2")

    def test_use_before_assignment(self):
        with pytest.raises(CalcNameError, match="before assignment"):
            run_program("output x\nlocal t\nx := t")

    def test_input_read_only(self):
        with pytest.raises(CalcRuntimeError, match="read-only"):
            run_program("input a\noutput x\na := 2\nx := a", a=1)

    def test_output_never_assigned(self):
        with pytest.raises(CalcRuntimeError, match="without assigning"):
            run_program("output x\n")

    def test_unknown_function(self):
        with pytest.raises(CalcNameError, match="unknown function"):
            run_program("output x\nx := frobnicate(2)")

    def test_wrong_arity(self):
        with pytest.raises(CalcTypeError, match="argument"):
            run_program("output x\nx := sqrt(1, 2)")

    def test_multiple_outputs(self):
        r = run_program("input a\noutput s, d\ns := a + 1\nd := a - 1", a=10)
        assert r.outputs == {"s": 11.0, "d": 9.0}


class TestDisplayAndMetering:
    def test_display_collects(self):
        r = run_program('output x\nx := 3\ndisplay("x =", x)')
        assert r.displayed == ["x = 3"]

    def test_display_array(self):
        r = run_program('input v\noutput x\nx := 1\ndisplay(v)', v=[1, 2])
        assert "1" in r.displayed[0]

    def test_ops_counted(self):
        r = run_program("output x\nx := 1 + 2 + 3")
        assert r.ops >= 2

    def test_a_builtin_called_for_effect_is_counted_and_dropped(self):
        """Each statement and each expression node is a step; the calls
        charge their cost (``sqrt`` 2, ``zeros`` 1) and leave nothing."""
        r = run_program("output y\ny := 1\nsqrt(4)\nzeros(2, 2)")
        assert (r.outputs, r.ops, r.steps, r.displayed) == ({"y": 1.0}, 3.0, 9, [])

    def test_more_work_more_ops(self):
        small = run_program("input n\noutput x\nlocal i\nx := 0\n"
                            "for i := 1 to n do\nx := x + i\nend", n=5)
        big = run_program("input n\noutput x\nlocal i\nx := 0\n"
                          "for i := 1 to n do\nx := x + i\nend", n=50)
        assert big.ops > small.ops

    def test_result_output_helper(self):
        r = run_program("output x\nx := 1")
        assert r.output("x") == 1.0
        with pytest.raises(CalcNameError):
            r.output("nope")


class TestEvalExpression:
    def test_simple(self):
        assert eval_expression("1 + 2 * 3") == 7.0

    def test_with_env(self):
        assert eval_expression("a * b", {"a": 3, "b": 4}) == 12.0

    def test_with_constants(self):
        assert eval_expression("sin(PI / 2)") == pytest.approx(1.0)

    def test_unbound_variable(self):
        with pytest.raises(CalcNameError, match="unbound"):
            eval_expression("a + 1")

    def test_array_env(self):
        assert eval_expression("v[2]", {"v": [5, 6, 7]}) == 6.0


class TestBuiltinsThroughPrograms:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("abs(-3)", 3.0),
            ("sqrt(16)", 4.0),
            ("floor(2.7)", 2.0),
            ("ceil(2.1)", 3.0),
            ("round(2.5)", 2.0),  # banker's rounding, like Python
            ("sign(-9)", -1.0),
            ("min(3, 1, 2)", 1.0),
            ("max(3, 1, 2)", 3.0),
            ("atan2(0, 1)", 0.0),
            ("ln(E)", 1.0),
            ("log10(1000)", 3.0),
            ("pow(2, 5)", 32.0),
        ],
    )
    def test_scalar_builtins(self, expr, expected):
        assert eval_expression(expr) == pytest.approx(expected)

    def test_sqrt_negative(self):
        with pytest.raises(CalcRuntimeError):
            eval_expression("sqrt(-1)")

    def test_array_builtins(self):
        env = {"v": [3, 4], "A": [[1, 2], [3, 4]]}
        assert eval_expression("len(v)", env) == 2.0
        assert eval_expression("rows(A)", env) == 2.0
        assert eval_expression("cols(A)", env) == 2.0
        assert eval_expression("cols(v)", env) == 1.0
        assert eval_expression("dot(v, v)", env) == 25.0
        assert eval_expression("norm(v)", env) == pytest.approx(5.0)
        assert eval_expression("sum(v)", env) == 7.0
        assert eval_expression("mean(v)", env) == 3.5
        assert eval_expression("min(v)", env) == 3.0

    def test_matvec_matmul(self):
        env = {"A": [[1, 0], [0, 2]], "v": [3, 4]}
        np.testing.assert_allclose(eval_expression("matvec(A, v)", env), [3, 8])
        np.testing.assert_allclose(
            eval_expression("matmul(A, A)", env), [[1, 0], [0, 4]]
        )

    def test_dot_length_mismatch(self):
        with pytest.raises(CalcRuntimeError, match="mismatch"):
            eval_expression("dot(u, v)", {"u": [1], "v": [1, 2]})

    def test_transpose(self):
        np.testing.assert_allclose(
            eval_expression("transpose(A)", {"A": [[1, 2], [3, 4]]}), [[1, 3], [2, 4]]
        )

    def test_eye(self):
        np.testing.assert_allclose(eval_expression("eye(2)"), np.eye(2))

    def test_zeros_negative(self):
        with pytest.raises(CalcRuntimeError, match="negative"):
            eval_expression("zeros(-1)")
