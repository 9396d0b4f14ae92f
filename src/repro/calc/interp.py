"""The interpreter for PITS programs: compiled once into closures, then run.

The interpreter is the engine behind two Banger features:

* **trial runs** — "the ability to perform trial runs of tasks or entire
  programs" — run a node's routine on sample inputs and see the outputs
  (and ``display(...)`` messages) immediately;
* **work metering** — every arithmetic operation, comparison, subscript,
  and builtin call increments an operation counter, giving the task weight
  the scheduler uses (:attr:`RunResult.ops`).

Semantics
---------
Values are floats, booleans, strings (display only), and numpy vectors /
matrices.  Subscripts are **1-based** (the calculator is aimed at
scientists; ``A[1,1]`` is the top-left element).  ``input`` variables are
read-only.  ``for`` bounds are inclusive.  A configurable step budget guards
against runaway loops (:class:`~repro.errors.CalcLimitError`).

Execution
---------
An :class:`Interpreter` compiles its program once, on its first run, into
nested closures: one per statement and per expression node, each holding
its children's closures, so a run dispatches on no node type.  Every
closure first counts one step against the budget (a statement before its
expressions, a loop once more per iteration), so the step and the line at
which the budget stops a run follow evaluation order.
``benchmarks/digest_calc.py`` pins steps, operation counts, results and
error messages over every shipped program.  :mod:`repro.calc.profile`
attributes the counts to lines by wrapping the statement closures.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.calc import ast
from repro.calc.builtins import CONSTANTS, Value, lookup
from repro.calc.parser import parse
from repro.errors import (
    CalcLimitError,
    CalcNameError,
    CalcRuntimeError,
    CalcTypeError,
)

#: Default cap on interpreter steps (statements + expression nodes).
DEFAULT_STEP_LIMIT = 5_000_000


@dataclass
class RunResult:
    """Outcome of one trial run."""

    outputs: dict[str, Value]
    locals: dict[str, Value]
    ops: float
    steps: int
    displayed: list[str] = field(default_factory=list)

    def output(self, name: str) -> Value:
        try:
            return self.outputs[name]
        except KeyError:
            raise CalcNameError(f"no output named {name!r}") from None


def _as_number(v: Value, where: str, line: int) -> float:
    if isinstance(v, bool):
        raise CalcTypeError(f"line {line}: {where} expects a number, got a boolean")
    if isinstance(v, (int, float)):
        return float(v)
    raise CalcTypeError(f"line {line}: {where} expects a number, got {type(v).__name__}")


def _as_bool(v: Value, where: str, line: int) -> bool:
    if isinstance(v, bool):
        return v
    raise CalcTypeError(f"line {line}: {where} expects a condition, got {type(v).__name__}")


def _coerce_input(v: Any) -> Value:
    """Accept friendly Python values for inputs (ints, lists, nested lists)."""
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.astype(float)
    if isinstance(v, (list, tuple)):
        return np.array(v, dtype=float)
    if isinstance(v, str):
        return v
    raise CalcTypeError(f"unsupported input value of type {type(v).__name__}")


#: Comparisons of two floats, by operator.
_COMPARE = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
#: Arithmetic of two floats that cannot fail, by operator.
_TOTAL = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_MISSING = object()

Thunk = Callable[[], Value]
#: A compiled program: ``execute(env) -> (ops, steps, displayed)``.
Execute = Callable[[dict[str, Value]], tuple[float, int, list[str]]]


class Interpreter:
    """Executes one PITS program.

    Parameters
    ----------
    program:
        Parsed :class:`~repro.calc.ast.Program` or source text.
    step_limit:
        Maximum interpreter steps before :class:`CalcLimitError`.
    """

    def __init__(self, program: ast.Program | str, step_limit: int = DEFAULT_STEP_LIMIT):
        self.program = parse(program) if isinstance(program, str) else program
        self.step_limit = step_limit
        self._execute: Execute | None = None

    def _compile(self) -> Execute:
        return _compile(self.program, self.step_limit)

    def run(self, **inputs: Any) -> RunResult:
        """Execute the program with the given input bindings."""
        prog = self.program
        missing = [v for v in prog.inputs if v not in inputs]
        if missing:
            raise CalcNameError(f"missing input(s): {', '.join(missing)}")
        extra = [v for v in inputs if v not in prog.inputs]
        if extra:
            raise CalcNameError(f"unknown input(s): {', '.join(extra)}")
        env = {name: _coerce_input(v) for name, v in inputs.items()}
        try:
            if self._execute is None:
                self._execute = self._compile()
            ops, steps, displayed = self._execute(env)
        except RecursionError:
            raise CalcRuntimeError(
                "expression nesting exceeded the interpreter's stack"
            ) from None
        unset = [v for v in prog.outputs if v not in env]
        if unset:
            raise CalcRuntimeError(
                f"program finished without assigning output(s): {', '.join(unset)}"
            )
        return RunResult(
            outputs={v: env[v] for v in prog.outputs},
            locals={v: env[v] for v in prog.locals if v in env},
            ops=ops,
            steps=steps,
            displayed=displayed,
        )


def _constant(name: str) -> Value:
    """The constant a name that is not bound reads, or ``_MISSING``."""
    if name in CONSTANTS:
        return CONSTANTS[name]
    if name.upper() in CONSTANTS and name.lower() == name:
        return CONSTANTS[name.upper()]
    return _MISSING


def _assign_error(
    inputs: tuple[str, ...], declared: frozenset[str], name: str, line: int
) -> Exception | None:
    """Why ``name`` may not be assigned, or ``None``."""
    if name in inputs:
        return CalcRuntimeError(f"line {line}: input {name!r} is read-only")
    if name not in declared:
        return CalcNameError(
            f"line {line}: variable {name!r} is not declared "
            "(add it to input, output, or local)"
        )
    return None


def _subscript(value: Value, extent: int, base: str, line: int) -> int:
    """A 1-based subscript's value, checked, as a 0-based index."""
    if type(value) is float and value.is_integer() and 1.0 <= value <= extent:
        return int(value) - 1
    raw = _as_number(value, "subscript", line)
    k = int(round(raw))
    if abs(raw - k) > 1e-9:
        raise CalcTypeError(f"line {line}: subscript {raw} is not an integer")
    if not 1 <= k <= extent:
        raise CalcRuntimeError(
            f"line {line}: subscript {k} out of range 1..{extent} for {base!r}"
        )
    return k - 1


def _rank_error(base: str, n: int, arr: np.ndarray, line: int) -> CalcTypeError:
    kind = "vector" if arr.ndim == 1 else "matrix"
    return CalcTypeError(f"line {line}: {base!r} is a {kind}; {n} subscript(s) given")


def _indexer(base: str, subs: list[Thunk], line: int) -> Callable[[np.ndarray], Any]:
    """Evaluates ``subs`` against an array's shape, in order, into an index."""
    n = len(subs)
    if n == 1:
        (only,) = subs

        def index(arr: np.ndarray) -> Any:
            if arr.ndim != 1:
                raise _rank_error(base, n, arr, line)
            return _subscript(only(), arr.shape[0], base, line)

    elif n == 2:
        first, second = subs

        def index(arr: np.ndarray) -> Any:
            if arr.ndim != 2:
                raise _rank_error(base, n, arr, line)
            rows, cols = arr.shape
            return (
                _subscript(first(), rows, base, line),
                _subscript(second(), cols, base, line),
            )

    else:

        def index(arr: np.ndarray) -> Any:
            if arr.ndim != n:
                raise _rank_error(base, n, arr, line)
            return tuple(
                _subscript(sub(), extent, base, line)
                for sub, extent in zip(subs, arr.shape)
            )

    return index


def _unary(op: str, v: Value, line: int) -> Value:
    if op == "not":
        return not _as_bool(v, "not", line)
    if isinstance(v, np.ndarray):
        return -v if op == "-" else v.copy()
    n = _as_number(v, f"unary {op}", line)
    return -n if op == "-" else n


def _scalar_arith(op: str, l: float, r: float, line: int) -> float:
    if op == "+":
        return l + r
    if op == "-":
        return l - r
    if op == "*":
        return l * r
    if op == "/":
        if r == 0:
            raise CalcRuntimeError(f"line {line}: division by zero")
        return l / r
    if op == "%":
        if r == 0:
            raise CalcRuntimeError(f"line {line}: modulo by zero")
        return l % r
    if op == "^":
        try:
            result = l**r
        except (OverflowError, ZeroDivisionError, ValueError) as exc:
            raise CalcRuntimeError(f"line {line}: {l} ^ {r}: {exc}") from None
        if isinstance(result, complex):
            raise CalcRuntimeError(f"line {line}: {l} ^ {r} is not a real number")
        return float(result)
    raise CalcRuntimeError(f"line {line}: unknown operator {op!r}")


def _size(v: Value) -> float:
    return float(v.size) if isinstance(v, np.ndarray) else 1.0


def _arith(op: str, left: Value, right: Value, line: int) -> Value:
    """Arithmetic on anything but two floats, arrays included."""
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return _array_arith(op, left, right, line)
    where = f"operator {op}"
    return _scalar_arith(op, _as_number(left, where, line), _as_number(right, where, line), line)


def _array_arith(op: str, left: Value, right: Value, line: int) -> Value:
    if op not in ("+", "-", "*", "/"):
        raise CalcTypeError(f"line {line}: operator {op!r} not defined for arrays")
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        with np.errstate(divide="raise", invalid="raise"):
            return left / right
    except FloatingPointError:
        raise CalcRuntimeError(f"line {line}: array division by zero") from None
    except ValueError as exc:
        raise CalcTypeError(f"line {line}: array shape mismatch: {exc}") from None


def _compare(op: str, left: Value, right: Value, line: int) -> bool:
    """A comparison of anything but two floats."""
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        if op in ("=", "<>"):
            if not (isinstance(left, np.ndarray) and isinstance(right, np.ndarray)):
                raise CalcTypeError(f"line {line}: cannot compare array and scalar")
            equal = left.shape == right.shape and bool(np.array_equal(left, right))
            return equal if op == "=" else not equal
        raise CalcTypeError(f"line {line}: ordering not defined for arrays")
    if isinstance(left, bool) or isinstance(right, bool):
        if op in ("=", "<>") and isinstance(left, bool) and isinstance(right, bool):
            return (left == right) if op == "=" else (left != right)
        raise CalcTypeError(f"line {line}: cannot order booleans")
    l = _as_number(left, f"comparison {op}", line)
    r = _as_number(right, f"comparison {op}", line)
    return _COMPARE[op](l, r)


def _array_literal(values: list[Value], line: int) -> Value:
    if not values:
        return np.zeros(0)
    if all(isinstance(v, np.ndarray) and v.ndim == 1 for v in values):
        lengths = {v.shape[0] for v in values}
        if len(lengths) != 1:
            raise CalcTypeError(f"line {line}: ragged matrix literal")
        return np.array([v for v in values], dtype=float)
    if any(isinstance(v, np.ndarray) for v in values):
        raise CalcTypeError(f"line {line}: mixed scalars and rows in array literal")
    return np.array([_as_number(v, "array element", line) for v in values], dtype=float)


def _arity_error(builtin: Any, e: ast.Call) -> CalcTypeError:
    expected = (
        str(builtin.min_args)
        if builtin.min_args == builtin.max_args
        else f"{builtin.min_args}..{builtin.max_args}"
    )
    return CalcTypeError(
        f"line {e.line}: {e.func}() takes {expected} argument(s), got {len(e.args)}"
    )


def _compile(
    program: ast.Program,
    step_limit: int,
    watch: Callable[[int], Any] | None = None,
) -> Execute:
    """Compile ``program`` into ``execute(env) -> (ops, steps, displayed)``.

    ``execute`` runs the program against ``env`` (the coerced inputs, which
    it extends with every assignment).  The run's counters and its display
    list live in this function's cells, reset by each ``execute``.  With
    ``watch`` (``line -> stats``, see :mod:`repro.calc.profile`), each
    statement also counts a hit on its line's stats and adds to their
    ``ops`` the operations it charged itself, not those of the statements
    nested in it.
    """
    inputs, declared = program.inputs, program.declared
    env: dict[str, Value] = {}
    displayed: list[str] = []
    steps = 0
    ops = 0.0
    charged = 0.0  # ops already attributed to a line (profiling only)

    def over(line: int) -> CalcLimitError:
        return CalcLimitError(
            f"line {line}: program exceeded {step_limit} steps "
            "(possible infinite loop)"
        )

    def raising(line: int, error: Callable[[], Exception], before: Thunk | None = None) -> Thunk:
        """A node that counts its step, evaluates ``before`` and raises."""

        def run() -> Value:
            nonlocal steps
            steps += 1
            if steps > step_limit:
                raise over(line)
            if before is not None:
                before()
            raise error()

        return run

    def unbound(name: str, line: int) -> CalcNameError:
        """The error of reading ``name``, unbound and no constant, at ``line``."""
        if name in declared:
            return CalcNameError(f"line {line}: variable {name!r} used before assignment")
        return CalcNameError(f"line {line}: unknown variable {name!r}")

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #
    def expr(e: ast.Expr) -> Thunk:
        kind = type(e)
        if kind is ast.Num or kind is ast.BoolLit or kind is ast.Str:
            return literal(e.value, e.line)
        if kind is ast.Name:
            return name(e)
        if kind is ast.Binary:
            return binary(e)
        if kind is ast.Index:
            return index(e)
        if kind is ast.Call:
            return call(e)
        if kind is ast.Unary:
            return unary(e)
        if kind is ast.ArrayLit:
            return array(e)
        return raising(e.line, lambda: CalcRuntimeError(
            f"line {e.line}: unknown expression {type(e).__name__}"))

    def literal(value: Value, line: int) -> Thunk:
        def run() -> Value:
            nonlocal steps
            steps += 1
            if steps > step_limit:
                raise over(line)
            return value

        return run

    def name(e: ast.Name) -> Thunk:
        ident, line = e.ident, e.line
        const = _constant(ident)

        def run() -> Value:
            nonlocal steps
            steps += 1
            if steps > step_limit:
                raise over(line)
            try:
                return env[ident]
            except KeyError:
                pass
            if const is _MISSING:
                raise unbound(ident, line)
            return const

        return run

    def index(e: ast.Index) -> Thunk:
        base, line = e.base, e.line
        const = _constant(base)
        at = _indexer(base, [expr(sub) for sub in e.subscripts], line)

        def run() -> Value:
            nonlocal steps, ops
            steps += 1
            if steps > step_limit:
                raise over(line)
            arr = env.get(base, _MISSING)
            if arr is _MISSING:
                if const is _MISSING:
                    raise unbound(base, line)
                arr = const
            if not isinstance(arr, np.ndarray):
                raise CalcTypeError(f"line {line}: {base!r} is not an array")
            ops += 1
            return float(arr[at(arr)])

        return run

    def unary(e: ast.Unary) -> Thunk:
        op, line = e.op, e.line
        operand = expr(e.operand)

        def run() -> Value:
            nonlocal steps, ops
            steps += 1
            if steps > step_limit:
                raise over(line)
            v = operand()
            ops += 1
            return _unary(op, v, line)

        return run

    def binary(e: ast.Binary) -> Thunk:
        op, line = e.op, e.line
        left, right = expr(e.left), expr(e.right)
        if op == "and" or op == "or":
            both = op == "and"

            def run() -> Value:
                nonlocal steps
                steps += 1
                if steps > step_limit:
                    raise over(line)
                if _as_bool(left(), op, line) is both:
                    return _as_bool(right(), op, line)
                return not both

            return run
        if op in _COMPARE:
            compare = _COMPARE[op]

            def run() -> Value:
                nonlocal steps, ops
                steps += 1
                if steps > step_limit:
                    raise over(line)
                l, r = left(), right()
                ops += 1
                if type(l) is float and type(r) is float:
                    return compare(l, r)
                return _compare(op, l, r, line)

            return run

        total = _TOTAL.get(op)

        def run() -> Value:
            nonlocal steps, ops
            steps += 1
            if steps > step_limit:
                raise over(line)
            l, r = left(), right()
            if type(l) is float and type(r) is float:
                ops += 1.0
                return total(l, r) if total is not None else _scalar_arith(op, l, r, line)
            ops += max(1.0, _size(l), _size(r))
            return _arith(op, l, r, line)

        return run

    def call(e: ast.Call) -> Thunk:
        line = e.line
        builtin = lookup(e.func)
        if builtin is None:
            return raising(line, lambda: CalcNameError(
                f"line {line}: unknown function {e.func!r}"))
        if not builtin.check_arity(len(e.args)):
            return raising(line, lambda: _arity_error(builtin, e))
        fn, cost = builtin.fn, builtin.cost
        args = [expr(a) for a in e.args]

        def run() -> Value:
            nonlocal steps, ops
            steps += 1
            if steps > step_limit:
                raise over(line)
            values = [a() for a in args]
            ops += cost(*values)
            try:
                return fn(*values)
            except (CalcRuntimeError, CalcTypeError) as exc:
                raise type(exc)(f"line {line}: {exc}") from None

        return run

    def array(e: ast.ArrayLit) -> Thunk:
        line = e.line
        elements = [expr(el) for el in e.elements]

        def run() -> Value:
            nonlocal steps, ops
            steps += 1
            if steps > step_limit:
                raise over(line)
            values = [el() for el in elements]
            ops += max(1.0, float(len(values)))
            return _array_literal(values, line)

        return run

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #
    def block(stmts: tuple[ast.Stmt, ...]) -> tuple[Thunk, ...]:
        return tuple(stmt(s) for s in stmts)

    def stmt(s: ast.Stmt) -> Thunk:
        kind = type(s)
        if kind is ast.Assign:
            run = assign(s)
        elif kind is ast.If:
            run = if_(s)
        elif kind is ast.For:
            run = for_(s)
        elif kind is ast.While:
            run = while_(s)
        elif kind is ast.Repeat:
            run = repeat(s)
        elif kind is ast.CallStmt:
            run = call_stmt(s)
        else:
            run = raising(s.line, lambda: CalcRuntimeError(
                f"line {s.line}: unknown statement {type(s).__name__}"))
        return run if watch is None else watched(run, s.line)

    def watched(run: Thunk, line: int) -> Thunk:
        def profiled() -> None:
            nonlocal charged
            stats = watch(line)
            stats.hits += 1
            before_ops = ops
            before_charged = charged
            run()
            gained = ops - before_ops
            nested_charged = charged - before_charged
            own = max(gained - nested_charged, 0.0)
            stats.ops += own
            charged = before_charged + nested_charged + own

        return profiled

    def assign(s: ast.Assign) -> Thunk:
        line, target = s.line, s.target
        value = expr(s.value)
        if type(target) is ast.Name:
            ident = target.ident
            if _assign_error(inputs, declared, ident, line) is not None:
                return raising(line, lambda: _assign_error(inputs, declared, ident, line), value)

            def run() -> None:
                nonlocal steps
                steps += 1
                if steps > step_limit:
                    raise over(line)
                v = value()
                if isinstance(v, np.ndarray):
                    v = v.copy()  # value semantics: no aliasing surprises
                env[ident] = v

            return run
        if type(target) is not ast.Index:
            return raising(line, lambda: CalcRuntimeError(
                f"line {line}: bad assignment target"), value)
        base = target.base
        if _assign_error(inputs, declared, base, line) is not None:
            return raising(line, lambda: _assign_error(inputs, declared, base, line), value)
        at = _indexer(base, [expr(sub) for sub in target.subscripts], line)

        def run() -> None:
            nonlocal steps, ops
            steps += 1
            if steps > step_limit:
                raise over(line)
            v = value()
            arr = env.get(base)
            if not isinstance(arr, np.ndarray):
                raise CalcTypeError(
                    f"line {line}: {base!r} is not an array "
                    "(create it with zeros(...) first)"
                )
            i = at(arr)
            ops += 1
            arr[i] = v if type(v) is float else _as_number(v, "array element", line)

        return run

    def if_(s: ast.If) -> Thunk:
        line = s.line
        cond, then, orelse = expr(s.cond), block(s.then), block(s.orelse)
        elifs = tuple((expr(c), block(b)) for c, b in s.elifs)

        def run() -> None:
            nonlocal steps
            steps += 1
            if steps > step_limit:
                raise over(line)
            if _as_bool(cond(), "if", line):
                for f in then:
                    f()
                return
            for c, body in elifs:
                if _as_bool(c(), "elif", line):
                    for f in body:
                        f()
                    return
            for f in orelse:
                f()

        return run

    def while_(s: ast.While) -> Thunk:
        line = s.line
        cond, body = expr(s.cond), block(s.body)

        def run() -> None:
            nonlocal steps
            steps += 1
            if steps > step_limit:
                raise over(line)
            while _as_bool(cond(), "while", line):
                steps += 1
                if steps > step_limit:
                    raise over(line)
                for f in body:
                    f()

        return run

    def repeat(s: ast.Repeat) -> Thunk:
        line = s.line
        cond, body = expr(s.cond), block(s.body)

        def run() -> None:
            nonlocal steps
            steps += 1
            if steps > step_limit:
                raise over(line)
            while True:
                steps += 1
                if steps > step_limit:
                    raise over(line)
                for f in body:
                    f()
                if _as_bool(cond(), "until", line):
                    break

        return run

    def for_(s: ast.For) -> Thunk:
        line, var = s.line, s.var
        if var in inputs:
            return raising(line, lambda: CalcRuntimeError(
                f"line {line}: loop variable {var!r} is an input"))
        start, stop = expr(s.start), expr(s.stop)
        step = None if s.step is None else expr(s.step)
        body = block(s.body)

        def run() -> None:
            nonlocal steps
            steps += 1
            if steps > step_limit:
                raise over(line)
            i = _as_number(start(), "for start", line)
            last = _as_number(stop(), "for stop", line)
            by = 1.0 if step is None else _as_number(step(), "for step", line)
            if by == 0:
                raise CalcRuntimeError(f"line {line}: for step must not be 0")
            if not (by > 0 or by < 0):  # NaN: no iteration
                return
            up = by > 0
            last += 1e-12 if up else -1e-12
            while i <= last if up else i >= last:
                steps += 1
                if steps > step_limit:
                    raise over(line)
                env[var] = i
                for f in body:
                    f()
                i += by

        return run

    def call_stmt(s: ast.CallStmt) -> Thunk:
        line, target = s.line, s.call
        if target.func != "display":
            # any other builtin may be called for effect; its value is dropped
            effect = expr(target)

            def run() -> None:
                nonlocal steps
                steps += 1
                if steps > step_limit:
                    raise over(line)
                effect()

            return run
        args = [expr(a) for a in target.args]

        def run() -> None:
            nonlocal steps
            steps += 1
            if steps > step_limit:
                raise over(line)
            parts = []
            for a in args:
                v = a()
                parts.append(v if isinstance(v, str) else _format_value(v))
            displayed.append(" ".join(parts))

        return run

    body = block(program.body)

    def execute(bindings: dict[str, Value]) -> tuple[float, int, list[str]]:
        nonlocal env, displayed, steps, ops, charged
        env, displayed, steps, ops, charged = bindings, [], 0, 0.0, 0.0
        for f in body:
            f()
        return ops, steps, displayed

    return execute


def _format_value(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:g}"
    if isinstance(v, np.ndarray):
        return np.array2string(v, precision=6, suppress_small=True)
    return str(v)


def run_program(source: str | ast.Program, step_limit: int = DEFAULT_STEP_LIMIT, **inputs: Any) -> RunResult:
    """One-call trial run: parse (if needed), execute, return the result."""
    return Interpreter(source, step_limit=step_limit).run(**inputs)


def eval_expression(source: str, env: dict[str, Any] | None = None) -> Value:
    """Evaluate a bare expression (the panel's ``=`` button).

    ``env`` provides variable bindings; constants are always available.
    """
    from repro.calc.parser import parse_expression

    expr = parse_expression(source)
    names = sorted(
        {n.ident for n in ast.walk_exprs(expr) if isinstance(n, ast.Name)}
        | {n.base for n in ast.walk_exprs(expr) if isinstance(n, ast.Index)}
    )
    env = {k: v for k, v in (env or {}).items()}
    program = ast.Program(
        name="expr",
        inputs=tuple(n for n in names if n not in CONSTANTS and n.upper() not in CONSTANTS),
        outputs=("result_",),
        body=(ast.Assign(target=ast.Name(ident="result_"), value=expr, line=1),),
    )
    missing = [k for k in program.inputs if k not in env]
    if missing:
        raise CalcNameError(f"unbound variable(s) in expression: {', '.join(missing)}")
    interp = Interpreter(program)
    return interp.run(**{k: env[k] for k in program.inputs}).outputs["result_"]
