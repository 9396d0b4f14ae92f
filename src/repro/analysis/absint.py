"""Abstract interpretation of PITS programs: the ``PITS1xx`` rule family.

The interpreter executes a program over the interval/kind domains of
:mod:`repro.analysis.domains`, joining at branches and widening at loops so
it always terminates, and never raises on any parseable program (a
property test holds it to that).  It produces three artifacts:

* **diagnostics** — value-flow findings beyond the scope/kind checks of
  :mod:`repro.calc.analyze`:

  - ``PITS101`` (error): a division or modulo whose divisor is provably
    always zero;
  - ``PITS102`` (error): a builtin call provably outside its domain on
    every execution (``sqrt`` of a negative, ``ln`` of a non-positive,
    ``asin``/``acos`` outside ``[-1, 1]``);
  - ``PITS103`` (warning): a branch or loop body that can never execute;
  - ``PITS104`` (warning): an output that is provably a constant even
    though the task has inputs — the task recomputes a literal;
  - ``PITS105`` (warning): a dead store — a whole-variable assignment
    overwritten before any read can observe it;

* **effect summaries** — one :class:`~repro.analysis.effects.StmtEffect`
  per top-level statement (reads, writes, display, may-raise), with
  ``may_raise`` refined by the intervals (``x / d`` is total when ``d``'s
  range excludes zero).  :mod:`repro.codegen.pits2py` uses these to elide
  provably dead, pure, total trailing statements;

* the **final abstract store**, for tooling and tests.

Guaranteed-error rules only fire on *must* information (a constant-zero
divisor, an interval entirely outside the domain), so they cannot produce
false positives on programs whose defect depends on input values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.calc import ast
from repro.calc.analyze import Diagnostic
from repro.calc.builtins import CONSTANTS, lookup
from repro.calc.parser import parse
from repro.errors import CalcSyntaxError
from repro.facts import program_fact
from repro.severity import Severity

from repro.analysis.domains import (
    BOTTOM,
    TOP,
    AbsValue,
    Interval,
    Kind,
    UNKNOWN,
)
from repro.analysis.effects import StmtEffect

#: Iterations of plain re-analysis before widening kicks in.
_WIDEN_AFTER = 2
#: Hard cap on fixpoint iterations (belt and braces; widening converges
#: long before this — each variable bound can only jump to infinity once).
_MAX_ITERATIONS = 64

_Env = dict[str, AbsValue]


@dataclass(frozen=True)
class ProgramAnalysis:
    """Everything the abstract interpreter learned about one program."""

    diagnostics: tuple[Diagnostic, ...]
    effects: tuple[StmtEffect, ...]
    env: tuple[tuple[str, AbsValue], ...]

    def final(self, name: str) -> AbsValue:
        """The abstract value of ``name`` at program exit."""
        for n, v in self.env:
            if n == name:
                return v
        return UNKNOWN


def interpret(program: ast.Program | str) -> ProgramAnalysis:
    """Abstractly execute a PITS program; total on any parseable input.

    Source text is interpreted once per distinct text (:mod:`repro.facts`);
    a parsed program is interpreted directly.
    """
    if isinstance(program, str):
        return program_fact("interpret", program, _interpret_source)
    interp = _Interp(program)
    interp.run()
    return ProgramAnalysis(
        tuple(interp.diags),
        tuple(interp.effects),
        tuple(sorted(interp.env.items())),
    )


def _interpret_source(source: str) -> ProgramAnalysis:
    try:
        return interpret(parse(source))
    except CalcSyntaxError:
        return ProgramAnalysis((), (), ())


def _join_env(a: _Env, b: _Env) -> _Env:
    """Pointwise join; a variable defined on only one path is dropped
    (its value on the other path is 'absent', and read-before-assign is
    PITS015's job)."""
    return {k: a[k].join(b[k]) for k in a.keys() & b.keys()}


def _widen_env(old: _Env, new: _Env) -> _Env:
    return {k: old[k].widen(new[k]) for k in old.keys() & new.keys()}


class _EffBuilder:
    """Accumulates one top-level statement's effect summary."""

    def __init__(self) -> None:
        self.reads: set[str] = set()
        self.writes: set[str] = set()
        self.displays = False
        self.may_raise = False

    def build(self, line: int) -> StmtEffect:
        return StmtEffect(
            line=line,
            reads=frozenset(self.reads),
            writes=frozenset(self.writes),
            displays=self.displays,
            may_raise=self.may_raise,
        )


class _Interp:
    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.diags: list[Diagnostic] = []
        self.effects: list[StmtEffect] = []
        self.env: _Env = {name: UNKNOWN for name in program.inputs}
        self._seen: set[tuple[str, int, str]] = set()
        self._eff = _EffBuilder()

    # ------------------------------------------------------------- #
    # reporting
    # ------------------------------------------------------------- #
    def report(self, rule: str, severity: Severity, message: str, line: int) -> None:
        key = (rule, line, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.diags.append(Diagnostic(severity, message, line, rule=rule))

    # ------------------------------------------------------------- #
    # driver
    # ------------------------------------------------------------- #
    def run(self) -> None:
        env = self.env
        for s in self.program.body:
            self._eff = _EffBuilder()
            env = self._stmt(s, env)
            self.effects.append(self._eff.build(s.line))
        self.env = env
        self._constant_outputs(env)
        self._dead_stores()
        self.diags.sort(key=lambda d: (d.line, d.rule))

    def _constant_outputs(self, env: _Env) -> None:
        if not self.program.inputs:
            return  # a constant task legitimately has constant outputs
        for name in self.program.outputs:
            v = env.get(name)
            if v is not None and v.kind is Kind.SCALAR and v.ival.is_const:
                self.report(
                    "PITS104",
                    Severity.WARNING,
                    f"output {name!r} is provably the constant {v.ival.lo:g} "
                    "on every input",
                    0,
                )

    def _dead_stores(self) -> None:
        body = self.program.body
        for i, s in enumerate(body):
            if not isinstance(s, ast.Assign) or not isinstance(s.target, ast.Name):
                continue
            name = s.target.ident
            for later in body[i + 1:]:
                if _stmt_reads(later, name):
                    break  # the store is (potentially) observed
                if isinstance(later, ast.Assign) and isinstance(later.target, ast.Name) \
                        and later.target.ident == name:
                    self.report(
                        "PITS105",
                        Severity.WARNING,
                        f"value assigned to {name!r} is overwritten on line "
                        f"{later.line} before it can be read (dead store)",
                        s.line,
                    )
                    break

    # ------------------------------------------------------------- #
    # statements
    # ------------------------------------------------------------- #
    def _block(self, stmts: tuple[ast.Stmt, ...], env: _Env) -> _Env:
        for s in stmts:
            env = self._stmt(s, env)
        return env

    def _stmt(self, s: ast.Stmt, env: _Env) -> _Env:
        if isinstance(s, ast.Assign):
            value = self._eval(s.value, env)
            if isinstance(s.target, ast.Index):
                for sub in s.target.subscripts:
                    self._eval(sub, env)
                base = s.target.base
                self._eff.reads.add(base)   # partial write reads the array
                self._eff.writes.add(base)
                self._eff.may_raise = True  # subscript bounds are not tracked
                old = env.get(base, UNKNOWN)
                env = dict(env)
                env[base] = AbsValue(Kind.ARRAY, old.ival.join(value.ival))
            else:
                name = s.target.ident  # type: ignore[union-attr]
                self._eff.writes.add(name)
                env = dict(env)
                env[name] = value
            return env

        if isinstance(s, ast.CallStmt):
            self._eval(s.call, env)
            return env

        if isinstance(s, ast.If):
            return self._if_chain(s.cond, s.then, s.elifs, s.orelse, env)

        if isinstance(s, ast.While):
            truth = self._bool(s.cond, env)
            self._eval(s.cond, env)
            if truth is False:
                self._unreachable(s.body, "loop body never executes: the "
                                           "condition is always false")
                return env
            return self._fixpoint(s.body, env, extra_cond=s.cond)

        if isinstance(s, ast.Repeat):
            env = self._block(s.body, env)
            self._eval(s.cond, env)
            return self._fixpoint(s.body, env, extra_cond=s.cond)

        if isinstance(s, ast.For):
            start = self._eval(s.start, env)
            stop = self._eval(s.stop, env)
            if s.step is not None:
                self._eval(s.step, env)
            self._eff.writes.add(s.var)
            hull = Interval(
                min(start.ival.lo, stop.ival.lo), max(start.ival.hi, stop.ival.hi)
            ) if not (start.ival.is_bottom or stop.ival.is_bottom) else TOP
            pre = dict(env)
            env = dict(env)
            env[s.var] = AbsValue.scalar(hull)
            out = self._fixpoint(s.body, env)
            if start.ival.le(stop.ival) is True and s.step is None:
                return out  # at least one iteration is guaranteed
            return _join_env(pre, out)

        return env  # pragma: no cover - no other statement kinds exist

    def _if_chain(
        self,
        cond: ast.Expr,
        then: tuple[ast.Stmt, ...],
        elifs: tuple[tuple[ast.Expr, tuple[ast.Stmt, ...]], ...],
        orelse: tuple[ast.Stmt, ...],
        env: _Env,
    ) -> _Env:
        truth = self._bool(cond, env)
        self._eval(cond, env)

        def rest(env2: _Env) -> _Env:
            if elifs:
                (c2, block2), more = elifs[0], elifs[1:]
                return self._if_chain(c2, block2, more, orelse, env2)
            return self._block(orelse, env2)

        if truth is True:
            for _, block in elifs:
                self._unreachable(block, "branch never executes: an earlier "
                                          "condition is always true")
            self._unreachable(orelse, "branch never executes: an earlier "
                                       "condition is always true")
            return self._block(then, env)
        if truth is False:
            self._unreachable(then, "branch never executes: the condition "
                                     "is always false")
            return rest(env)
        out_then = self._block(then, dict(env))
        out_rest = rest(dict(env))
        return _join_env(out_then, out_rest)

    def _unreachable(self, block: tuple[ast.Stmt, ...], why: str) -> None:
        if block:
            self.report("PITS103", Severity.WARNING, why, block[0].line)

    def _fixpoint(
        self,
        body: tuple[ast.Stmt, ...],
        env: _Env,
        extra_cond: ast.Expr | None = None,
    ) -> _Env:
        """Iterate a loop body to a fixpoint, widening for termination."""
        state = env
        for iteration in range(_MAX_ITERATIONS):
            out = self._block(body, dict(state))
            if extra_cond is not None:
                self._eval(extra_cond, out)
            new = _join_env(state, out)
            if new == state:
                return state
            state = _widen_env(state, new) if iteration >= _WIDEN_AFTER else new
        # unreachable in practice: widening converges in a handful of steps
        return {k: UNKNOWN for k in state}  # pragma: no cover

    # ------------------------------------------------------------- #
    # expressions
    # ------------------------------------------------------------- #
    def _eval(self, e: ast.Expr, env: _Env) -> AbsValue:
        if isinstance(e, ast.Num):
            return AbsValue.const(e.value)
        if isinstance(e, ast.BoolLit):
            return AbsValue.scalar(Interval.const(1.0 if e.value else 0.0))
        if isinstance(e, ast.Str):
            return UNKNOWN
        if isinstance(e, ast.Name):
            self._eff.reads.add(e.ident)
            if e.ident in env:
                return env[e.ident]
            value = _constant_value(e.ident)
            if value is not None:
                return AbsValue.const(value)
            return UNKNOWN
        if isinstance(e, ast.Index):
            self._eff.reads.add(e.base)
            for sub in e.subscripts:
                self._eval(sub, env)
            self._eff.may_raise = True  # bounds are not tracked
            base = env.get(e.base, UNKNOWN)
            return AbsValue.scalar(base.ival if base.kind is Kind.ARRAY else TOP)
        if isinstance(e, ast.ArrayLit):
            summary = BOTTOM
            for el in e.elements:
                summary = summary.join(self._eval(el, env).ival)
            return AbsValue.array(summary if e.elements else TOP)
        if isinstance(e, ast.Unary):
            operand = self._eval(e.operand, env)
            if e.op == "-":
                return AbsValue(operand.kind, operand.ival.neg())
            if e.op == "not":
                if not _is_boolish(e.operand):
                    self._eff.may_raise = True
                return AbsValue.scalar(Interval(0.0, 1.0))
            return operand
        if isinstance(e, ast.Binary):
            return self._binary(e, env)
        if isinstance(e, ast.Call):
            return self._call(e, env)
        return UNKNOWN  # pragma: no cover - exhaustive above

    def _binary(self, e: ast.Binary, env: _Env) -> AbsValue:
        left = self._eval(e.left, env)
        right = self._eval(e.right, env)
        op = e.op

        if op in ("and", "or"):
            if not (_is_boolish(e.left) and _is_boolish(e.right)):
                self._eff.may_raise = True
            return AbsValue.scalar(Interval(0.0, 1.0))

        if op in ("=", "<>", "<", "<=", ">", ">="):
            if left.kind is not Kind.SCALAR or right.kind is not Kind.SCALAR:
                self._eff.may_raise = True  # ordering arrays is a type error
            return AbsValue.scalar(Interval(0.0, 1.0))

        both_scalar = left.kind is Kind.SCALAR and right.kind is Kind.SCALAR
        either_array = Kind.ARRAY in (left.kind, right.kind)
        kind = Kind.ARRAY if either_array else (Kind.SCALAR if both_scalar else Kind.ANY)
        if not both_scalar:
            self._eff.may_raise = True  # possible kind/type error at runtime

        if op == "+":
            return AbsValue(kind, left.ival.add(right.ival))
        if op == "-":
            return AbsValue(kind, left.ival.sub(right.ival))
        if op == "*":
            return AbsValue(kind, left.ival.mul(right.ival))
        if op in ("/", "%"):
            divisor = right.ival
            if divisor.is_const and divisor.lo == 0.0:
                what = "division" if op == "/" else "modulo"
                self.report(
                    "PITS101",
                    Severity.ERROR,
                    f"{what} by zero is guaranteed: the divisor is always 0",
                    e.line,
                )
                self._eff.may_raise = True
                return AbsValue(kind, BOTTOM)
            if divisor.is_bottom or divisor.contains(0.0):
                self._eff.may_raise = True
            if op == "%":
                return AbsValue(kind, TOP)
            return AbsValue(kind, left.ival.div(divisor))
        if op == "^":
            if left.ival.is_const and right.ival.is_const and both_scalar:
                try:
                    result = left.ival.lo ** right.ival.lo
                    if not isinstance(result, complex):
                        return AbsValue.const(float(result))
                except (OverflowError, ZeroDivisionError, ValueError):
                    self.report(
                        "PITS102",
                        Severity.ERROR,
                        f"{left.ival.lo:g} ^ {right.ival.lo:g} always fails "
                        "at run time",
                        e.line,
                    )
            self._eff.may_raise = True
            return AbsValue(kind, TOP)
        return UNKNOWN  # pragma: no cover - parser emits no other ops

    # ------------------------------------------------------------- #
    # builtin calls
    # ------------------------------------------------------------- #
    def _call(self, e: ast.Call, env: _Env) -> AbsValue:
        args = [self._eval(a, env) for a in e.args]
        func = e.func.lower()

        if func == "display":
            self._eff.displays = True
            return UNKNOWN

        if lookup(func) is None or not lookup(func).check_arity(len(args)):
            self._eff.may_raise = True  # PITS004/PITS005 already reported
            return UNKNOWN

        arg = args[0] if args else UNKNOWN
        scalar_args = all(a.kind is Kind.SCALAR for a in args)

        # guaranteed domain errors (must information only)
        iv = arg.ival
        if not iv.is_bottom and arg.kind is not Kind.ARRAY:
            guaranteed = {
                "sqrt": iv.hi < 0,
                "ln": iv.hi <= 0,
                "log10": iv.hi <= 0,
                "asin": iv.lo > 1 or iv.hi < -1,
                "acos": iv.lo > 1 or iv.hi < -1,
            }.get(func, False)
            if guaranteed:
                self.report(
                    "PITS102",
                    Severity.ERROR,
                    f"{func}() is always outside its domain here "
                    f"(argument is in {iv})",
                    e.line,
                )
                self._eff.may_raise = True
                return AbsValue.scalar(BOTTOM)

        value, raises = _transfer(func, args, scalar_args)
        if raises:
            self._eff.may_raise = True
        return value

    # ------------------------------------------------------------- #
    # tri-state condition evaluation (True / False / None = unknown)
    # ------------------------------------------------------------- #
    def _bool(self, e: ast.Expr, env: _Env) -> bool | None:
        if isinstance(e, ast.BoolLit):
            return e.value
        if isinstance(e, ast.Unary) and e.op == "not":
            return _tri_not(self._bool(e.operand, env))
        if isinstance(e, ast.Name):
            v = env.get(e.ident)
            if (
                v is not None
                and v.kind is Kind.SCALAR
                and v.ival.is_const
                and v.ival.lo in (0.0, 1.0)
            ):
                return v.ival.lo == 1.0
            return None
        if isinstance(e, ast.Binary):
            if e.op in ("and", "or"):
                l = self._bool(e.left, env)
                r = self._bool(e.right, env)
                if e.op == "and":
                    if l is False or r is False:
                        return False
                    return True if (l is True and r is True) else None
                if l is True or r is True:
                    return True
                return False if (l is False and r is False) else None
            if e.op in ("=", "<>", "<", "<=", ">", ">="):
                left = self._quiet_eval(e.left, env)
                right = self._quiet_eval(e.right, env)
                if Kind.ARRAY in (left.kind, right.kind):
                    return None
                li, ri = left.ival, right.ival
                return {
                    "=": li.eq(ri),
                    "<>": _tri_not(li.eq(ri)),
                    "<": li.lt(ri),
                    "<=": li.le(ri),
                    ">": ri.lt(li),
                    ">=": ri.le(li),
                }[e.op]
        return None

    def _quiet_eval(self, e: ast.Expr, env: _Env) -> AbsValue:
        """Evaluate without touching the effect builder or diagnostics
        (the visible evaluation of the condition happens separately)."""
        saved_eff = self._eff
        saved_diags = list(self.diags)
        saved_seen = set(self._seen)
        self._eff = _EffBuilder()
        try:
            return self._eval(e, env)
        finally:
            self._eff = saved_eff
            self.diags[:] = saved_diags
            self._seen = saved_seen


# ----------------------------------------------------------------- #
# builtin transfer functions
# ----------------------------------------------------------------- #
def _transfer(func: str, args: list[AbsValue], scalar_args: bool) -> tuple[AbsValue, bool]:
    """Abstract result and may-raise flag for one builtin call."""
    arg = args[0] if args else UNKNOWN
    iv = arg.ival

    if func == "abs":
        return AbsValue(arg.kind, iv.abs()), arg.kind is Kind.ANY
    if func in ("min", "max"):
        if len(args) == 1:
            # min/max of one array; raises on an empty array or a scalar
            return AbsValue.scalar(iv), True
        out = iv
        for other in args[1:]:
            out = out.min_(other.ival) if func == "min" else out.max_(other.ival)
        return AbsValue.scalar(out), not scalar_args
    if func == "clamp" and len(args) == 3:
        out = iv.max_(args[1].ival).min_(args[2].ival)
        return AbsValue.scalar(out), not scalar_args
    if func == "sqrt":
        if iv.is_bottom or iv.hi < 0:
            return AbsValue.scalar(BOTTOM), True
        lo = math.sqrt(max(iv.lo, 0.0))
        hi = math.sqrt(iv.hi) if math.isfinite(iv.hi) else math.inf
        return AbsValue.scalar(Interval(lo, hi)), (not scalar_args) or iv.lo < 0
    if func in ("sin", "cos"):
        if iv.is_const:
            fn = math.sin if func == "sin" else math.cos
            return AbsValue.const(fn(iv.lo)), not scalar_args
        return AbsValue.scalar(Interval(-1.0, 1.0)), not scalar_args
    if func == "tanh":
        return AbsValue.scalar(Interval(-1.0, 1.0)), not scalar_args
    if func == "atan":
        return AbsValue.scalar(Interval(-math.pi / 2, math.pi / 2)), not scalar_args
    if func == "atan2":
        return AbsValue.scalar(Interval(-math.pi, math.pi)), not scalar_args
    if func == "sign":
        return AbsValue.scalar(Interval(-1.0, 1.0)), not scalar_args
    if func in ("floor", "ceil"):
        if iv.is_bottom:
            return AbsValue.scalar(BOTTOM), True
        fn = math.floor if func == "floor" else math.ceil
        lo = float(fn(iv.lo)) if math.isfinite(iv.lo) else iv.lo
        hi = float(fn(iv.hi)) if math.isfinite(iv.hi) else iv.hi
        return AbsValue.scalar(Interval(lo, hi)), not scalar_args
    if func == "round":
        if iv.is_bottom:
            return AbsValue.scalar(BOTTOM), True
        lo = float(round(iv.lo)) if math.isfinite(iv.lo) else iv.lo
        hi = float(round(iv.hi)) if math.isfinite(iv.hi) else iv.hi
        return AbsValue.scalar(Interval(lo, hi)), not scalar_args
    if func in ("deg", "rad"):
        factor = 180.0 / math.pi if func == "deg" else math.pi / 180.0
        return AbsValue.scalar(iv.mul(Interval.const(factor))), not scalar_args
    if func == "tan":
        return AbsValue.scalar(TOP), not scalar_args
    if func == "hypot":
        return AbsValue.scalar(Interval(0.0, math.inf)), not scalar_args
    if func == "exp":
        safe = scalar_args and not iv.is_bottom and iv.hi <= 700.0
        if iv.is_bottom:
            return AbsValue.scalar(BOTTOM), True
        lo = math.exp(iv.lo) if iv.lo <= 700.0 else math.inf
        hi = math.exp(iv.hi) if iv.hi <= 700.0 else math.inf
        return AbsValue.scalar(Interval(lo, hi)), not safe
    if func in ("sinh", "cosh"):
        safe = scalar_args and not iv.is_bottom and -700.0 <= iv.lo and iv.hi <= 700.0
        floor_ = 1.0 if func == "cosh" else -math.inf
        return AbsValue.scalar(Interval(floor_, math.inf) if func == "cosh" else TOP), not safe
    if func in ("ln", "log10"):
        # guaranteed-failure case handled by the caller; here hi > 0
        return AbsValue.scalar(TOP), True if iv.lo <= 0 or not scalar_args else False
    if func in ("asin", "acos"):
        rng = Interval(-math.pi / 2, math.pi / 2) if func == "asin" \
            else Interval(0.0, math.pi)
        safe = scalar_args and not iv.is_bottom and -1.0 <= iv.lo and iv.hi <= 1.0
        return AbsValue.scalar(rng), not safe
    if func == "pow":
        return AbsValue.scalar(TOP), True
    if func in ("zeros", "ones"):
        fill = 0.0 if func == "zeros" else 1.0
        sizes_safe = scalar_args and all(a.ival.lo >= 0 for a in args)
        return AbsValue.array(Interval.const(fill)), not sizes_safe
    if func == "eye":
        safe = scalar_args and iv.lo >= 0
        return AbsValue.array(Interval(0.0, 1.0)), not safe
    if func in ("len", "rows", "cols"):
        return AbsValue.scalar(Interval(0.0, math.inf)), arg.kind is not Kind.ARRAY
    if func == "mean":
        return AbsValue.scalar(iv if arg.kind is Kind.ARRAY else TOP), True
    if func == "norm":
        return AbsValue.scalar(Interval(0.0, math.inf)), True
    if func in ("dot", "sum"):
        return AbsValue.scalar(TOP), True
    if func == "copy":
        return arg, False
    if lookup(func).returns_array:
        return AbsValue.array(TOP), True
    return UNKNOWN, True  # pragma: no cover - catalogue is closed


# ----------------------------------------------------------------- #
# helpers
# ----------------------------------------------------------------- #
def _constant_value(name: str) -> float | None:
    if name in CONSTANTS:
        return CONSTANTS[name]
    if name.lower() == name and name.upper() in CONSTANTS:
        return CONSTANTS[name.upper()]
    return None


def _is_boolish(e: ast.Expr) -> bool:
    """Syntactically certain to evaluate to a boolean (no type error)."""
    if isinstance(e, ast.BoolLit):
        return True
    if isinstance(e, ast.Unary) and e.op == "not":
        return _is_boolish(e.operand)
    if isinstance(e, ast.Binary):
        if e.op in ("=", "<>", "<", "<=", ">", ">="):
            return True
        if e.op in ("and", "or"):
            return _is_boolish(e.left) and _is_boolish(e.right)
    return False


def _stmt_reads(s: ast.Stmt, name: str) -> bool:
    """Does statement ``s`` (or anything nested) read variable ``name``?"""
    for inner in ast.walk_stmts((s,)):
        for e in ast.stmt_exprs(inner):
            for sub in ast.walk_exprs(e):
                if isinstance(sub, ast.Name) and sub.ident == name:
                    return True
                if isinstance(sub, ast.Index) and sub.base == name:
                    return True
        if isinstance(inner, ast.Assign) and isinstance(inner.target, ast.Index) \
                and inner.target.base == name:
            return True  # a partial write observes the rest of the array
    return False


def _tri_not(x: bool | None) -> bool | None:
    return None if x is None else not x
