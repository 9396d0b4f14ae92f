"""Translate PITS routines into Python functions.

Each dataflow node's routine becomes::

    def task_<name>(env, _display):
        v_a = env['a']            # inputs
        ...translated body...
        return {'x': v_x}         # outputs

Variables are prefixed ``v_`` so PITS names can never collide with Python
keywords or the runtime.  All arithmetic with nontrivial semantics (1-based
subscripts, guarded division, inclusive float loops, builtins) goes through
:mod:`repro.codegen.runtime` (imported as ``_rt``), so generated programs
compute exactly what the interpreter computes — including name resolution:
declared variables shadow constants, as in the interpreter's
env-before-constants lookup.
"""

from __future__ import annotations

from repro.calc import ast
from repro.calc.analyze import errors as static_errors
from repro.calc.builtins import CONSTANTS
from repro.calc.parser import parse
from repro.errors import CodegenError

_INDENT = "    "

_BINOPS = {
    "+": "+",
    "-": "-",
    "*": "*",
    "=": "==",
    "<>": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "and": "and",
    "or": "or",
}


def mangle(name: str) -> str:
    return f"v_{name}"


class _Translator:
    """Carries the program's declared-name set through the recursion."""

    def __init__(self, declared: frozenset[str]):
        self.declared = declared

    # ------------------------------------------------------------------ #
    def expr(self, e: ast.Expr) -> str:
        if isinstance(e, ast.Num):
            return repr(e.value)
        if isinstance(e, ast.BoolLit):
            return "True" if e.value else "False"
        if isinstance(e, ast.Str):
            return repr(e.value)
        if isinstance(e, ast.Name):
            if e.ident not in self.declared:
                if e.ident in CONSTANTS:
                    return repr(CONSTANTS[e.ident])
                if e.ident.lower() == e.ident and e.ident.upper() in CONSTANTS:
                    return repr(CONSTANTS[e.ident.upper()])
            return mangle(e.ident)
        if isinstance(e, ast.Index):
            subs = ", ".join(self.expr(s) for s in e.subscripts)
            return f"_rt.get({mangle(e.base)}, {e.base!r}, {subs})"
        if isinstance(e, ast.Unary):
            if e.op == "not":
                return f"(not {self.expr(e.operand)})"
            return f"({e.op}{self.expr(e.operand)})"
        if isinstance(e, ast.Binary):
            l, r = self.expr(e.left), self.expr(e.right)
            if e.op == "/":
                return f"_rt.div({l}, {r})"
            if e.op == "%":
                return f"_rt.mod({l}, {r})"
            if e.op == "^":
                return f"_rt.power({l}, {r})"
            return f"({l} {_BINOPS[e.op]} {r})"
        if isinstance(e, ast.Call):
            args = ", ".join(self.expr(a) for a in e.args)
            return f"_rt.call({e.func!r}{', ' if args else ''}{args})"
        if isinstance(e, ast.ArrayLit):
            if e.elements and all(isinstance(x, ast.ArrayLit) for x in e.elements):
                rows = ", ".join(
                    "[" + ", ".join(self.expr(v) for v in row.elements) + "]"  # type: ignore[union-attr]
                    for row in e.elements
                )
                return f"_np.array([{rows}], dtype=float)"
            items = ", ".join(self.expr(x) for x in e.elements)
            return f"_np.array([{items}], dtype=float)"
        raise CodegenError(f"cannot generate code for {type(e).__name__}")

    # ------------------------------------------------------------------ #
    def stmt(self, s: ast.Stmt, depth: int) -> list[str]:
        pad = _INDENT * depth
        if isinstance(s, ast.Assign):
            value = self.expr(s.value)
            if isinstance(s.target, ast.Name):
                return [f"{pad}{mangle(s.target.ident)} = _rt.assign({value})"]
            target = s.target
            subs = ", ".join(self.expr(x) for x in target.subscripts)  # type: ignore[union-attr]
            return [
                f"{pad}_rt.set_({mangle(target.base)}, {target.base!r}, {value}, {subs})"  # type: ignore[union-attr]
            ]
        if isinstance(s, ast.If):
            lines = [f"{pad}if {self.expr(s.cond)}:"]
            lines += self.block(s.then, depth + 1)
            for cond, block in s.elifs:
                lines.append(f"{pad}elif {self.expr(cond)}:")
                lines += self.block(block, depth + 1)
            if s.orelse:
                lines.append(f"{pad}else:")
                lines += self.block(s.orelse, depth + 1)
            return lines
        if isinstance(s, ast.While):
            return [f"{pad}while {self.expr(s.cond)}:"] + self.block(s.body, depth + 1)
        if isinstance(s, ast.Repeat):
            lines = [f"{pad}while True:"]
            lines += self.block(s.body, depth + 1)
            lines.append(f"{pad}{_INDENT}if {self.expr(s.cond)}:")
            lines.append(f"{pad}{_INDENT}{_INDENT}break")
            return lines
        if isinstance(s, ast.For):
            step = self.expr(s.step) if s.step is not None else "1.0"
            header = (
                f"{pad}for {mangle(s.var)} in _rt.for_range("
                f"{self.expr(s.start)}, {self.expr(s.stop)}, {step}):"
            )
            return [header] + self.block(s.body, depth + 1)
        if isinstance(s, ast.CallStmt):
            if s.call.func == "display":
                args = ", ".join(self.expr(a) for a in s.call.args)
                return [f"{pad}_display(_rt.display_line({args}))"]
            return [f"{pad}{self.expr(s.call)}"]
        raise CodegenError(f"cannot generate code for {type(s).__name__}")

    def block(self, stmts: tuple[ast.Stmt, ...], depth: int) -> list[str]:
        if not stmts:
            return [f"{_INDENT * depth}pass"]
        out: list[str] = []
        for s in stmts:
            out += self.stmt(s, depth)
        return out


def _declared_names(program: ast.Program) -> frozenset[str]:
    loop_vars = {s.var for s in ast.walk_stmts(program.body) if isinstance(s, ast.For)}
    return program.declared | loop_vars


def function_name(task: str) -> str:
    """A safe Python function name for a (possibly dotted) task name."""
    safe = "".join(c if c.isalnum() else "_" for c in task)
    return f"task_{safe}"


def _elidable_statements(program: ast.Program | str) -> set[int]:
    """Indices of top-level statements safe to drop from generated code.

    A trailing statement (after the last one that writes an output or
    displays) can be elided when the effect summary proves it pure (no
    display) and total (cannot raise) and no kept later statement reads
    what it writes — eliding it is then unobservable: same outputs, same
    display lines, same exceptions.
    """
    from repro.analysis.absint import interpret

    effects = interpret(program).effects
    if isinstance(program, str):
        program = parse(program)
    outputs = frozenset(program.outputs)
    last_live = -1
    for i, eff in enumerate(effects):
        if (eff.writes & outputs) or eff.displays:
            last_live = i
    elide: set[int] = set()
    needed: set[str] = set()
    for i in range(len(program.body) - 1, last_live, -1):
        eff = effects[i]
        if eff.pure and eff.total and not (eff.writes & needed):
            elide.add(i)
        else:
            needed |= eff.reads
    return elide


def gen_task_function(task: str, source: str) -> str:
    """Full ``def`` text for one task's PITS routine.

    Raises :class:`CodegenError` if the routine has static errors — Banger
    refuses to generate code for a design that fails instant feedback.
    Top-level statements the effect analysis proves dead, pure, and total
    are not emitted (the static-reordering gate: only statements with no
    observable effect may move or vanish).
    """
    problems = static_errors(source)
    if problems:
        raise CodegenError(
            f"task {task!r} has static errors: "
            + "; ".join(str(p) for p in problems[:5])
        )
    program = parse(source)
    elide = _elidable_statements(source)
    body = tuple(s for i, s in enumerate(program.body) if i not in elide)
    translator = _Translator(_declared_names(program))
    lines = [f"def {function_name(task)}(env, _display):"]
    doc = f"PITS routine {program.name or task!r}"
    lines.append(f'{_INDENT}"""{doc}."""')
    for name in program.inputs:
        lines.append(f"{_INDENT}{mangle(name)} = env[{name!r}]")
    lines += translator.block(body, 1)
    returns = ", ".join(f"{name!r}: {mangle(name)}" for name in program.outputs)
    lines.append(f"{_INDENT}return {{{returns}}}")
    return "\n".join(lines)
