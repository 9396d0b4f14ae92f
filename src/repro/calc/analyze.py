"""Static analysis of PITS programs — the "instant feedback" checker.

Principle 3 of the paper: "instant feedback to the user wherever possible
... is believed to be a major contributor to early defect removal."  The
analyzer runs on every edit (see :mod:`repro.env`) and reports *all*
problems at once, each tagged with a severity, a stable rule ID (the
``PITS0xx`` family of :mod:`repro.lint`), and a source line:

* errors — undeclared variables, assignment to inputs, unknown functions,
  wrong arity, an output that is never assigned, locals read before any
  assignment, scalar/array kind mismatches;
* warnings — variables that are never used, shadowed constants, statements
  that run after every output is already final.

The ``Diagnostic`` string format predates the rule registry and is kept
stable (``"error: line 3: ..."``); rule IDs surface through the
:mod:`repro.lint` renderers (text/JSON/SARIF).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.calc import ast
from repro.calc.builtins import CONSTANTS, lookup
from repro.calc.parser import parse
from repro.errors import CalcSyntaxError
from repro.facts import program_fact

# Compatibility alias: the canonical definition moved to repro.severity so
# the lint layer no longer reaches into the calculator for a shared enum.
from repro.severity import Severity

__all__ = ["Severity", "Diagnostic", "analyze", "errors", "is_clean"]


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    message: str
    line: int = 0
    rule: str = ""

    def __str__(self) -> str:
        where = f"line {self.line}: " if self.line else ""
        return f"{self.severity.value}: {where}{self.message}"


def _array_call(e: ast.Expr) -> bool:
    """A call whose result is an array (evidence for kind inference)."""
    builtin = lookup(e.func) if isinstance(e, ast.Call) else None
    return builtin is not None and builtin.returns_array


def _is_constant(name: str) -> bool:
    return name in CONSTANTS or (name.lower() == name and name.upper() in CONSTANTS)


def analyze(program: ast.Program | str) -> list[Diagnostic]:
    """Return every diagnostic for a PITS program (empty list = clean).

    Accepts source text (syntax errors become a single ERROR diagnostic)
    or an already parsed program.  When source text is given, inline
    suppression comments are honored: ``# lint: disable=PITS016`` silences
    the named rule(s) on that line (or, on a comment-only line, on the
    following line), and ``# lint: disable-file=PITS007`` silences them for
    the whole program.

    Source text is analyzed once per distinct text (:mod:`repro.facts`);
    the list returned is the caller's own.  A parsed program is analyzed
    directly.
    """
    if isinstance(program, str):
        return list(program_fact("analyze", program, _analyze_source))
    return _analyze(program)


def _analyze_source(source: str) -> tuple[Diagnostic, ...]:
    try:
        program = parse(source)
    except CalcSyntaxError as exc:
        return (Diagnostic(Severity.ERROR, str(exc), exc.line, rule="PITS001"),)
    return tuple(_apply_suppressions(source, _analyze(program, source)))


def _analyze(program: ast.Program, source: str | None = None) -> list[Diagnostic]:
    """Every diagnostic for a parsed program; ``source``, when the program
    came from text, lets the value-flow pass share that text's entry."""
    diags: list[Diagnostic] = []
    declared = program.declared
    assigned: set[str] = set(program.inputs)
    used: set[str] = set()
    loop_vars: set[str] = set()

    for name in program.inputs:
        if _is_constant(name):
            diags.append(
                Diagnostic(
                    Severity.WARNING,
                    f"input {name!r} shadows a constant",
                    rule="PITS009",
                )
            )

    stmts = ast.walk_stmts(program.body)
    for s in stmts:
        if isinstance(s, ast.For):
            loop_vars.add(s.var)

    all_vars = declared | loop_vars

    for s in stmts:
        for e in ast.stmt_exprs(s):
            if isinstance(e, ast.Name):
                if e.ident not in all_vars and not _is_constant(e.ident):
                    diags.append(
                        Diagnostic(
                            Severity.ERROR,
                            f"variable {e.ident!r} is not declared",
                            e.line,
                            rule="PITS002",
                        )
                    )
                used.add(e.ident)
            elif isinstance(e, ast.Index):
                if e.base not in all_vars and not _is_constant(e.base):
                    diags.append(
                        Diagnostic(
                            Severity.ERROR,
                            f"variable {e.base!r} is not declared",
                            e.line,
                            rule="PITS002",
                        )
                    )
                used.add(e.base)
            elif isinstance(e, ast.Call):
                if e.func == "display":
                    continue
                builtin = lookup(e.func)
                if builtin is None:
                    diags.append(
                        Diagnostic(
                            Severity.ERROR,
                            f"unknown function {e.func!r}",
                            e.line,
                            rule="PITS004",
                        )
                    )
                elif not builtin.check_arity(len(e.args)):
                    expected = (
                        str(builtin.min_args)
                        if builtin.min_args == builtin.max_args
                        else f"{builtin.min_args}..{builtin.max_args}"
                    )
                    diags.append(
                        Diagnostic(
                            Severity.ERROR,
                            f"{e.func}() takes {expected} argument(s), got {len(e.args)}",
                            e.line,
                            rule="PITS005",
                        )
                    )

        if isinstance(s, ast.Assign):
            target = s.target
            name = target.ident if isinstance(target, ast.Name) else target.base  # type: ignore[union-attr]
            if name in program.inputs:
                diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        f"input {name!r} is read-only",
                        s.line,
                        rule="PITS003",
                    )
                )
            elif name not in all_vars:
                diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        f"variable {name!r} is not declared "
                        "(add it to output or local)",
                        s.line,
                        rule="PITS002",
                    )
                )
            assigned.add(name)
            if isinstance(target, ast.Index):
                used.add(name)  # subscripted write reads the array too
        elif isinstance(s, ast.For):
            if s.var in program.inputs:
                diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        f"loop variable {s.var!r} is an input",
                        s.line,
                        rule="PITS010",
                    )
                )
            assigned.add(s.var)

    # forall bodies must have independent iterations: every write inside
    # must target an array element whose first subscript is the loop
    # variable itself, so iterations touch disjoint locations
    for s in stmts:
        if isinstance(s, ast.For) and s.parallel:
            diags.extend(_check_forall(s))

    for name in program.outputs:
        if name not in assigned:
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    f"output {name!r} is never assigned",
                    rule="PITS006",
                )
            )
    for name in program.inputs:
        if name not in used:
            diags.append(
                Diagnostic(
                    Severity.WARNING,
                    f"input {name!r} is never used",
                    rule="PITS007",
                )
            )
    for name in program.locals:
        if name not in used and name not in assigned:
            diags.append(
                Diagnostic(
                    Severity.WARNING,
                    f"local {name!r} is never used",
                    rule="PITS008",
                )
            )

    diags.extend(_check_read_before_assign(program))
    diags.extend(_check_kinds(program, loop_vars))
    diags.extend(_check_dead_statements(program))

    # value-flow analysis (PITS1xx) — only meaningful once the program is
    # scope/kind clean, so it runs behind the error gate
    if not any(d.severity is Severity.ERROR for d in diags):
        from repro.analysis.absint import interpret

        diags.extend(interpret(source if source is not None else program).diagnostics)

    return diags


def _check_forall(loop: ast.For) -> list[Diagnostic]:
    """Disjoint-write rules for ``forall`` bodies."""
    diags: list[Diagnostic] = []
    for inner in ast.walk_stmts(loop.body):
        if isinstance(inner, ast.Assign):
            target = inner.target
            if isinstance(target, ast.Name):
                diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        f"forall body assigns scalar {target.ident!r}; only "
                        f"elements indexed by {loop.var!r} may be written",
                        inner.line,
                        rule="PITS011",
                    )
                )
            elif isinstance(target, ast.Index):
                first = target.subscripts[0] if target.subscripts else None
                if not (isinstance(first, ast.Name) and first.ident == loop.var):
                    diags.append(
                        Diagnostic(
                            Severity.ERROR,
                            f"forall body writes {target.base!r} with first "
                            f"subscript not {loop.var!r}; iterations must "
                            "write disjoint elements",
                            inner.line,
                            rule="PITS012",
                        )
                    )
        elif isinstance(inner, ast.For) and inner.parallel:
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    "nested forall is not supported; make the inner loop a "
                    "plain for",
                    inner.line,
                    rule="PITS013",
                )
            )
        elif isinstance(inner, ast.CallStmt) and inner.call.func == "display":
            diags.append(
                Diagnostic(
                    Severity.WARNING,
                    "display inside forall prints in nondeterministic order "
                    "once the node is split",
                    inner.line,
                    rule="PITS014",
                )
            )
    return diags


def _check_read_before_assign(program: ast.Program) -> list[Diagnostic]:
    """Flag locals that are read at a point no assignment can precede.

    Statements are walked in execution order (``repeat`` bodies before their
    conditions, loop bounds before bodies).  Branches are treated as
    *may-assign*: a variable assigned in any arm of an ``if`` counts as
    assigned afterwards, so only reads that are unreachable by every path
    are flagged — conservative, no false positives from branchy code.
    """
    local_vars = set(program.locals)
    diags: list[Diagnostic] = []
    reported: set[str] = set()

    def read(name: str, line: int, assigned: set[str]) -> None:
        if name in local_vars and name not in assigned and name not in reported:
            reported.add(name)
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    f"local {name!r} is read before it is assigned",
                    line,
                    rule="PITS015",
                )
            )

    def read_expr(e: ast.Expr, assigned: set[str]) -> None:
        for sub in ast.walk_exprs(e):
            if isinstance(sub, ast.Name):
                read(sub.ident, sub.line, assigned)
            elif isinstance(sub, ast.Index):
                read(sub.base, sub.line, assigned)

    def visit(stmts: tuple[ast.Stmt, ...], assigned: set[str]) -> set[str]:
        for s in stmts:
            if isinstance(s, ast.Assign):
                read_expr(s.value, assigned)
                if isinstance(s.target, ast.Index):
                    for sub in s.target.subscripts:
                        read_expr(sub, assigned)
                    # writing one element reads (requires) the whole array
                    read(s.target.base, s.line, assigned)
                    assigned.add(s.target.base)
                else:
                    assigned.add(s.target.ident)  # type: ignore[union-attr]
            elif isinstance(s, ast.If):
                read_expr(s.cond, assigned)
                for cond, _ in s.elifs:
                    read_expr(cond, assigned)
                branch_assigns: set[str] = set()
                for block in (s.then, *(b for _, b in s.elifs), s.orelse):
                    branch_assigns |= visit(block, set(assigned))
                assigned |= branch_assigns
            elif isinstance(s, ast.While):
                read_expr(s.cond, assigned)
                assigned |= visit(s.body, set(assigned))
            elif isinstance(s, ast.For):
                read_expr(s.start, assigned)
                read_expr(s.stop, assigned)
                if s.step is not None:
                    read_expr(s.step, assigned)
                assigned.add(s.var)
                assigned |= visit(s.body, set(assigned))
            elif isinstance(s, ast.Repeat):
                body_assigned = visit(s.body, set(assigned))
                read_expr(s.cond, body_assigned)
                assigned |= body_assigned
            elif isinstance(s, ast.CallStmt):
                read_expr(s.call, assigned)
        return assigned

    visit(program.body, set(program.inputs))
    return diags


def _check_kinds(program: ast.Program, loop_vars: set[str]) -> list[Diagnostic]:
    """Scalar-vs-array kind inference with mismatch errors.

    Evidence is deliberately conservative: a variable is *array-like* when
    it is subscripted or whole-assigned from an array constructor / literal,
    *scalar-only* when its whole-variable assignments are all scalar
    literals.  Only contradictions are reported.
    """
    diags: list[Diagnostic] = []
    indexed: dict[str, int] = {}          # var -> first line used as v[...]
    scalar_assigned: dict[str, int] = {}  # var -> line of a scalar-literal assign
    array_assigned: set[str] = set()

    for s in ast.walk_stmts(program.body):
        for sub in ast.stmt_exprs(s):  # nested sub-expressions included
            if isinstance(sub, ast.Index):
                indexed.setdefault(sub.base, sub.line)
        if isinstance(s, ast.Assign):
            if isinstance(s.target, ast.Index):
                indexed.setdefault(s.target.base, s.line)
            elif isinstance(s.target, ast.Name):
                value = s.value
                if isinstance(value, (ast.Num, ast.BoolLit, ast.Str)):
                    scalar_assigned.setdefault(s.target.ident, s.line)
                elif isinstance(value, ast.ArrayLit) or _array_call(value):
                    array_assigned.add(s.target.ident)
                elif isinstance(value, ast.Binary):
                    # e.g. ``C := matmul(A, B) + matmul(C, D)`` is array-like
                    parts = (value.left, value.right)
                    if any(
                        _array_call(p) or isinstance(p, ast.ArrayLit) for p in parts
                    ):
                        array_assigned.add(s.target.ident)

    for var, line in sorted(indexed.items(), key=lambda kv: kv[1]):
        if var in loop_vars:
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    f"loop variable {var!r} is a scalar but is subscripted "
                    "like an array",
                    line,
                    rule="PITS016",
                )
            )
        elif (
            var in scalar_assigned
            and var not in array_assigned
            and var not in program.inputs
        ):
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    f"variable {var!r} is subscripted like an array but is "
                    "only ever assigned a scalar",
                    line,
                    rule="PITS016",
                )
            )
    return diags


def _stmt_matters(s: ast.Stmt, outputs: frozenset[str]) -> bool:
    """True when ``s`` (or anything nested in it) can still affect a result:
    it assigns an output variable or performs I/O (a bare call)."""
    for inner in ast.walk_stmts((s,)):
        if isinstance(inner, ast.Assign):
            target = inner.target
            name = target.ident if isinstance(target, ast.Name) else target.base  # type: ignore[union-attr]
            if name in outputs:
                return True
        elif isinstance(inner, ast.CallStmt):
            return True
    return False


def _check_dead_statements(program: ast.Program) -> list[Diagnostic]:
    """Warn about top-level statements after every output is finalized."""
    outputs = frozenset(program.outputs)
    if not outputs:
        return []
    last_live = -1
    for i, s in enumerate(program.body):
        if _stmt_matters(s, outputs):
            last_live = i
    if last_live < 0:  # no output ever assigned: PITS006 already fired
        return []
    return [
        Diagnostic(
            Severity.WARNING,
            "statement runs after every output is already final and cannot "
            "affect the result",
            s.line,
            rule="PITS017",
        )
        for s in program.body[last_live + 1:]
    ]


#: ``# lint: disable=RULE1,RULE2`` / ``# lint: disable-file=RULE``.
_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\s]+)"
)


def _apply_suppressions(
    source: str, diags: list[Diagnostic]
) -> list[Diagnostic]:
    """Drop diagnostics silenced by inline ``# lint: disable=`` comments."""
    per_line: dict[int, set[str]] = {}
    whole_file: set[str] = set()
    for lineno, text in enumerate(source.splitlines(), 1):
        m = _SUPPRESS_RE.search(text)
        if m is None:
            continue
        rules = {r.strip().upper() for r in m.group(2).split(",") if r.strip()}
        if m.group(1) == "disable-file":
            whole_file |= rules
        else:
            per_line.setdefault(lineno, set()).update(rules)
            if not text[: text.index("#")].strip():
                # a comment-only directive governs the line below it
                per_line.setdefault(lineno + 1, set()).update(rules)
    if not per_line and not whole_file:
        return diags
    return [
        d
        for d in diags
        if d.rule not in whole_file
        and not (d.line and d.rule in per_line.get(d.line, ()))
    ]


def errors(program: ast.Program | str) -> list[Diagnostic]:
    return [d for d in analyze(program) if d.severity is Severity.ERROR]


def is_clean(program: ast.Program | str) -> bool:
    """True when the program has no ERROR-severity diagnostics."""
    return not errors(program)
