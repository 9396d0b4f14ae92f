"""Abstract syntax of PITS programs.

A :class:`Program` mirrors the calculator panel of the paper's Figure 4: the
input/output variable window (``inputs``/``outputs``), the local-variable
window (``locals``), and the program window (``body``).  All AST nodes carry
their source line for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# --------------------------------------------------------------------- #
# expressions
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Expr:
    line: int = field(default=0, kw_only=True)


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class Str(Expr):
    value: str


@dataclass(frozen=True)
class Name(Expr):
    ident: str


@dataclass(frozen=True)
class Index(Expr):
    """1-based subscripting: ``v[i]`` or ``A[i, j]``."""

    base: str
    subscripts: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class Unary(Expr):
    op: str = ""  # "-", "+", "not"
    operand: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Binary(Expr):
    op: str = ""  # arithmetic, comparison, "and"/"or"
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Call(Expr):
    func: str = ""
    args: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class ArrayLit(Expr):
    """``[1, 2, 3]`` (vector) or ``[[1, 2], [3, 4]]`` (matrix)."""

    elements: tuple[Expr, ...] = ()


# --------------------------------------------------------------------- #
# statements
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Stmt:
    line: int = field(default=0, kw_only=True)


@dataclass(frozen=True)
class Assign(Stmt):
    """``target := expr`` where target is a Name or Index."""

    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: tuple[Stmt, ...] = ()
    elifs: tuple[tuple[Expr, tuple[Stmt, ...]], ...] = ()
    orelse: tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class For(Stmt):
    """``for var := start to stop [step s] do ... end`` (inclusive stop).

    ``parallel=True`` marks a ``forall`` — the data-parallel variant whose
    iterations are independent (the analyzer enforces disjoint writes), so
    the environment may split the node across processors
    (:mod:`repro.graph.transform`).  Sequential execution is always a valid
    serialization, so the interpreter treats both forms identically.
    """

    var: str = ""
    start: Expr = None  # type: ignore[assignment]
    stop: Expr = None  # type: ignore[assignment]
    step: Expr | None = None
    body: tuple[Stmt, ...] = ()
    parallel: bool = False


@dataclass(frozen=True)
class Repeat(Stmt):
    """``repeat ... until cond`` — body runs at least once."""

    body: tuple[Stmt, ...] = ()
    cond: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class CallStmt(Stmt):
    """A bare call used for effect, e.g. ``display(x)``."""

    call: Call = None  # type: ignore[assignment]


# --------------------------------------------------------------------- #
# program
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Program:
    """A complete PITS routine for one dataflow node."""

    name: str = ""
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    locals: tuple[str, ...] = ()
    body: tuple[Stmt, ...] = ()

    @property
    def declared(self) -> frozenset[str]:
        return frozenset(self.inputs) | frozenset(self.outputs) | frozenset(self.locals)


#: Expression nodes without sub-expressions.
_LEAVES = frozenset((Num, BoolLit, Str, Name))


def _walk_exprs(roots: list[Expr]) -> list[Expr]:
    """All sub-expressions of ``roots``, preorder (each root first), by an
    explicit stack: one list, however deep the tree."""
    out: list[Expr] = []
    stack = roots[::-1]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        node = pop()
        out.append(node)
        kind = type(node)
        if kind in _LEAVES:
            continue
        if kind is Binary:
            push(node.right)
            push(node.left)
        elif kind is Unary:
            push(node.operand)
        elif kind is Call:
            extend(node.args[::-1])
        elif kind is Index:
            extend(node.subscripts[::-1])
        elif kind is ArrayLit:
            extend(node.elements[::-1])
    return out


def walk_exprs(node: Expr) -> list[Expr]:
    """All sub-expressions of ``node``, preorder (node first)."""
    if type(node) in _LEAVES:
        return [node]
    return _walk_exprs([node])


def walk_stmts(stmts: tuple[Stmt, ...]) -> list[Stmt]:
    """All statements, preorder, including nested blocks."""
    out: list[Stmt] = []
    stack = list(stmts[::-1])
    pop, extend = stack.pop, stack.extend
    while stack:
        s = pop()
        out.append(s)
        kind = type(s)
        if kind is If:
            extend(s.orelse[::-1])
            for _, block in s.elifs[::-1]:
                extend(block[::-1])
            extend(s.then[::-1])
        elif kind is For or kind is While or kind is Repeat:
            extend(s.body[::-1])
    return out


def stmt_exprs(s: Stmt) -> list[Expr]:
    """The expressions attached to one statement, each with all of its
    sub-expressions (preorder); not those of nested statements."""
    kind = type(s)
    if kind is Assign:
        roots = [s.value]
        if type(s.target) is Index:
            roots += s.target.subscripts
    elif kind is If:
        roots = [s.cond]
        roots += [cond for cond, _ in s.elifs]
    elif kind is While or kind is Repeat:
        roots = [s.cond]
    elif kind is For:
        roots = [s.start, s.stop] if s.step is None else [s.start, s.stop, s.step]
    elif kind is CallStmt:
        roots = [s.call]
    else:
        return []
    return _walk_exprs(roots)
