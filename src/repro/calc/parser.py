"""Parser for the PITS calculator language: recursive descent for
statements, precedence climbing for expressions.

Grammar sketch (newline- or ``;``-terminated statements)::

    program  :=  [ "task" IDENT ]  { decl }  { stmt }
    decl     :=  ("input" | "output" | "local") IDENT { "," IDENT }
    stmt     :=  target ":=" expr
              |  "if" expr "then" block { "elif" expr "then" block }
                 [ "else" block ] "end"
              |  "while" expr "do" block "end"
              |  "for" IDENT ":=" expr "to" expr [ "step" expr ] "do" block "end"
              |  "repeat" block "until" expr
              |  IDENT "(" args ")"                  (call for effect)
    target   :=  IDENT [ "[" expr { "," expr } "]" ]

Expression precedence, loosest first: ``or``; ``and``; ``not``; comparisons
(``= <> < <= > >=``); ``+ -``; ``* / %``; unary ``- +``; ``^`` (right
associative); postfix call/index; atoms.
"""

from __future__ import annotations

from repro.calc import ast
from repro.calc.lexer import tokenize
from repro.calc.tokens import Token, TokenType
from repro.errors import CalcSyntaxError
from repro.facts import program_fact

_BLOCK_ENDERS = frozenset(("end", "else", "elif", "until"))
_STATEMENT_ENDS = frozenset((TokenType.NEWLINE, ";"))

#: Binding levels of the infix operators, loosest first.  ``not`` (a prefix
#: operator) sits at 3, between ``and`` and the comparisons; comparisons do
#: not chain.  Unary ``-``/``+``, ``^`` and postfix subscripts bind tighter
#: than every level here and are parsed by :meth:`Parser.parse_unary`.
_LEVEL = {
    "or": 1, "and": 2,
    "=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}
_NOT, _COMPARE, _TIGHTEST = 3, 4, 6

#: Token types whose value is their identity to the parser.
_KEYED = (TokenType.OP, TokenType.KEYWORD)


class Parser:
    """Precedence climbing over a token list.

    ``keys[i]`` is what the parser compares token ``i`` by: an operator's or
    keyword's text, or any other token's type, so that each decision is one
    string or identity test.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.keys = [t.value if t.type in _KEYED else t.type for t in tokens]
        self.pos = 0
        self.last = len(tokens) - 1  # the EOF token, which advance never passes

    # ------------------------------------------------------------------ #
    # token plumbing
    # ------------------------------------------------------------------ #
    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if self.pos < self.last:
            self.pos += 1
        return tok

    def error(self, message: str) -> CalcSyntaxError:
        tok = self.cur
        return CalcSyntaxError(message, tok.line, tok.column)

    def expect(self, key: str) -> Token:
        """The current token, consumed, when it is the operator or keyword
        ``key``; else the syntax error."""
        if self.keys[self.pos] != key:
            raise self.error(f"expected {key!r}, found {self.cur.value!r}")
        return self.advance()

    def expect_ident(self) -> Token:
        if self.keys[self.pos] is not TokenType.IDENT:
            raise self.error(f"expected a name, found {self.cur.value!r}")
        return self.advance()

    def skip_newlines(self) -> None:
        keys = self.keys
        while keys[self.pos] in _STATEMENT_ENDS:
            self.pos += 1

    def end_statement(self) -> None:
        key = self.keys[self.pos]
        if key in _STATEMENT_ENDS:
            self.pos += 1
        # EOF, or a block terminator directly after a one-line statement
        elif key is not TokenType.EOF and key not in _BLOCK_ENDERS:
            raise self.error(f"expected end of statement, found {self.cur.value!r}")

    # ------------------------------------------------------------------ #
    # program structure
    # ------------------------------------------------------------------ #
    def parse_program(self) -> ast.Program:
        self.skip_newlines()
        name = ""
        if self.keys[self.pos] == "task":
            self.advance()
            name = self.expect_ident().value
            self.end_statement()
            self.skip_newlines()

        inputs: list[str] = []
        outputs: list[str] = []
        locals_: list[str] = []
        buckets = {"input": inputs, "output": outputs, "local": locals_}
        while self.keys[self.pos] in buckets:
            bucket = buckets[self.advance().value]
            while True:
                ident = self.expect_ident().value
                if ident in inputs or ident in outputs or ident in locals_:
                    raise self.error(f"variable {ident!r} declared twice")
                bucket.append(ident)
                if self.keys[self.pos] == ",":
                    self.advance()
                    continue
                break
            self.end_statement()
            self.skip_newlines()

        body = self.parse_block(top_level=True)
        if self.keys[self.pos] is not TokenType.EOF:
            raise self.error(f"unexpected {self.cur.value!r}")
        return ast.Program(
            name=name,
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            locals=tuple(locals_),
            body=body,
        )

    def parse_block(self, top_level: bool = False) -> tuple[ast.Stmt, ...]:
        stmts: list[ast.Stmt] = []
        keys = self.keys
        self.skip_newlines()
        while True:
            key = keys[self.pos]
            if key is TokenType.EOF:
                if not top_level:
                    raise self.error("unexpected end of program inside a block")
                break
            if key in _BLOCK_ENDERS:
                if top_level:
                    raise self.error(f"{self.cur.value!r} outside any block")
                break
            stmts.append(self.parse_stmt())
            self.skip_newlines()
        return tuple(stmts)

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #
    def parse_stmt(self) -> ast.Stmt:
        key = self.keys[self.pos]
        if key is TokenType.IDENT:
            return self.parse_assign_or_call()
        if key == "if":
            return self.parse_if()
        if key == "for":
            return self.parse_for()
        if key == "while":
            return self.parse_while()
        if key == "forall":
            return self.parse_forall()
        if key == "repeat":
            return self.parse_repeat()
        raise self.error(f"expected a statement, found {self.cur.value!r}")

    def parse_assign_or_call(self) -> ast.Stmt:
        tok = self.advance()
        key = self.keys[self.pos]
        if key == "(":  # call for effect
            call = self.finish_call(tok)
            self.end_statement()
            return ast.CallStmt(call=call, line=tok.line)
        target: ast.Expr
        if key == "[":
            subs = self.parse_subscripts()
            target = ast.Index(base=tok.value, subscripts=subs, line=tok.line)
        else:
            target = ast.Name(ident=tok.value, line=tok.line)
        self.expect(":=")
        value = self.parse_expr()
        self.end_statement()
        return ast.Assign(target=target, value=value, line=tok.line)

    def parse_if(self) -> ast.Stmt:
        tok = self.advance()
        cond = self.parse_expr()
        self.expect("then")
        then = self.parse_block()
        elifs: list[tuple[ast.Expr, tuple[ast.Stmt, ...]]] = []
        orelse: tuple[ast.Stmt, ...] = ()
        while self.keys[self.pos] == "elif":
            self.advance()
            c = self.parse_expr()
            self.expect("then")
            elifs.append((c, self.parse_block()))
        if self.keys[self.pos] == "else":
            self.advance()
            orelse = self.parse_block()
        self.expect("end")
        self.end_statement()
        return ast.If(cond=cond, then=then, elifs=tuple(elifs), orelse=orelse, line=tok.line)

    def parse_while(self) -> ast.Stmt:
        tok = self.advance()
        cond = self.parse_expr()
        self.expect("do")
        body = self.parse_block()
        self.expect("end")
        self.end_statement()
        return ast.While(cond=cond, body=body, line=tok.line)

    def parse_for(self) -> ast.Stmt:
        tok = self.advance()
        var = self.expect_ident().value
        self.expect(":=")
        start = self.parse_expr()
        self.expect("to")
        stop = self.parse_expr()
        step = None
        if self.keys[self.pos] == "step":
            self.advance()
            step = self.parse_expr()
        self.expect("do")
        body = self.parse_block()
        self.expect("end")
        self.end_statement()
        return ast.For(var=var, start=start, stop=stop, step=step, body=body, line=tok.line)

    def parse_forall(self) -> ast.Stmt:
        """``forall i := e1 to e2 do ... end`` — no step, unit stride."""
        tok = self.advance()
        var = self.expect_ident().value
        self.expect(":=")
        start = self.parse_expr()
        self.expect("to")
        stop = self.parse_expr()
        if self.keys[self.pos] == "step":
            raise self.error("forall does not take a step (iterations are independent)")
        self.expect("do")
        body = self.parse_block()
        self.expect("end")
        self.end_statement()
        return ast.For(
            var=var, start=start, stop=stop, step=None, body=body,
            parallel=True, line=tok.line,
        )

    def parse_repeat(self) -> ast.Stmt:
        tok = self.advance()
        body = self.parse_block()
        self.expect("until")
        cond = self.parse_expr()
        self.end_statement()
        return ast.Repeat(body=body, cond=cond, line=tok.line)

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #
    def parse_expr(self, min_level: int = 1) -> ast.Expr:
        """An expression whose infix operators all bind at ``min_level`` or
        tighter (precedence climbing).

        Each operator's right operand is parsed one level tighter, so every
        level is left-associative; after a comparison only a looser operator
        may follow, and after a ``not`` operand only ``and``/``or``.
        """
        keys = self.keys
        if min_level <= _NOT and keys[self.pos] == "not":
            tok = self.tokens[self.pos]
            self.pos += 1
            left = ast.Unary(op="not", operand=self.parse_expr(_NOT), line=tok.line)
            limit = _NOT - 1
        else:
            left = self.parse_unary()
            limit = _TIGHTEST
        while True:
            level = _LEVEL.get(keys[self.pos])
            if level is None or level < min_level or level > limit:
                return left
            tok = self.tokens[self.pos]
            self.pos += 1
            if level == _TIGHTEST:
                right = self.parse_unary()
            else:
                right = self.parse_expr(level + 1)
            left = ast.Binary(op=tok.value, left=left, right=right, line=tok.line)
            limit = level - 1 if level == _COMPARE else level

    def parse_unary(self) -> ast.Expr:
        """Unary ``-``/``+``, then an atom with its subscripts, then a
        right-associative ``^`` whose exponent may be signed."""
        pos = self.pos
        tok = self.tokens[pos]
        key = self.keys[pos]
        if key == "-" or key == "+":
            self.pos = pos + 1
            return ast.Unary(op=key, operand=self.parse_unary(), line=tok.line)
        base = self.parse_atom(tok, key)
        if self.keys[self.pos] == "^":
            tok = self.tokens[self.pos]
            self.pos += 1
            return ast.Binary(op="^", left=base, right=self.parse_unary(), line=tok.line)
        return base

    def parse_subscripts(self) -> tuple[ast.Expr, ...]:
        self.expect("[")
        subs = [self.parse_expr()]
        while self.keys[self.pos] == ",":
            self.advance()
            subs.append(self.parse_expr())
        self.expect("]")
        if len(subs) > 2:
            raise self.error("at most two subscripts (vector or matrix)")
        return tuple(subs)

    def finish_call(self, name_tok: Token) -> ast.Call:
        self.expect("(")
        args: list[ast.Expr] = []
        if self.keys[self.pos] != ")":
            args.append(self.parse_expr())
            while self.keys[self.pos] == ",":
                self.advance()
                args.append(self.parse_expr())
        self.expect(")")
        return ast.Call(func=name_tok.value.lower(), args=tuple(args), line=name_tok.line)

    def parse_atom(self, tok: Token, key: object) -> ast.Expr:
        """The atom at ``tok`` (the current token); a name, bare or in
        parentheses, takes one ``[...]`` subscript list."""
        if key is TokenType.NUMBER:
            self.pos += 1
            return ast.Num(value=float(tok.value), line=tok.line)
        if key is TokenType.IDENT:
            self.pos += 1
            key = self.keys[self.pos]
            if key == "(":
                return self.finish_call(tok)
            if key == "[":
                return ast.Index(base=tok.value, subscripts=self.parse_subscripts(), line=tok.line)
            return ast.Name(ident=tok.value, line=tok.line)
        if key == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect(")")
            if self.keys[self.pos] == "[" and isinstance(inner, ast.Name):
                subs = self.parse_subscripts()
                return ast.Index(base=inner.ident, subscripts=subs, line=inner.line)
            return inner
        if key is TokenType.STRING:
            self.pos += 1
            return ast.Str(value=tok.value, line=tok.line)
        if key == "true" or key == "false":
            self.pos += 1
            return ast.BoolLit(value=key == "true", line=tok.line)
        if key == "[":
            return self.parse_array_literal()
        raise self.error(f"expected an expression, found {tok.value!r}")

    def parse_array_literal(self) -> ast.Expr:
        tok = self.expect("[")
        elements: list[ast.Expr] = []
        if self.keys[self.pos] != "]":
            elements.append(self.parse_expr())
            while self.keys[self.pos] == ",":
                self.advance()
                elements.append(self.parse_expr())
        self.expect("]")
        return ast.ArrayLit(elements=tuple(elements), line=tok.line)


def parse(source: str) -> ast.Program:
    """Parse PITS source text into a :class:`~repro.calc.ast.Program`.

    Each distinct text is parsed once (:mod:`repro.facts`); the frozen
    ``Program`` is shared by every caller.  A half-typed program is the
    normal state of an editor, so a syntax error is remembered too — as
    ``(message, line, column)``, never as the exception object, whose
    traceback would grow on every re-raise: each call raises a fresh
    :class:`CalcSyntaxError`.

    Pathologically deep nesting is reported as a syntax error rather than
    blowing the Python stack — calculator users deserve a message, not a
    traceback.  (How deep is too deep depends on the caller's own stack;
    the first parse's verdict stands while the text stays in the table.)
    """
    found = program_fact("parse", source, _parse)
    if isinstance(found, ast.Program):
        return found
    raise CalcSyntaxError(*found)


def _parse(source: str) -> ast.Program | tuple[str, int, int]:
    try:
        return Parser(tokenize(source)).parse_program()
    except CalcSyntaxError as exc:
        return exc.message, exc.line, exc.column
    except RecursionError:
        return "expression is nested too deeply", 0, 0


def parse_expression(source: str) -> ast.Expr:
    """Parse a single expression (the calculator panel's ``=`` button)."""
    parser = Parser(tokenize(source))
    parser.skip_newlines()
    try:
        expr = parser.parse_expr()
    except RecursionError:
        raise CalcSyntaxError("expression is nested too deeply") from None
    parser.skip_newlines()
    if parser.keys[parser.pos] is not TokenType.EOF:
        raise parser.error(f"unexpected {parser.cur.value!r} after expression")
    return expr
