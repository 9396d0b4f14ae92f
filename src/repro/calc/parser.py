"""Recursive-descent parser for the PITS calculator language.

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

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")
_BLOCK_ENDERS = ("end", "else", "elif", "until")


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------------ #
    # token plumbing
    # ------------------------------------------------------------------ #
    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        if tok.type is not TokenType.EOF:
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> CalcSyntaxError:
        tok = tok or self.cur
        return CalcSyntaxError(message, tok.line, tok.column)

    def expect_op(self, op: str) -> Token:
        if not self.cur.is_op(op):
            raise self.error(f"expected {op!r}, found {self.cur.value!r}")
        return self.advance()

    def expect_kw(self, kw: str) -> Token:
        if not self.cur.is_kw(kw):
            raise self.error(f"expected {kw!r}, found {self.cur.value!r}")
        return self.advance()

    def expect_ident(self) -> Token:
        if self.cur.type is not TokenType.IDENT:
            raise self.error(f"expected a name, found {self.cur.value!r}")
        return self.advance()

    def skip_newlines(self) -> None:
        while self.cur.type is TokenType.NEWLINE or self.cur.is_op(";"):
            self.advance()

    def end_statement(self) -> None:
        if self.cur.type is TokenType.EOF:
            return
        if self.cur.type is TokenType.NEWLINE or self.cur.is_op(";"):
            self.advance()
            return
        # block terminators may directly follow a one-line statement
        if self.cur.is_kw(*_BLOCK_ENDERS):
            return
        raise self.error(f"expected end of statement, found {self.cur.value!r}")

    # ------------------------------------------------------------------ #
    # program structure
    # ------------------------------------------------------------------ #
    def parse_program(self) -> ast.Program:
        self.skip_newlines()
        name = ""
        if self.cur.is_kw("task"):
            self.advance()
            name = self.expect_ident().value
            self.end_statement()
            self.skip_newlines()

        inputs: list[str] = []
        outputs: list[str] = []
        locals_: list[str] = []
        buckets = {"input": inputs, "output": outputs, "local": locals_}
        while self.cur.is_kw("input", "output", "local"):
            kind = self.advance().value
            bucket = buckets[kind]
            while True:
                ident = self.expect_ident().value
                if any(ident in b for b in buckets.values()):
                    raise self.error(f"variable {ident!r} declared twice")
                bucket.append(ident)
                if self.cur.is_op(","):
                    self.advance()
                    continue
                break
            self.end_statement()
            self.skip_newlines()

        body = self.parse_block(top_level=True)
        if self.cur.type is not TokenType.EOF:
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
        self.skip_newlines()
        while True:
            if self.cur.type is TokenType.EOF:
                if not top_level:
                    raise self.error("unexpected end of program inside a block")
                break
            if self.cur.is_kw(*_BLOCK_ENDERS):
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
        tok = self.cur
        if tok.is_kw("if"):
            return self.parse_if()
        if tok.is_kw("while"):
            return self.parse_while()
        if tok.is_kw("for"):
            return self.parse_for()
        if tok.is_kw("forall"):
            return self.parse_forall()
        if tok.is_kw("repeat"):
            return self.parse_repeat()
        if tok.type is TokenType.IDENT:
            return self.parse_assign_or_call()
        raise self.error(f"expected a statement, found {tok.value!r}")

    def parse_assign_or_call(self) -> ast.Stmt:
        tok = self.expect_ident()
        if self.cur.is_op("("):  # call for effect
            call = self.finish_call(tok)
            self.end_statement()
            return ast.CallStmt(call=call, line=tok.line)
        target: ast.Expr
        if self.cur.is_op("["):
            subs = self.parse_subscripts()
            target = ast.Index(base=tok.value, subscripts=subs, line=tok.line)
        else:
            target = ast.Name(ident=tok.value, line=tok.line)
        self.expect_op(":=")
        value = self.parse_expr()
        self.end_statement()
        return ast.Assign(target=target, value=value, line=tok.line)

    def parse_if(self) -> ast.Stmt:
        tok = self.expect_kw("if")
        cond = self.parse_expr()
        self.expect_kw("then")
        then = self.parse_block()
        elifs: list[tuple[ast.Expr, tuple[ast.Stmt, ...]]] = []
        orelse: tuple[ast.Stmt, ...] = ()
        while self.cur.is_kw("elif"):
            self.advance()
            c = self.parse_expr()
            self.expect_kw("then")
            elifs.append((c, self.parse_block()))
        if self.cur.is_kw("else"):
            self.advance()
            orelse = self.parse_block()
        self.expect_kw("end")
        self.end_statement()
        return ast.If(cond=cond, then=then, elifs=tuple(elifs), orelse=orelse, line=tok.line)

    def parse_while(self) -> ast.Stmt:
        tok = self.expect_kw("while")
        cond = self.parse_expr()
        self.expect_kw("do")
        body = self.parse_block()
        self.expect_kw("end")
        self.end_statement()
        return ast.While(cond=cond, body=body, line=tok.line)

    def parse_for(self) -> ast.Stmt:
        tok = self.expect_kw("for")
        var = self.expect_ident().value
        self.expect_op(":=")
        start = self.parse_expr()
        self.expect_kw("to")
        stop = self.parse_expr()
        step = None
        if self.cur.is_kw("step"):
            self.advance()
            step = self.parse_expr()
        self.expect_kw("do")
        body = self.parse_block()
        self.expect_kw("end")
        self.end_statement()
        return ast.For(var=var, start=start, stop=stop, step=step, body=body, line=tok.line)

    def parse_forall(self) -> ast.Stmt:
        """``forall i := e1 to e2 do ... end`` — no step, unit stride."""
        tok = self.expect_kw("forall")
        var = self.expect_ident().value
        self.expect_op(":=")
        start = self.parse_expr()
        self.expect_kw("to")
        stop = self.parse_expr()
        if self.cur.is_kw("step"):
            raise self.error("forall does not take a step (iterations are independent)")
        self.expect_kw("do")
        body = self.parse_block()
        self.expect_kw("end")
        self.end_statement()
        return ast.For(
            var=var, start=start, stop=stop, step=None, body=body,
            parallel=True, line=tok.line,
        )

    def parse_repeat(self) -> ast.Stmt:
        tok = self.expect_kw("repeat")
        body = self.parse_block()
        self.expect_kw("until")
        cond = self.parse_expr()
        self.end_statement()
        return ast.Repeat(body=body, cond=cond, line=tok.line)

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #
    def parse_expr(self) -> ast.Expr:
        return self.parse_or()

    def parse_or(self) -> ast.Expr:
        left = self.parse_and()
        while self.cur.is_kw("or"):
            tok = self.advance()
            right = self.parse_and()
            left = ast.Binary(op="or", left=left, right=right, line=tok.line)
        return left

    def parse_and(self) -> ast.Expr:
        left = self.parse_not()
        while self.cur.is_kw("and"):
            tok = self.advance()
            right = self.parse_not()
            left = ast.Binary(op="and", left=left, right=right, line=tok.line)
        return left

    def parse_not(self) -> ast.Expr:
        if self.cur.is_kw("not"):
            tok = self.advance()
            return ast.Unary(op="not", operand=self.parse_not(), line=tok.line)
        return self.parse_comparison()

    def parse_comparison(self) -> ast.Expr:
        left = self.parse_additive()
        if self.cur.is_op(*_COMPARISONS):
            tok = self.advance()
            right = self.parse_additive()
            return ast.Binary(op=tok.value, left=left, right=right, line=tok.line)
        return left

    def parse_additive(self) -> ast.Expr:
        left = self.parse_multiplicative()
        while self.cur.is_op("+", "-"):
            tok = self.advance()
            right = self.parse_multiplicative()
            left = ast.Binary(op=tok.value, left=left, right=right, line=tok.line)
        return left

    def parse_multiplicative(self) -> ast.Expr:
        left = self.parse_unary()
        while self.cur.is_op("*", "/", "%"):
            tok = self.advance()
            right = self.parse_unary()
            left = ast.Binary(op=tok.value, left=left, right=right, line=tok.line)
        return left

    def parse_unary(self) -> ast.Expr:
        if self.cur.is_op("-", "+"):
            tok = self.advance()
            return ast.Unary(op=tok.value, operand=self.parse_unary(), line=tok.line)
        return self.parse_power()

    def parse_power(self) -> ast.Expr:
        base = self.parse_postfix()
        if self.cur.is_op("^"):
            tok = self.advance()
            # right-associative: a ^ b ^ c == a ^ (b ^ c); exponent may be
            # signed, so re-enter at unary level
            exponent = self.parse_unary()
            return ast.Binary(op="^", left=base, right=exponent, line=tok.line)
        return base

    def parse_postfix(self) -> ast.Expr:
        atom = self.parse_atom()
        while True:
            if self.cur.is_op("[") and isinstance(atom, ast.Name):
                subs = self.parse_subscripts()
                atom = ast.Index(base=atom.ident, subscripts=subs, line=atom.line)
            else:
                return atom

    def parse_subscripts(self) -> tuple[ast.Expr, ...]:
        self.expect_op("[")
        subs = [self.parse_expr()]
        while self.cur.is_op(","):
            self.advance()
            subs.append(self.parse_expr())
        self.expect_op("]")
        if len(subs) > 2:
            raise self.error("at most two subscripts (vector or matrix)")
        return tuple(subs)

    def finish_call(self, name_tok: Token) -> ast.Call:
        self.expect_op("(")
        args: list[ast.Expr] = []
        if not self.cur.is_op(")"):
            args.append(self.parse_expr())
            while self.cur.is_op(","):
                self.advance()
                args.append(self.parse_expr())
        self.expect_op(")")
        return ast.Call(func=name_tok.value.lower(), args=tuple(args), line=name_tok.line)

    def parse_atom(self) -> ast.Expr:
        tok = self.cur
        if tok.type is TokenType.NUMBER:
            self.advance()
            return ast.Num(value=float(tok.value), line=tok.line)
        if tok.type is TokenType.STRING:
            self.advance()
            return ast.Str(value=tok.value, line=tok.line)
        if tok.is_kw("true"):
            self.advance()
            return ast.BoolLit(value=True, line=tok.line)
        if tok.is_kw("false"):
            self.advance()
            return ast.BoolLit(value=False, line=tok.line)
        if tok.type is TokenType.IDENT:
            self.advance()
            if self.cur.is_op("("):
                return self.finish_call(tok)
            return ast.Name(ident=tok.value, line=tok.line)
        if tok.is_op("("):
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if tok.is_op("["):
            return self.parse_array_literal()
        raise self.error(f"expected an expression, found {tok.value!r}")

    def parse_array_literal(self) -> ast.Expr:
        tok = self.expect_op("[")
        elements: list[ast.Expr] = []
        if not self.cur.is_op("]"):
            elements.append(self.parse_expr())
            while self.cur.is_op(","):
                self.advance()
                elements.append(self.parse_expr())
        self.expect_op("]")
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
    if parser.cur.type is not TokenType.EOF:
        raise parser.error(f"unexpected {parser.cur.value!r} after expression")
    return expr
