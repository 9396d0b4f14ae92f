"""Tokenizer for the PITS calculator language.

One compiled regular expression scans the text; each match is one token,
one skipped run (blanks, a comment) or one character no token can start
with.  A number is ASCII digits only, and a name must satisfy
``str.isidentifier()``: ``²``, ``١٢`` or ``x²`` is a syntax error at the
offending character, never a name or a number the rest of the pipeline
cannot read.
"""

from __future__ import annotations

import re

from repro.calc.tokens import KEYWORDS, OPERATORS, Token, TokenType
from repro.errors import CalcSyntaxError

_SCAN = re.compile(
    r"(\n)"  # 1: newline
    r"|[ \t\r]+"  # blanks: no group
    r"|((?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"  # 2: number
    r"|([^\W\d]\w*)"  # 3: word (checked against str.isidentifier)
    r'|"([^"\n]*)"'  # 4: string
    r"|(" + "|".join(re.escape(op) for op in OPERATORS) + r")"  # 5: operator
    r"|(\#[^\n]*)"  # 6: comment
    r"|(.)"  # 7: a character no token starts with
)

_NEW = tuple.__new__
_NEWLINE, _NUMBER, _IDENT, _KEYWORD, _STRING, _OP = (
    TokenType.NEWLINE, TokenType.NUMBER, TokenType.IDENT, TokenType.KEYWORD,
    TokenType.STRING, TokenType.OP,
)


def _bad_name(word: str, line: int, column: int) -> CalcSyntaxError:
    """The error for a word that is not an identifier: at its first
    character that cannot start or continue one."""
    k = 1
    while word[:k].isidentifier():
        k += 1
    return CalcSyntaxError(f"unexpected character {word[k - 1]!r}", line, column + k - 1)


def tokenize(source: str) -> list[Token]:
    """Convert PITS source text into a token list ending with EOF.

    Comments run from ``#`` to end of line.  Newlines are significant (they
    terminate statements) and are emitted as NEWLINE tokens; consecutive
    blank lines collapse to one.  A comment does not advance the column: the
    NEWLINE (or EOF) after one sits at the ``#``.
    """
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    after_newline = True  # a NEWLINE here would be leading or doubled
    comment_at = -1  # where this line's comment starts, if it has one
    for m in _SCAN.finditer(source):
        group = m.lastindex
        if group is None:
            continue
        text = m.group(group)
        column = m.start() - line_start + 1
        if group == 3:
            low = text.lower()
            if low in KEYWORDS:
                append(_NEW(Token, (_KEYWORD, low, line, column)))
            elif text.isidentifier():
                append(_NEW(Token, (_IDENT, text, line, column)))
            else:
                raise _bad_name(text, line, column)
        elif group == 5:
            append(_NEW(Token, (_OP, text, line, column)))
        elif group == 2:
            append(_NEW(Token, (_NUMBER, text, line, column)))
        elif group == 1:
            if not after_newline:
                if comment_at >= 0:
                    column = comment_at - line_start + 1
                append(_NEW(Token, (_NEWLINE, "\n", line, column)))
                after_newline = True
            line += 1
            line_start = m.end()
            comment_at = -1
            continue
        elif group == 6:
            comment_at = m.start()
            continue
        elif group == 4:
            append(_NEW(Token, (_STRING, text, line, column)))
        elif text == '"':
            raise CalcSyntaxError("unterminated string literal", line, column)
        else:
            raise CalcSyntaxError(f"unexpected character {text!r}", line, column)
        after_newline = False

    end = comment_at if comment_at >= 0 else len(source)
    column = end - line_start + 1
    if not after_newline:
        append(_NEW(Token, (_NEWLINE, "\n", line, column)))
    append(_NEW(Token, (TokenType.EOF, "", line, column)))
    return tokens
