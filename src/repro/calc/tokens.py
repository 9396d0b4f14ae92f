"""Token types of the PITS calculator language.

The language is deliberately small — the paper wants "simple programming
constructs, scientific and engineering functions, constants, and formulas"
that a scientist can enter from a button panel.  Keywords are case-insensitive
on input and canonicalised to lower case.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenType(enum.Enum):
    # Members are singletons compared by identity, so identity can hash them
    # too: the parser hashes a token type per token, and ``Enum.__hash__``
    # is a Python-level call.
    __hash__ = object.__hash__

    NUMBER = "number"
    STRING = "string"
    IDENT = "ident"
    KEYWORD = "keyword"
    OP = "op"
    NEWLINE = "newline"
    EOF = "eof"


#: Reserved words of the PITS language.
KEYWORDS = frozenset(
    {
        "task",
        "input",
        "output",
        "local",
        "if",
        "then",
        "else",
        "elif",
        "end",
        "while",
        "do",
        "for",
        "forall",
        "to",
        "step",
        "repeat",
        "until",
        "and",
        "or",
        "not",
        "true",
        "false",
    }
)

#: Multi-character operators, longest first so the lexer can match greedily.
OPERATORS = (
    ":=",
    "<=",
    ">=",
    "<>",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "^",
    "%",
    "(",
    ")",
    "[",
    "]",
    ",",
    ";",
)


class Token(NamedTuple):
    """One lexeme with its 1-based source position.

    A named tuple, so that the lexer builds one at the cost of a tuple: a
    program's tokens are built on every cold parse.
    """

    type: TokenType
    value: str
    line: int
    column: int

    def is_op(self, *ops: str) -> bool:
        return self.type is TokenType.OP and self.value in ops

    def is_kw(self, *kws: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in kws

    def __repr__(self) -> str:
        return f"Token({self.type.value}, {self.value!r}, {self.line}:{self.column})"
