"""Tests for the PITS tokenizer."""

import pytest

from repro.calc import tokenize
from repro.calc.tokens import TokenType
from repro.errors import CalcSyntaxError


def types(source):
    return [t.type for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source) if t.type not in (TokenType.NEWLINE, TokenType.EOF)]


class TestNumbers:
    def test_integer(self):
        assert values("42") == ["42"]

    def test_float(self):
        assert values("3.14") == ["3.14"]

    def test_leading_dot(self):
        assert values(".5") == [".5"]

    def test_scientific(self):
        assert values("1.0e-12") == ["1.0e-12"]
        assert values("2E+3") == ["2E+3"]
        assert values("5e2") == ["5e2"]

    def test_number_then_ident(self):
        assert values("2x") == ["2", "x"]

    def test_e_without_exponent_is_ident(self):
        # "2e" -> number 2 then identifier e (no digits after e)
        assert values("2e") == ["2", "e"]


class TestIdentifiersAndKeywords:
    def test_ident(self):
        toks = tokenize("foo_bar2")
        assert toks[0].type is TokenType.IDENT
        assert toks[0].value == "foo_bar2"

    def test_keywords_case_insensitive(self):
        toks = tokenize("WHILE While while")
        assert all(t.value == "while" for t in toks[:3])
        assert all(t.type is TokenType.KEYWORD for t in toks[:3])

    def test_ident_containing_keyword(self):
        toks = tokenize("endpoint")
        assert toks[0].type is TokenType.IDENT


class TestOperators:
    def test_multichar_greedy(self):
        assert values("a := b <= c >= d <> e") == ["a", ":=", "b", "<=", "c", ">=", "d", "<>", "e"]

    def test_all_single_ops(self):
        assert values("+-*/^%()[],;") == list("+-*/^%()[],") + [";"]

    def test_unknown_char(self):
        with pytest.raises(CalcSyntaxError, match="unexpected character"):
            tokenize("a ? b")


class TestStringsCommentsNewlines:
    def test_string(self):
        toks = tokenize('"hello world"')
        assert toks[0].type is TokenType.STRING
        assert toks[0].value == "hello world"

    def test_unterminated_string(self):
        with pytest.raises(CalcSyntaxError, match="unterminated"):
            tokenize('"oops')

    def test_string_with_newline(self):
        with pytest.raises(CalcSyntaxError, match="unterminated"):
            tokenize('"a\nb"')

    def test_comment_stripped(self):
        assert values("a := 1 # the answer") == ["a", ":=", "1"]

    def test_blank_lines_collapse(self):
        toks = tokenize("a\n\n\nb")
        newlines = [t for t in toks if t.type is TokenType.NEWLINE]
        assert len(newlines) == 2  # one between, one final

    def test_always_ends_with_newline_eof(self):
        toks = tokenize("x")
        assert toks[-2].type is TokenType.NEWLINE
        assert toks[-1].type is TokenType.EOF

    def test_empty_source(self):
        toks = tokenize("")
        assert toks[-1].type is TokenType.EOF


class TestPositions:
    def test_line_column_tracking(self):
        toks = tokenize("a := 1\n  b := 2")
        b = next(t for t in toks if t.value == "b")
        assert (b.line, b.column) == (2, 3)

    def test_error_position(self):
        try:
            tokenize("x := 1\ny ? 2")
        except CalcSyntaxError as exc:
            assert exc.line == 2
            assert exc.column == 3
        else:
            pytest.fail("expected CalcSyntaxError")


class TestLexicalRule:
    """A number is ASCII digits only; a name satisfies ``str.isidentifier()``;
    anything else is a syntax error at its
    own line and column (it used to reach ``float('²')`` in the parser, or
    Python source that ``compile`` rejects)."""

    @pytest.mark.parametrize("source, line, column, char", [
        ("y := ²", 1, 6, "²"),
        ("x²", 1, 2, "²"),
        ("١٢", 1, 1, "١"),
        ("a := 1\nb := 2٣", 2, 7, "٣"),
        ("v := ½", 1, 6, "½"),
        ("x := .²", 1, 6, "."),
    ])
    def test_non_ascii_digits_are_syntax_errors(self, source, line, column, char):
        with pytest.raises(CalcSyntaxError) as info:
            tokenize(source)
        assert (info.value.line, info.value.column) == (line, column)
        assert info.value.message == f"unexpected character {char!r}"

    def test_unicode_letters_make_names(self):
        toks = tokenize("résumé := _é + x٣")
        assert [(t.type, t.value) for t in toks[:5]] == [
            (TokenType.IDENT, "résumé"), (TokenType.OP, ":="),
            (TokenType.IDENT, "_é"), (TokenType.OP, "+"), (TokenType.IDENT, "x٣"),
        ]
        assert all(t.value.isidentifier() for t in toks if t.type is TokenType.IDENT)

    def test_ascii_digit_numbers_still_lex(self):
        assert values("12 3.5 .5 1e3 1.e-2") == ["12", "3.5", ".5", "1e3", "1.e-2"]


class TestCommentColumns:
    def test_newline_after_a_comment_sits_at_the_hash(self):
        toks = tokenize("x := 1   # note\ny")
        newline = toks[3]
        assert newline.type is TokenType.NEWLINE and (newline.line, newline.column) == (1, 10)
        assert (toks[-1].line, toks[-1].column) == (2, 2)
        assert (tokenize("x # tail")[-1].line, tokenize("x # tail")[-1].column) == (1, 3)


class TestTokenType:
    def test_a_token_is_a_light_tuple_that_answers_op_and_keyword(self):
        assign, kw = tokenize("x := 1")[1], tokenize("WHILE")[0]
        assert assign == (TokenType.OP, ":=", 1, 3) and isinstance(assign, tuple)
        assert assign.is_op("+", ":=") and not assign.is_kw(":=")
        assert kw.is_kw("while") and not kw.is_op("while")
        assert repr(assign) == "Token(op, ':=', 1:3)"
