"""Unit tests for the Stream SQL tokenizer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParseError
from repro.sql import Token, TokenType, tokenize
from repro.sql.lexer import KEYWORDS


def kinds(text: str) -> list[tuple[TokenType, str]]:
    return [(t.type, t.value) for t in tokenize(text) if t.type is not TokenType.EOF]


class TestBasics:
    def test_keywords_normalised_upper(self):
        assert kinds("select From WHERE")[0] == (TokenType.KEYWORD, "SELECT")
        assert kinds("select From WHERE")[1] == (TokenType.KEYWORD, "FROM")

    def test_identifiers_preserve_case(self):
        assert kinds("SeatSensors")[0] == (TokenType.IDENTIFIER, "SeatSensors")

    def test_qualified_name_is_three_tokens(self):
        tokens = kinds("ss.room")
        assert tokens == [
            (TokenType.IDENTIFIER, "ss"),
            (TokenType.PUNCTUATION, "."),
            (TokenType.IDENTIFIER, "room"),
        ]

    def test_eof_terminates(self):
        tokens = tokenize("x")
        assert tokens[-1].type is TokenType.EOF


class TestNumbers:
    def test_integer(self):
        assert kinds("42")[0] == (TokenType.NUMBER, "42")

    def test_float(self):
        assert kinds("4.25")[0] == (TokenType.NUMBER, "4.25")

    def test_scientific(self):
        assert kinds("1e3")[0] == (TokenType.NUMBER, "1e3")
        assert kinds("2.5E-2")[0] == (TokenType.NUMBER, "2.5E-2")

    def test_number_then_dot_identifier(self):
        # "3.x" must not eat the dot into the number
        tokens = kinds("3 .room")
        assert tokens[0] == (TokenType.NUMBER, "3")


class TestStrings:
    def test_simple(self):
        assert kinds("'open'")[0] == (TokenType.STRING, "open")

    def test_escaped_quote(self):
        assert kinds("'it''s'")[0] == (TokenType.STRING, "it's")

    def test_unterminated_raises_with_position(self):
        with pytest.raises(ParseError) as excinfo:
            tokenize("select 'oops")
        assert excinfo.value.line == 1

    def test_string_keeps_keywords_inside(self):
        assert kinds("'select'")[0] == (TokenType.STRING, "select")


class TestOperatorsAndComments:
    def test_multi_char_operators(self):
        values = [v for _, v in kinds("a <= b >= c != d <> e")]
        assert "<=" in values and ">=" in values and "!=" in values and "<>" in values

    def test_caret_conjunction(self):
        assert (TokenType.OPERATOR, "^") in kinds("a = 1 ^ b = 2")

    def test_comment_to_end_of_line(self):
        tokens = kinds("select -- this is ignored\n x")
        assert (TokenType.IDENTIFIER, "x") in tokens
        assert all("ignored" not in v for _, v in tokens)

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            tokenize("select !")   # lone ! is not an operator

    def test_positions_tracked(self):
        tokens = tokenize("select\n  room")
        room = [t for t in tokens if t.value == "room"][0]
        assert room.line == 2 and room.column == 3

    def test_is_keyword_helper(self):
        token = Token(TokenType.KEYWORD, "SELECT", 1, 1)
        assert token.is_keyword("SELECT", "FROM")
        assert not token.is_keyword("WHERE")

    def test_brackets_for_windows(self):
        values = [v for _, v in kinds("[RANGE 30 SECONDS]")]
        assert values == ["[", "RANGE", "30", "SECONDS", "]"]


def positioned(text: str) -> list[tuple[str, str, int, int]]:
    return [(t.type.name, t.value, t.line, t.column) for t in tokenize(text)]


def error_at(text: str) -> tuple[str, int, int]:
    with pytest.raises(ParseError) as excinfo:
        tokenize(text)
    return str(excinfo.value).split(" at line")[0], excinfo.value.line, excinfo.value.column


class TestEdgeCases:
    """Positions and boundaries the scanner must keep: a tab or a CR is
    one column, a line starts after each LF, and ``str.isalpha`` /
    ``str.isdigit`` decide what a non-ASCII character starts."""

    def test_crlf_and_tabs(self):
        assert positioned("a\r\n\tb") == [
            ("IDENTIFIER", "a", 1, 1), ("IDENTIFIER", "b", 2, 2), ("EOF", "", 2, 3),
        ]

    def test_comment_at_eof_without_newline(self):
        assert positioned("x -- done") == [("IDENTIFIER", "x", 1, 1), ("EOF", "", 1, 10)]

    def test_multiline_string_and_the_position_after_it(self):
        assert positioned("'a\nbc' d") == [
            ("STRING", "a\nbc", 1, 1), ("IDENTIFIER", "d", 2, 5), ("EOF", "", 2, 6),
        ]

    def test_empty_string_and_trailing_escapes(self):
        assert positioned("''") == [("STRING", "", 1, 1), ("EOF", "", 1, 3)]
        assert positioned("'it''s'''") == [("STRING", "it's'", 1, 1), ("EOF", "", 1, 10)]

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1e", [("NUMBER", "1"), ("IDENTIFIER", "e")]),
            ("1.e5", [("NUMBER", "1"), ("PUNCTUATION", "."), ("IDENTIFIER", "e5")]),
            (".5", [("NUMBER", ".5")]),
            ("1.2.3", [("NUMBER", "1.2"), ("NUMBER", ".3")]),
            ("t.5", [("IDENTIFIER", "t"), ("NUMBER", ".5")]),
            ("1e+5e-", [("NUMBER", "1e+5"), ("IDENTIFIER", "e"), ("OPERATOR", "-")]),
        ],
    )
    def test_number_boundaries(self, text, expected):
        assert [(kind, value) for kind, value, _, _ in positioned(text)[:-1]] == expected

    def test_unicode_letters_and_digits(self):
        assert positioned("café") == [("IDENTIFIER", "café", 1, 1), ("EOF", "", 1, 5)]
        # '²' is a digit to str.isdigit, so it starts and continues a number ...
        assert positioned("²") == [("NUMBER", "²", 1, 1), ("EOF", "", 1, 2)]
        assert positioned("1²") == [("NUMBER", "1²", 1, 1), ("EOF", "", 1, 3)]
        # ... while '½' is neither a letter nor a digit.
        assert error_at("½") == ("unexpected character '½'", 1, 1)

    @pytest.mark.parametrize("text", [":", ": x", ":1"])
    def test_colon_without_a_name(self, text):
        assert error_at(text) == ("expected parameter name after ':'", 1, 1)

    def test_parameter_keeps_its_case(self):
        assert positioned("x :limit")[1] == ("PARAMETER", "limit", 1, 3)

    def test_characters_outside_the_dialect(self):
        assert error_at("!") == ("unexpected character '!'", 1, 1)
        assert error_at("a\x0cb") == ("unexpected character '\\x0c'", 1, 2)

    def test_unterminated_string_position(self):
        assert error_at("select\n  'oops") == ("unterminated string literal", 2, 3)
        assert error_at("'a''") == ("unterminated string literal", 1, 1)


# ----------------------------------------------------------------------
# Property: rendered tokens come back where the rendering put them
# ----------------------------------------------------------------------
_NAME = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
_TOKENS = st.one_of(
    st.sampled_from(sorted(KEYWORDS)).flatmap(
        lambda word: st.sampled_from([word, word.lower(), word.title()]).map(
            lambda text: ("KEYWORD", word, text)
        )
    ),
    st.one_of(_NAME.filter(lambda name: name.upper() not in KEYWORDS), st.sampled_from(["café", "Ωmega", "x²"])).map(
        lambda name: ("IDENTIFIER", name, name)
    ),
    st.from_regex(r"(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?", fullmatch=True).map(
        lambda number: ("NUMBER", number, number)
    ),
    st.text().map(lambda value: ("STRING", value, "'" + value.replace("'", "''") + "'")),
    _NAME.map(lambda name: ("PARAMETER", name, ":" + name)),
    st.sampled_from(["<=", ">=", "!=", "<>", "=", "<", ">", "+", "-", "*", "/", "%", "^"]).map(
        lambda op: ("OPERATOR", op, op)
    ),
    st.sampled_from(list("(),.[];")).map(lambda mark: ("PUNCTUATION", mark, mark)),
)
# A separator opens with whitespace, so no two tokens run together and
# no comment follows a '-'.
_COMMENT = st.text().map(lambda text: "--" + text.replace("\n", " "))
_SEPARATOR = st.tuples(
    st.sampled_from(list(" \t\r\n")),
    st.lists(st.one_of(st.text(" \t\r\n", min_size=1), _COMMENT.map(lambda c: c + "\n")), max_size=3),
).map(lambda parts: parts[0] + "".join(parts[1]))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_SEPARATOR, _TOKENS), max_size=12),
    st.one_of(st.just(""), _SEPARATOR, _COMMENT.map(lambda c: " " + c)),
)
def test_rendered_tokens_come_back_at_their_positions(pieces, tail):
    text, expected, line, column = "", [], 1, 1

    def advance(chunk: str) -> None:
        nonlocal line, column
        for ch in chunk:
            line, column = (line + 1, 1) if ch == "\n" else (line, column + 1)

    for separator, (kind, value, rendered) in pieces:
        advance(separator)
        expected.append((kind, value, line, column))
        advance(rendered)
        text += separator + rendered
    advance(tail)
    expected.append(("EOF", "", line, column))
    assert positioned(text + tail) == expected
