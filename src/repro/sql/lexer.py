"""Tokenizer for ASPEN Stream SQL.

The dialect is SQL-92 SELECT syntax plus the stream extensions the paper
uses: window clauses in brackets, ``CREATE VIEW``, ``WITH RECURSIVE``
for transitive-closure queries, ``OUTPUT TO DISPLAY`` for routing
results, ``^`` as an alternative spelling of ``AND`` (the paper's
Figure 1 writes its demo query with ``^``), and named parameters
(``:name``) for prepared statements.

Comments: ``--`` to end of line. Whitespace: exactly space, tab, CR and
LF. String literals: single quotes with ``''`` as the escape for a
quote. Identifiers are case-preserved; keywords are recognised
case-insensitively and normalised to upper case. A number is digits
with at most one ``.`` before an optional exponent; a ``.`` followed by
a digit starts one.

The scanner is one compiled master pattern (:data:`_MASTER`) matched at
the current offset in a loop: each match is one token, or one run of
whitespace and comments, named by its group. The line advances by the
newlines a skipped run or a string literal holds, and a column is the
offset from the last newline, so a tab or a CR is one column. The
pattern's classes are ASCII except ``\\w``, which is exactly
``str.isalnum()`` or ``_`` — what an identifier continues with. Where a
non-ASCII character could decide a token (one starts with it, or it
follows a number or a ``.`` within three characters) and at every error,
the pattern falls to its last group, and :func:`_slow_token` scans that
one token with ``str.isalpha`` / ``str.isdigit``, which define letters
and digits here: '²' starts a number, '½' nothing.
"""

from __future__ import annotations

import enum
import re
from functools import partial
from typing import NamedTuple

from repro.errors import ParseError


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    PARAMETER = "parameter"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "ASC",
        "DESC", "LIMIT", "AS", "AND", "OR", "NOT", "LIKE", "IS", "NULL",
        "TRUE", "FALSE", "CREATE", "VIEW", "WITH", "RECURSIVE", "UNION",
        "ALL", "DISTINCT", "RANGE", "ROWS", "SLIDE", "SECONDS", "NOW",
        "UNBOUNDED", "OUTPUT", "TO", "DISPLAY", "EVERY", "ON", "JOIN",
        "INNER", "INSERT", "INTO", "VALUES",
    }
)


class Token(NamedTuple):
    """One lexical token with its source position (1-based)."""

    type: TokenType
    value: str
    line: int
    column: int

    def is_keyword(self, *words: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in words

    def __repr__(self) -> str:
        return f"{self.type.value}:{self.value!r}@{self.line}:{self.column}"


#: ``Token`` from one ``(type, value, line, column)`` tuple, without the
#: generated ``__new__``'s frame.
_token = partial(tuple.__new__, Token)

_MASTER = re.compile(
    r"(?P<skip>(?:[ \t\r\n]+|--[^\n]*)+)"
    r"|(?P<string>'[^']*(?:''[^']*)*'(?!'))"
    # Atomic, so a non-ASCII character within three after it sends the
    # whole number to the slow path instead of a shorter match.
    r"|(?P<number>(?>(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"(?![\x00-\x7f]{0,2}[^\x00-\x7f]))"
    r"|(?P<word>[A-Za-z_]\w*)"
    r"|:(?P<parameter>[A-Za-z_]\w*)"
    r"|(?P<operator>[<>!]=|<>|[=<>+\-*/%^])"
    r"|(?P<punctuation>[(),\[\];]|\.(?![0-9]|[^\x00-\x7f]))"
    r"|(?P<slow>[\s\S])"
)
_WORD = re.compile(r"\w+")
_KINDS = {
    "number": TokenType.NUMBER,
    "parameter": TokenType.PARAMETER,
    "operator": TokenType.OPERATOR,
    "punctuation": TokenType.PUNCTUATION,
}


def tokenize(text: str) -> list[Token]:
    """Scan the whole input, returning tokens ending with EOF."""
    tokens: list[Token] = []
    append = tokens.append
    match = _MASTER.match
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        found = match(text, pos)
        kind, end = found.lastgroup, found.end()
        column = pos - line_start + 1
        if kind == "word":
            value = found[0]
            upper = value.upper()
            if upper in KEYWORDS:
                append(_token((TokenType.KEYWORD, upper, line, column)))
            else:
                append(_token((TokenType.IDENTIFIER, value, line, column)))
        elif kind == "skip" or kind == "string":
            if kind == "string":
                value = text[pos + 1 : end - 1].replace("''", "'")
                append(_token((TokenType.STRING, value, line, column)))
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, end) + 1
        elif kind == "slow":
            kind, value, end = _slow_token(text, pos, line, column)
            append(_token((kind, value, line, column)))
        else:
            append(_token((_KINDS[kind], found[kind], line, column)))
        pos = end
    append(_token((TokenType.EOF, "", line, pos - line_start + 1)))
    return tokens


def _slow_token(text: str, pos: int, line: int, column: int) -> tuple[TokenType, str, int]:
    """The token at ``pos`` the master pattern left to ``str``'s own
    predicates, as ``(type, value, end)``, or the error it is."""
    ch, after = text[pos], text[pos + 1 : pos + 2]
    if ch == "'":  # the pattern matches every terminated literal
        raise ParseError("unterminated string literal", line, column)
    if ch.isdigit() or (ch == "." and after.isdigit()):
        end = _number_end(text, pos)
        return TokenType.NUMBER, text[pos:end], end
    if ch == ".":
        return TokenType.PUNCTUATION, ch, pos + 1
    if ch == ":":
        if not (after.isalpha() or after == "_"):
            raise ParseError("expected parameter name after ':'", line, column)
        end = _WORD.match(text, pos + 1).end()
        # Case-preserved even when the name collides with a keyword
        # (":limit" is a fine parameter name).
        return TokenType.PARAMETER, text[pos + 1 : end], end
    if ch.isalpha():
        end = _WORD.match(text, pos).end()
        word = text[pos:end]
        if word.upper() in KEYWORDS:
            return TokenType.KEYWORD, word.upper(), end
        return TokenType.IDENTIFIER, word, end
    raise ParseError(f"unexpected character {ch!r}", line, column)


def _number_end(text: str, pos: int) -> int:
    """Where the number starting at ``pos`` ends, digits being what
    ``str.isdigit`` says: one ``.`` before the exponent and only before
    a digit, and an exponent only before a digit or a signed one."""
    end, seen_dot, seen_exp = pos, False, False
    while end < len(text):
        ch, after = text[end], text[end + 1 : end + 2]
        if ch.isdigit():
            end += 1
        elif ch == "." and not (seen_dot or seen_exp) and after.isdigit():
            seen_dot, end = True, end + 1
        elif ch in "eE" and not seen_exp and (
            after.isdigit() or (after in ("+", "-") and text[end + 2 : end + 3].isdigit())
        ):
            seen_exp, end = True, end + (2 if after in ("+", "-") else 1)
        else:
            break
    return end
