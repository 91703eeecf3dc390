"""SQL text canonicalization for the compiled-plan cache.

Two statements that differ only in whitespace, comments, keyword or
identifier case, or parameter spelling compile to the same plan, so the
plan cache must key them identically. Rather than invent a second
grammar, normalization reuses the real lexer: the canonical form is the
token stream re-rendered with single spaces, identifiers casefolded,
string literals re-quoted exactly, and parameters rendered as
``:name`` (casefolded — binding is case-insensitive at the API layer).

String literals stay byte-exact ('Lab1' != 'lab1' as data) and numbers
keep their spelling (1.0 and 1.00 parse to equal floats, but conflating
them buys nothing and risks surprising cache keys).
"""

from __future__ import annotations

from functools import lru_cache

from repro.sql.lexer import TokenType, tokenize

__all__ = ["normalize_sql", "scan_sql"]


def _render(token) -> str:
    if token.type is TokenType.STRING:
        return "'" + token.value.replace("'", "''") + "'"
    if token.type is TokenType.PARAMETER:
        return ":" + token.value.lower()
    if token.type is TokenType.IDENTIFIER:
        return token.value.lower()
    # Keywords are already uppercased by the lexer; numbers, operators
    # and punctuation are canonical as scanned.
    return token.value


@lru_cache(maxsize=4096)
def _scanned(text: str) -> list:
    """``[key, tokens]`` for ``text``: its canonical key, and the token
    list the key was rendered from until :func:`scan_sql` takes it."""
    tokens = tokenize(text)
    return [" ".join(_render(token) for token in tokens[:-1]), tokens]


def scan_sql(text: str) -> tuple[str, list | None]:
    """Return the canonical cache key for ``text``, and the lexer's
    tokens when this call is the first to see ``text`` — so a cold
    admission hands them to the parser and the text is scanned once —
    else None.

    Raises the lexer's :class:`~repro.errors.ParseError` on malformed
    input — callers funnel that into the same error path as parsing,
    so a statement that cannot be normalized is compiled (and fails)
    the ordinary way.

    Memoized (pure text -> key): under multi-tenant admission the same
    few statement templates arrive thousands of times, and re-lexing
    dominates an otherwise cache-hit ``session.query()`` call. The memo
    keeps no tokens once they are taken. Failures are not cached, so
    malformed text re-raises on every call.
    """
    entry = _scanned(text)
    tokens, entry[1] = entry[1], None
    return entry[0], tokens


def normalize_sql(text: str) -> str:
    """The canonical cache key for ``text`` (:func:`scan_sql`'s)."""
    return scan_sql(text)[0]
