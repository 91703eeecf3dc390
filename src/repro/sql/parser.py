"""Recursive-descent parser for ASPEN Stream SQL.

Grammar (informally)::

    statement   := select | create_view | recursive | insert
    create_view := CREATE VIEW ident AS '(' select ')'
    recursive   := WITH RECURSIVE ident '(' ident,* ')' AS
                   '(' select (UNION [ALL]) select ')' select
    select      := SELECT [DISTINCT] items FROM tables [WHERE expr]
                   [GROUP BY exprs] [HAVING expr] [ORDER BY order,*]
                   [LIMIT n] [OUTPUT TO DISPLAY str [EVERY n SECONDS]]
    table       := ident [window] [[AS] ident]
    window      := '[' RANGE num SECONDS [SLIDE num SECONDS]
                    | ROWS num | NOW | UNBOUNDED ']'

Expression precedence, loosest first: OR, AND/"^", NOT, comparison
(=, !=, <>, <, <=, >, >=, LIKE, IS [NOT] NULL), additive, multiplicative,
unary minus, primary. ``^`` is the paper's conjunction spelling and is
normalised to AND.
"""

from __future__ import annotations

from repro.data.windows import WindowSpec
from repro.errors import ParseError
from repro.sql.ast import (
    CreateView,
    OrderItem,
    OutputClause,
    RecursiveQuery,
    SelectItem,
    SelectQuery,
    Statement,
    TableRef,
)
from repro.sql.expressions import (
    AGGREGATE_NAMES,
    AggregateCall,
    BinaryOp,
    ColumnRef,
    Expr,
    FunctionCall,
    Literal,
    Parameter,
    UnaryOp,
)
from repro.sql.lexer import Token, TokenType, tokenize

_COMPARISON_OPS = ("=", "!=", "<>", "<", "<=", ">", ">=")


class Parser:
    """Parses one Stream SQL statement from a token list: the text's,
    or one the lexer already produced (:func:`~repro.sql.normalize.scan_sql`)."""

    def __init__(self, text: str | list[Token]):
        self._tokens = tokenize(text) if isinstance(text, str) else text
        self._pos = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        # The position never passes the EOF token, which ends the list.
        if offset:
            return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(f"{message} (found {token.value!r})", token.line, token.column)

    def _expect_keyword(self, *words: str) -> Token:
        token = self._peek()
        if token.is_keyword(*words):
            return self._advance()
        raise self._error(f"expected {' or '.join(words)}")

    def _expect_punct(self, symbol: str) -> Token:
        token = self._peek()
        if token.type is TokenType.PUNCTUATION and token.value == symbol:
            return self._advance()
        raise self._error(f"expected {symbol!r}")

    def _match_keyword(self, *words: str) -> bool:
        if self._peek().is_keyword(*words):
            self._advance()
            return True
        return False

    def _match_punct(self, symbol: str) -> bool:
        token = self._peek()
        if token.type is TokenType.PUNCTUATION and token.value == symbol:
            self._advance()
            return True
        return False

    def _expect_identifier(self) -> str:
        token = self._peek()
        if token.type is TokenType.IDENTIFIER:
            return self._advance().value
        raise self._error("expected identifier")

    def _expect_number(self) -> float:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            return float(token.value)
        raise self._error("expected number")

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> Statement:
        """Parse exactly one statement; trailing ``;`` is allowed."""
        token = self._peek()
        if token.is_keyword("CREATE"):
            statement: Statement = self._create_view()
        elif token.is_keyword("WITH"):
            statement = self._recursive_query()
        elif token.is_keyword("SELECT"):
            statement = self._select()
        else:
            raise self._error("expected SELECT, CREATE VIEW or WITH RECURSIVE")
        self._match_punct(";")
        if self._peek().type is not TokenType.EOF:
            raise self._error("unexpected trailing input")
        return statement

    def parse_script(self) -> list[Statement]:
        """Parse the token stream as statements split at ``;``: each
        segment ends in an EOF token at its ``;``, so it parses exactly
        as that statement alone would."""
        tokens, statements, start = self._tokens, [], 0
        for end, token in enumerate(tokens):
            if token.type is TokenType.EOF or (
                token.type is TokenType.PUNCTUATION and token.value == ";"
            ):
                if end > start:
                    eof = Token(TokenType.EOF, "", token.line, token.column)
                    self._tokens, self._pos = [*tokens[start:end], eof], 0
                    statements.append(self.parse_statement())
                start = end + 1
        return statements

    def _create_view(self) -> CreateView:
        self._expect_keyword("CREATE")
        self._expect_keyword("VIEW")
        name = self._expect_identifier()
        self._expect_keyword("AS")
        wrapped = self._match_punct("(")
        query = self._select()
        if wrapped:
            self._expect_punct(")")
        return CreateView(name, query)

    def _recursive_query(self) -> RecursiveQuery:
        self._expect_keyword("WITH")
        self._expect_keyword("RECURSIVE")
        name = self._expect_identifier()
        self._expect_punct("(")
        columns = [self._expect_identifier()]
        while self._match_punct(","):
            columns.append(self._expect_identifier())
        self._expect_punct(")")
        self._expect_keyword("AS")
        self._expect_punct("(")
        base = self._select()
        self._expect_keyword("UNION")
        union_all = self._match_keyword("ALL")
        step = self._select()
        self._expect_punct(")")
        main = self._select()
        return RecursiveQuery(name, tuple(columns), base, step, main, union_all)

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def _select(self) -> SelectQuery:
        self._expect_keyword("SELECT")
        distinct = self._match_keyword("DISTINCT")
        items = self._select_items()
        self._expect_keyword("FROM")
        tables = [self._table_ref()]
        while self._match_punct(","):
            tables.append(self._table_ref())

        where = self._expression() if self._match_keyword("WHERE") else None

        group_by: list[Expr] = []
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._expression())
            while self._match_punct(","):
                group_by.append(self._expression())
        having: Expr | None = None
        if self._match_keyword("HAVING"):
            # Grammatically legal without GROUP BY; the analyzer rejects
            # HAVING on non-aggregate queries with a clearer message.
            having = self._expression()

        order_by: list[OrderItem] = []
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._order_item())
            while self._match_punct(","):
                order_by.append(self._order_item())

        limit: int | None = None
        if self._match_keyword("LIMIT"):
            limit = int(self._expect_number())

        output: OutputClause | None = None
        if self._match_keyword("OUTPUT"):
            self._expect_keyword("TO")
            self._expect_keyword("DISPLAY")
            token = self._peek()
            if token.type is TokenType.STRING:
                display = self._advance().value
            else:
                display = self._expect_identifier()
            every: float | None = None
            if self._match_keyword("EVERY"):
                every = self._expect_number()
                self._match_keyword("SECONDS")
            output = OutputClause(display, every)

        return SelectQuery(
            items=tuple(items),
            tables=tuple(tables),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
            output=output,
        )

    def _select_items(self) -> list[SelectItem]:
        if self._peek().type is TokenType.OPERATOR and self._peek().value == "*":
            self._advance()
            return []  # SELECT *
        items = [self._select_item()]
        while self._match_punct(","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> SelectItem:
        expr = self._expression()
        alias: str | None = None
        if self._match_keyword("AS"):
            alias = self._expect_identifier()
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return SelectItem(expr, alias)

    def _order_item(self) -> OrderItem:
        expr = self._expression()
        ascending = True
        if self._match_keyword("DESC"):
            ascending = False
        else:
            self._match_keyword("ASC")
        return OrderItem(expr, ascending)

    def _table_ref(self) -> TableRef:
        name = self._expect_identifier()
        window: WindowSpec | None = None
        if self._peek().type is TokenType.PUNCTUATION and self._peek().value == "[":
            window = self._window()
        alias: str | None = None
        if self._match_keyword("AS"):
            alias = self._expect_identifier()
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._advance().value
        # Window may also follow the alias ("Temps t [RANGE 10 SECONDS]").
        if (
            window is None
            and self._peek().type is TokenType.PUNCTUATION
            and self._peek().value == "["
        ):
            window = self._window()
        return TableRef(name, alias, window)

    def _window(self) -> WindowSpec:
        self._expect_punct("[")
        if self._match_keyword("NOW"):
            spec = WindowSpec.now()
        elif self._match_keyword("UNBOUNDED"):
            spec = WindowSpec.unbounded()
        elif self._match_keyword("ROWS"):
            spec = WindowSpec.rows(int(self._expect_number()))
        elif self._match_keyword("RANGE"):
            size = self._expect_number()
            self._match_keyword("SECONDS")
            slide = 0.0
            if self._match_keyword("SLIDE"):
                slide = self._expect_number()
                self._match_keyword("SECONDS")
            spec = WindowSpec.range(size, slide)
        else:
            raise self._error("expected RANGE, ROWS, NOW or UNBOUNDED")
        self._expect_punct("]")
        return spec

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _expression(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self._match_keyword("OR"):
            left = BinaryOp("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> Expr:
        left = self._not_expr()
        while True:
            if self._match_keyword("AND"):
                left = BinaryOp("AND", left, self._not_expr())
            elif self._peek().type is TokenType.OPERATOR and self._peek().value == "^":
                self._advance()  # the paper's conjunction spelling
                left = BinaryOp("AND", left, self._not_expr())
            else:
                return left

    def _not_expr(self) -> Expr:
        if self._match_keyword("NOT"):
            return UnaryOp("NOT", self._not_expr())
        return self._comparison()

    def _comparison(self) -> Expr:
        left = self._additive()
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in _COMPARISON_OPS:
            op = self._advance().value
            return BinaryOp(op, left, self._additive())
        if token.is_keyword("LIKE"):
            self._advance()
            return BinaryOp("LIKE", left, self._additive())
        if token.is_keyword("NOT") and self._peek(1).is_keyword("LIKE"):
            self._advance()
            self._advance()
            return BinaryOp("NOT LIKE", left, self._additive())
        if token.is_keyword("IS"):
            self._advance()
            negated = self._match_keyword("NOT")
            self._expect_keyword("NULL")
            return UnaryOp("IS NOT NULL" if negated else "IS NULL", left)
        return left

    def _additive(self) -> Expr:
        left = self._multiplicative()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value in ("+", "-"):
                op = self._advance().value
                left = BinaryOp(op, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> Expr:
        left = self._unary()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value in ("*", "/", "%"):
                op = self._advance().value
                left = BinaryOp(op, left, self._unary())
            else:
                return left

    def _unary(self) -> Expr:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value == "-":
            self._advance()
            return UnaryOp("-", self._unary())
        return self._primary()

    def _primary(self) -> Expr:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return Literal(float(text))
            return Literal(int(text))
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value)
        if token.is_keyword("TRUE"):
            self._advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return Literal(False)
        if token.is_keyword("NULL"):
            self._advance()
            return Literal(None)
        if self._match_punct("("):
            inner = self._expression()
            self._expect_punct(")")
            return inner
        if token.type is TokenType.IDENTIFIER:
            return self._identifier_expr()
        if token.type is TokenType.PARAMETER:
            self._advance()
            return Parameter(token.value)
        raise self._error("expected expression")

    def _identifier_expr(self) -> Expr:
        name = self._expect_identifier()
        # Function or aggregate call?
        if self._peek().type is TokenType.PUNCTUATION and self._peek().value == "(":
            return self._call(name)
        # Qualified column: ident '.' ident
        if self._peek().type is TokenType.PUNCTUATION and self._peek().value == ".":
            self._advance()
            column = self._expect_identifier()
            return ColumnRef(f"{name}.{column}")
        return ColumnRef(name)

    def _call(self, name: str) -> Expr:
        self._expect_punct("(")
        upper = name.upper()
        if upper in AGGREGATE_NAMES:
            distinct = self._match_keyword("DISTINCT")
            if self._peek().type is TokenType.OPERATOR and self._peek().value == "*":
                if distinct:
                    # Caught here for the source position; AggregateCall.dtype
                    # rejects the same node when built without a parser.
                    raise self._error(f"{upper}(DISTINCT *) names no value to deduplicate")
                self._advance()
                self._expect_punct(")")
                return AggregateCall(upper, None, distinct)
            argument = self._expression()
            self._expect_punct(")")
            return AggregateCall(upper, argument, distinct)
        args: list[Expr] = []
        if not self._match_punct(")"):
            args.append(self._expression())
            while self._match_punct(","):
                args.append(self._expression())
            self._expect_punct(")")
        return FunctionCall(upper, tuple(args))


def parse(text: str | list[Token]) -> Statement:
    """Parse one Stream SQL statement (its text, or its tokens).

    >>> stmt = parse("select room, temp from Readings [RANGE 30 SECONDS] where temp > 30")
    >>> stmt.tables[0].window.size
    30.0
    """
    return Parser(text).parse_statement()


def parse_select(text: str) -> SelectQuery:
    """Parse text that must be a SELECT statement."""
    statement = parse(text)
    if not isinstance(statement, SelectQuery):
        raise ParseError(f"expected a SELECT statement, got {type(statement).__name__}")
    return statement


def parse_script(text: str) -> list[Statement]:
    """Parse a ``;``-separated sequence of statements.

    Segments that are blank or contain only comments are skipped. The
    text is scanned once, so an error's position counts from the start
    of the script.
    """
    return Parser(text).parse_script()
