"""Unit tests for the Stream SQL parser."""

import pytest

from repro.data.windows import WindowKind
from repro.errors import ParseError
from repro.sql import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    CreateView,
    Literal,
    RecursiveQuery,
    SelectQuery,
    UnaryOp,
    parse,
    parse_script,
    parse_select,
)


class TestSelectBasics:
    def test_simple_select(self):
        stmt = parse_select("select a, b from T")
        assert [i.expr.render() for i in stmt.items] == ["a", "b"]
        assert stmt.tables[0].name == "T"

    def test_star(self):
        stmt = parse_select("select * from T")
        assert stmt.is_star

    def test_aliases(self):
        stmt = parse_select("select a as x, b y from T t1, U as t2")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"
        assert stmt.tables[0].alias == "t1"
        assert stmt.tables[1].alias == "t2"

    def test_qualified_columns(self):
        stmt = parse_select("select t.a from T t")
        assert isinstance(stmt.items[0].expr, ColumnRef)
        assert stmt.items[0].expr.name == "t.a"

    def test_order_limit_distinct(self):
        stmt = parse_select(
            "select distinct a from T order by a desc, b asc limit 5"
        )
        assert stmt.distinct
        assert stmt.limit == 5
        assert stmt.order_by[0].ascending is False
        assert stmt.order_by[1].ascending is True

    def test_group_by_having(self):
        stmt = parse_select(
            "select room, count(*) from T group by room having count(*) > 2"
        )
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.is_aggregate

    def test_trailing_semicolon_ok(self):
        parse("select a from T;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("select a from T zzz qqq")

    def test_missing_from_rejected(self):
        with pytest.raises(ParseError):
            parse("select a")


class TestWindows:
    def test_window_before_alias(self):
        stmt = parse_select("select * from T [RANGE 30 SECONDS] t")
        window = stmt.tables[0].window
        assert window.kind is WindowKind.RANGE and window.size == 30

    def test_window_after_alias(self):
        stmt = parse_select("select * from T t [RANGE 30 SECONDS SLIDE 10 SECONDS]")
        window = stmt.tables[0].window
        assert window.size == 30 and window.slide == 10

    def test_rows_window(self):
        stmt = parse_select("select * from T [ROWS 100]")
        assert stmt.tables[0].window.kind is WindowKind.ROWS

    def test_now_and_unbounded(self):
        assert parse_select("select * from T [NOW]").tables[0].window.kind is WindowKind.NOW
        assert (
            parse_select("select * from T [UNBOUNDED]").tables[0].window.kind
            is WindowKind.UNBOUNDED
        )

    def test_bad_window_kind(self):
        with pytest.raises(ParseError):
            parse("select * from T [SOMETIMES 3]")


class TestExpressions:
    def test_caret_is_and(self):
        stmt = parse_select("select a from T where a = 1 ^ b = 2")
        assert isinstance(stmt.where, BinaryOp) and stmt.where.op == "AND"

    def test_precedence_or_weaker_than_and(self):
        stmt = parse_select("select a from T where a = 1 or b = 2 and c = 3")
        assert stmt.where.op == "OR"
        assert stmt.where.right.op == "AND"

    def test_arithmetic_precedence(self):
        stmt = parse_select("select a + b * c from T")
        expr = stmt.items[0].expr
        assert expr.op == "+" and expr.right.op == "*"

    def test_parentheses(self):
        stmt = parse_select("select (a + b) * c from T")
        assert stmt.items[0].expr.op == "*"

    def test_not_like_is_null(self):
        stmt = parse_select(
            "select a from T where a not like '%x%' and b is not null and c is null"
        )
        rendered = stmt.where.render()
        assert "NOT LIKE" in rendered and "IS NOT NULL" in rendered and "IS NULL" in rendered

    def test_unary_minus(self):
        stmt = parse_select("select -a from T")
        assert isinstance(stmt.items[0].expr, UnaryOp)

    def test_literals(self):
        stmt = parse_select("select 1, 2.5, 'x', true, false, null from T")
        values = [item.expr.value for item in stmt.items]
        assert values == [1, 2.5, "x", True, False, None]

    def test_count_star_and_distinct(self):
        stmt = parse_select("select count(*), count(distinct a), sum(b) from T")
        calls = [item.expr for item in stmt.items]
        assert calls[0].argument is None
        assert calls[1].distinct
        assert isinstance(calls[2], AggregateCall)

    def test_scalar_function(self):
        stmt = parse_select("select abs(a), coalesce(b, 0) from T")
        assert stmt.items[0].expr.name == "ABS"


class TestStatements:
    def test_create_view(self):
        stmt = parse(
            "create view V as (select ss.room from SeatSensors ss where ss.status = 'free')"
        )
        assert isinstance(stmt, CreateView) and stmt.name == "V"

    def test_create_view_without_parens(self):
        stmt = parse("create view V as select a from T")
        assert isinstance(stmt, CreateView)

    def test_recursive(self):
        stmt = parse(
            """
            WITH RECURSIVE tc(src, dst) AS (
              SELECT e.src, e.dst FROM Edges e
              UNION
              SELECT t.src, e.dst FROM tc t, Edges e WHERE t.dst = e.src
            ) SELECT src, dst FROM tc
            """
        )
        assert isinstance(stmt, RecursiveQuery)
        assert stmt.columns == ("src", "dst")
        assert not stmt.union_all

    def test_recursive_union_all(self):
        stmt = parse(
            """
            WITH RECURSIVE r(x) AS (
              SELECT a FROM T UNION ALL SELECT r.x FROM r, T WHERE r.x = T.a
            ) SELECT x FROM r
            """
        )
        assert stmt.union_all

    def test_output_to_display(self):
        stmt = parse_select(
            "select a from T output to display 'lobby' every 5 seconds"
        )
        assert stmt.output.display == "lobby"
        assert stmt.output.every == 5.0

    def test_output_without_every(self):
        stmt = parse_select("select a from T output to display 'lobby'")
        assert stmt.output.every is None

    def test_unknown_statement(self):
        with pytest.raises(ParseError):
            parse("delete from T")

    def test_parse_script_splits_on_semicolons(self):
        statements = parse_script(
            "create view V as select a from T; select a from T; -- done\n"
        )
        assert len(statements) == 2

    def test_parse_script_respects_strings(self):
        statements = parse_script("select 'a;b' from T")
        assert len(statements) == 1

    def test_parse_script_skips_blank_and_comment_only_segments(self):
        statements = parse_script(";; select a from T ;\n-- only a comment\n; select b from T;")
        assert [s.items[0].expr.render() for s in statements] == ["a", "b"]

    def test_parse_script_errors_count_from_the_start_of_the_script(self):
        """The script is scanned once: a segment's error is placed in
        the script, and a segment still ends where its ``;`` is."""
        with pytest.raises(ParseError) as excinfo:
            parse_script("select a from T;\nselect b from")
        assert "expected identifier (found '')" in str(excinfo.value)
        assert (excinfo.value.line, excinfo.value.column) == (2, 14)
        with pytest.raises(ParseError) as excinfo:
            parse_script("select a from T; select b from ; select c from T")
        assert "expected identifier (found '')" in str(excinfo.value)
        assert (excinfo.value.line, excinfo.value.column) == (1, 32)
        with pytest.raises(ParseError) as excinfo:
            parse_script("select a from T;\n  select 'b")
        assert (excinfo.value.line, excinfo.value.column) == (2, 10)

    def test_parse_select_rejects_view(self):
        with pytest.raises(ParseError):
            parse_select("create view V as select a from T")


class TestRenderRoundtrip:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a, b AS x FROM T",
            "SELECT DISTINCT a FROM T t WHERE (a = 1) ORDER BY a LIMIT 3",
            "SELECT COUNT(*) FROM T [RANGE 30 SECONDS] GROUP BY room",
            "SELECT a FROM T WHERE ((a LIKE '%x%') AND (b > 2))",
        ],
    )
    def test_render_reparses_to_same_render(self, sql):
        once = parse(sql)
        again = parse(once.render())
        assert once.render() == again.render()

    def test_figure1_query_parses(self):
        from repro.smartcis.queries import FREE_MACHINE_QUERY, FREE_MACHINE_QUERY_INLINE

        assert isinstance(parse(FREE_MACHINE_QUERY), SelectQuery)
        assert isinstance(parse(FREE_MACHINE_QUERY_INLINE), SelectQuery)
