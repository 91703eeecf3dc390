"""Unit tests for expression evaluation, typing and utilities."""

import pytest

from repro.data import DataType, Row, Schema
from repro.errors import AnalysisError, ExecutionError
from repro.sql import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    FunctionCall,
    Literal,
    UnaryOp,
    conjoin,
    is_equijoin_conjunct,
    rename_relations,
    split_conjuncts,
    substitute_columns,
    parse_select,
)

SCHEMA = Schema.of(
    ("a.x", DataType.INT),
    ("a.s", DataType.STRING),
    ("b.y", DataType.FLOAT),
    ("b.flag", DataType.BOOL),
)
ROW = Row(SCHEMA, (3, "hello", 2.5, True))


def expr_of(sql_fragment: str):
    """Parse a scalar expression via a dummy SELECT."""
    return parse_select(f"select {sql_fragment} from T").items[0].expr


class TestEval:
    def test_column_and_literal(self):
        assert ColumnRef("a.x").eval(ROW) == 3
        assert Literal(7).eval(ROW) == 7

    @pytest.mark.parametrize(
        "op,left,right,expected",
        [
            ("+", 3, 4, 7),
            ("-", 3, 4, -1),
            ("*", 3, 4, 12),
            ("/", 3, 4, 0.75),
            ("%", 7, 4, 3),
            ("=", 3, 3, True),
            ("!=", 3, 4, True),
            ("<", 3, 4, True),
            (">=", 3, 3, True),
        ],
    )
    def test_binary_arithmetic_and_comparison(self, op, left, right, expected):
        result = BinaryOp(op, Literal(left), Literal(right)).eval(ROW)
        assert result == expected

    def test_division_by_zero_yields_null(self):
        assert BinaryOp("/", Literal(1), Literal(0)).eval(ROW) is None
        assert BinaryOp("%", Literal(1), Literal(0)).eval(ROW) is None

    def test_string_concatenation(self):
        expr = BinaryOp("+", Literal("a"), BinaryOp("+", Literal("-"), Literal("b")))
        assert expr.eval(ROW) == "a-b"

    def test_like(self):
        assert BinaryOp("LIKE", Literal("Fedora Linux"), Literal("%Fedora%")).eval(ROW)
        assert not BinaryOp("LIKE", Literal("Windows"), Literal("%Fedora%")).eval(ROW)
        assert BinaryOp("LIKE", Literal("abc"), Literal("a_c")).eval(ROW)
        assert BinaryOp("NOT LIKE", Literal("abc"), Literal("x%")).eval(ROW)

    def test_like_is_case_insensitive(self):
        assert BinaryOp("LIKE", Literal("FEDORA"), Literal("%fedora%")).eval(ROW)

    def test_like_escapes_regex_chars(self):
        assert BinaryOp("LIKE", Literal("a.c"), Literal("a.c")).eval(ROW)
        assert not BinaryOp("LIKE", Literal("abc"), Literal("a.c")).eval(ROW)

    # --- three-valued logic -------------------------------------------
    def test_and_truth_table(self):
        T, F, N = Literal(True), Literal(False), Literal(None)
        assert BinaryOp("AND", T, T).eval(ROW) is True
        assert BinaryOp("AND", T, F).eval(ROW) is False
        assert BinaryOp("AND", F, N).eval(ROW) is False
        assert BinaryOp("AND", N, F).eval(ROW) is False
        assert BinaryOp("AND", T, N).eval(ROW) is None
        assert BinaryOp("AND", N, N).eval(ROW) is None

    def test_or_truth_table(self):
        T, F, N = Literal(True), Literal(False), Literal(None)
        assert BinaryOp("OR", F, F).eval(ROW) is False
        assert BinaryOp("OR", T, N).eval(ROW) is True
        assert BinaryOp("OR", N, T).eval(ROW) is True
        assert BinaryOp("OR", F, N).eval(ROW) is None
        assert BinaryOp("OR", N, N).eval(ROW) is None

    def test_null_propagates_through_comparison(self):
        assert BinaryOp("=", Literal(None), Literal(3)).eval(ROW) is None
        assert BinaryOp("<", ColumnRef("a.x"), Literal(None)).eval(ROW) is None

    def test_not(self):
        assert UnaryOp("NOT", Literal(False)).eval(ROW) is True
        assert UnaryOp("NOT", Literal(None)).eval(ROW) is None

    def test_is_null(self):
        assert UnaryOp("IS NULL", Literal(None)).eval(ROW) is True
        assert UnaryOp("IS NOT NULL", ColumnRef("a.x")).eval(ROW) is True

    def test_unary_minus(self):
        assert UnaryOp("-", ColumnRef("a.x")).eval(ROW) == -3
        assert UnaryOp("-", Literal(None)).eval(ROW) is None

    def test_functions(self):
        assert FunctionCall("ABS", (Literal(-4),)).eval(ROW) == 4
        assert FunctionCall("LOWER", (Literal("ABC"),)).eval(ROW) == "abc"
        assert FunctionCall("LENGTH", (Literal("abc"),)).eval(ROW) == 3
        assert FunctionCall("COALESCE", (Literal(None), Literal(5))).eval(ROW) == 5
        assert FunctionCall("GREATEST", (Literal(2), Literal(9))).eval(ROW) == 9

    def test_function_null_propagation(self):
        assert FunctionCall("ABS", (Literal(None),)).eval(ROW) is None

    def test_unknown_function_raises(self):
        with pytest.raises(ExecutionError):
            FunctionCall("FROBNICATE", ()).eval(ROW)

    def test_aggregate_cannot_eval_per_row(self):
        with pytest.raises(ExecutionError):
            AggregateCall("SUM", ColumnRef("a.x")).eval(ROW)


class TestTyping:
    def test_comparison_is_bool(self):
        assert BinaryOp(">", ColumnRef("a.x"), Literal(1)).dtype(SCHEMA) is DataType.BOOL

    def test_arith_widening(self):
        expr = BinaryOp("+", ColumnRef("a.x"), ColumnRef("b.y"))
        assert expr.dtype(SCHEMA) is DataType.FLOAT

    def test_division_always_float(self):
        expr = BinaryOp("/", ColumnRef("a.x"), Literal(2))
        assert expr.dtype(SCHEMA) is DataType.FLOAT

    def test_string_plus_is_concat(self):
        expr = BinaryOp("+", ColumnRef("a.s"), Literal("!"))
        assert expr.dtype(SCHEMA) is DataType.STRING

    def test_and_requires_bool(self):
        with pytest.raises(AnalysisError):
            BinaryOp("AND", ColumnRef("a.x"), Literal(True)).dtype(SCHEMA)

    def test_like_requires_strings(self):
        with pytest.raises(AnalysisError):
            BinaryOp("LIKE", ColumnRef("a.x"), Literal("%")).dtype(SCHEMA)

    def test_ordering_on_bool_rejected(self):
        with pytest.raises(AnalysisError):
            BinaryOp("<", ColumnRef("b.flag"), Literal(True)).dtype(SCHEMA)

    def test_equality_on_bool_ok(self):
        expr = BinaryOp("=", ColumnRef("b.flag"), Literal(True))
        assert expr.dtype(SCHEMA) is DataType.BOOL

    def test_aggregate_types(self):
        assert AggregateCall("COUNT", None).dtype(SCHEMA) is DataType.INT
        assert AggregateCall("SUM", ColumnRef("a.x")).dtype(SCHEMA) is DataType.INT
        assert AggregateCall("AVG", ColumnRef("a.x")).dtype(SCHEMA) is DataType.FLOAT
        assert AggregateCall("MIN", ColumnRef("a.s")).dtype(SCHEMA) is DataType.STRING

    def test_sum_of_string_rejected(self):
        with pytest.raises(AnalysisError):
            AggregateCall("SUM", ColumnRef("a.s")).dtype(SCHEMA)

    def test_star_argument_only_for_plain_count(self):
        with pytest.raises(AnalysisError, match=r"COUNT\(DISTINCT \*\)"):
            AggregateCall("COUNT", None, distinct=True).dtype(SCHEMA)
        with pytest.raises(AnalysisError, match=r"SUM\(\*\)"):
            AggregateCall("SUM", None).dtype(SCHEMA)


class TestUtilities:
    def test_split_and_conjoin_roundtrip(self):
        expr = expr_of("a = 1 and b = 2 and c = 3")
        conjuncts = split_conjuncts(expr)
        assert len(conjuncts) == 3
        rebuilt = conjoin(conjuncts)
        assert sorted(c.render() for c in split_conjuncts(rebuilt)) == sorted(
            c.render() for c in conjuncts
        )

    def test_split_none(self):
        assert split_conjuncts(None) == []
        assert conjoin([]) is None

    def test_or_not_split(self):
        expr = expr_of("a = 1 or b = 2")
        assert len(split_conjuncts(expr)) == 1

    def test_is_equijoin_conjunct(self):
        expr = BinaryOp("=", ColumnRef("a.x"), ColumnRef("b.y"))
        assert is_equijoin_conjunct(expr) == ("a.x", "b.y")

    def test_same_relation_not_equijoin(self):
        expr = BinaryOp("=", ColumnRef("a.x"), ColumnRef("a.s"))
        assert is_equijoin_conjunct(expr) is None

    def test_constant_not_equijoin(self):
        expr = BinaryOp("=", ColumnRef("a.x"), Literal(3))
        assert is_equijoin_conjunct(expr) is None

    def test_substitute_columns(self):
        expr = BinaryOp("+", ColumnRef("a.x"), ColumnRef("b.y"))
        replaced = substitute_columns(expr, {"a.x": Literal(10)})
        assert replaced.eval(ROW) == 12.5

    def test_rename_relations(self):
        expr = BinaryOp("=", ColumnRef("a.x"), ColumnRef("b.y"))
        renamed = rename_relations(expr, {"a": "left"})
        assert renamed.columns() == ["left.x", "b.y"]

    def test_columns_and_relations(self):
        expr = expr_of("t.a + u.b + t.a")
        assert expr.columns() == ["t.a", "u.b"]
        assert expr.relations() == {"t", "u"}

    def test_contains_aggregate(self):
        assert expr_of("sum(x) + 1").contains_aggregate()
        assert not expr_of("x + 1").contains_aggregate()
