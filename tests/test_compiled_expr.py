"""Compiled vs interpreted expression evaluation agreement.

The contract of :mod:`repro.sql.compiled`: for every expression ``e``
and row ``r``, ``compile_expr(e, r.schema)(r.values)`` returns the same
value as ``e.eval(r)`` — including SQL three-valued logic, NULL
propagation, type coercions and nested functions — or raises the same
exception type. Verified over a hand-written edge-case corpus plus a
seeded randomly generated corpus of expression trees.
"""

from __future__ import annotations

import random

import pytest
from conftest import GENERATORS, declining, generated

from repro.api import StreamSource, connect
from repro.data import DataType, Row, Schema
from repro.errors import ExecutionError
from repro.sql import compile_expr, compile_projection, parse_select
from repro.sql.expressions import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    Expr,
    FunctionCall,
    Literal,
    UnaryOp,
)

SCHEMA = Schema.of(
    ("x", DataType.INT),
    ("y", DataType.FLOAT),
    ("s", DataType.STRING),
    ("b", DataType.BOOL),
    ("n", DataType.INT),       # always NULL in the row corpus
    ("t.z", DataType.FLOAT),   # qualified name
)

ROWS = [
    Row(SCHEMA, (3, 2.5, "lab1", True, None, 7.0)),
    Row(SCHEMA, (0, -1.5, "Lab22", False, None, 0.0)),
    Row(SCHEMA, (-4, 0.0, "", True, None, -2.25)),
    Row(SCHEMA, (None, None, None, None, None, None), validate=False),
    Row(SCHEMA, (10, 1e9, "office%_", None, None, 3.5), validate=False),
]


def assert_agree(expr: Expr, rows=ROWS) -> None:
    with generated():  # the compared function is generated code, never a fallback
        compiled = compile_expr(expr, SCHEMA)
    for row in rows:
        try:
            expected = expr.eval(row)
        except Exception as exc:
            with pytest.raises(type(exc)):
                compiled(row.values)
            continue
        got = compiled(row.values)
        both_nan = (
            isinstance(got, float)
            and isinstance(expected, float)
            and got != got
            and expected != expected
        )
        assert both_nan or (got == expected and type(got) is type(expected)), (
            f"{expr.render()} on {row!r}: compiled={got!r} interpreted={expected!r}"
        )


def col(name: str) -> ColumnRef:
    return ColumnRef(name)


def lit(value) -> Literal:
    return Literal(value)


class TestHandWrittenCorpus:
    @pytest.mark.parametrize("op", ["=", "!=", "<>", "<", "<=", ">", ">="])
    def test_comparisons(self, op):
        assert_agree(BinaryOp(op, col("x"), lit(2)))
        assert_agree(BinaryOp(op, col("y"), col("t.z")))
        assert_agree(BinaryOp(op, col("n"), lit(1)))  # NULL operand

    @pytest.mark.parametrize("op", ["+", "-", "*", "/", "%"])
    def test_arithmetic(self, op):
        assert_agree(BinaryOp(op, col("x"), col("y")))
        assert_agree(BinaryOp(op, col("y"), lit(0)))   # div/mod by zero -> NULL
        assert_agree(BinaryOp(op, col("n"), col("x")))  # NULL propagation

    def test_string_concat_and_type_errors(self):
        assert_agree(BinaryOp("+", col("s"), col("s")))
        # int + str is a TypeError surfaced as ExecutionError — same on
        # both paths.
        assert_agree(BinaryOp("+", col("x"), col("s")))
        assert_agree(BinaryOp("<", col("x"), col("s")))

    def test_three_valued_and_or(self):
        operands = [lit(True), lit(False), lit(None), col("b"), UnaryOp("NOT", col("b"))]
        for a in operands:
            for b in operands:
                assert_agree(BinaryOp("AND", a, b))
                assert_agree(BinaryOp("OR", a, b))

    def test_and_or_short_circuit_matches_interpreter(self):
        # The right side must not evaluate when the left is decisive:
        # (FALSE AND (1/0 = n)) is False, not an error on either path —
        # and the interpreter's quirk of not type-checking the pruned
        # side is preserved.
        assert_agree(BinaryOp("AND", lit(False), BinaryOp("=", col("x"), col("s"))))
        assert_agree(BinaryOp("OR", lit(True), BinaryOp("=", col("x"), col("s"))))

    def test_unary(self):
        for op in ("NOT", "IS NULL", "IS NOT NULL"):
            assert_agree(UnaryOp(op, col("b")))
            assert_agree(UnaryOp(op, col("n")))
        assert_agree(UnaryOp("-", col("y")))
        assert_agree(UnaryOp("-", col("n")))

    def test_like(self):
        assert_agree(BinaryOp("LIKE", col("s"), lit("lab%")))
        assert_agree(BinaryOp("NOT LIKE", col("s"), lit("lab_")))
        assert_agree(BinaryOp("LIKE", col("s"), lit("%b2%")))
        # Dynamic pattern (not a compile-time constant).
        assert_agree(BinaryOp("LIKE", col("s"), col("s")))
        # NULL pattern.
        assert_agree(BinaryOp("LIKE", col("s"), lit(None)))
        assert_agree(BinaryOp("LIKE", lit(None), lit("x%")))

    def test_functions(self):
        assert_agree(FunctionCall("ABS", (col("x"),)))
        assert_agree(FunctionCall("SQRT", (BinaryOp("*", col("y"), col("y")),)))
        assert_agree(FunctionCall("FLOOR", (col("y"),)))
        assert_agree(FunctionCall("CEIL", (col("y"),)))
        assert_agree(FunctionCall("ROUND", (col("y"), lit(1))))
        assert_agree(FunctionCall("LOWER", (col("s"),)))
        assert_agree(FunctionCall("UPPER", (col("s"),)))
        assert_agree(FunctionCall("LENGTH", (col("s"),)))
        assert_agree(FunctionCall("COALESCE", (col("n"), col("x"), lit(9))))
        assert_agree(FunctionCall("GREATEST", (col("x"), col("y"))))
        assert_agree(FunctionCall("LEAST", (col("x"), col("y"))))
        # SQRT of a negative raises ValueError on both paths.
        assert_agree(FunctionCall("SQRT", (col("x"),)))
        assert_agree(FunctionCall("unknown_fn", (col("x"),)))

    def test_nested(self):
        expr = BinaryOp(
            "AND",
            BinaryOp(
                ">",
                FunctionCall("ABS", (BinaryOp("-", col("x"), col("y")),)),
                lit(1),
            ),
            BinaryOp(
                "OR",
                BinaryOp("LIKE", FunctionCall("LOWER", (col("s"),)), lit("lab%")),
                UnaryOp("IS NULL", col("n")),
            ),
        )
        assert_agree(expr)

    def test_non_finite_literals(self):
        # repr(inf) is a bare name, not a literal — the codegen must
        # bind it, not inline it (regression: NameError per row).
        assert_agree(BinaryOp("<", col("y"), lit(float("inf"))))
        assert_agree(BinaryOp(">", col("y"), lit(float("-inf"))))
        assert_agree(BinaryOp("=", col("y"), lit(float("nan"))))
        assert_agree(BinaryOp("+", col("y"), lit(float("inf"))))

    def test_constant_folding(self):
        folded = compile_expr(BinaryOp("*", lit(6), BinaryOp("+", lit(3), lit(4))), SCHEMA)
        assert folded(ROWS[0].values) == 42
        # A constant subtree that raises must keep raising at eval time.
        assert_agree(BinaryOp("+", lit("a"), lit(1)))
        # Division by zero folds to NULL.
        assert_agree(BinaryOp("/", lit(1), lit(0)))

    def test_aggregate_falls_back_to_interpreter_error(self):
        compiled = compile_expr(AggregateCall("SUM", col("x")), SCHEMA)
        with pytest.raises(ExecutionError, match="cannot be evaluated per-row"):
            compiled(ROWS[0].values)

    @pytest.mark.parametrize(
        "expr, message",
        [
            (BinaryOp("XOR", col("b"), col("b")), "unknown binary operator 'XOR'"),
            (UnaryOp("~", col("x")), "unknown unary operator '~'"),
            (FunctionCall("UNKNOWN_FN", (col("x"),)), "unknown function 'UNKNOWN_FN'"),
        ],
        ids=["binary", "unary", "function"],
    )
    def test_unknown_operators(self, expr, message):
        """Malformed nodes the parser cannot produce raise the
        interpreter's error *from generated code* — the message's own
        quotes must not break the generated source."""
        compiled = compile_expr(expr, SCHEMA)
        assert message in compiled.__compiled_source__
        assert_agree(expr)
        with pytest.raises(ExecutionError, match=message):
            compiled(ROWS[0].values)

    def test_parsed_where_clause(self):
        query = parse_select(
            "SELECT s FROM T WHERE x > 1 AND y / 2.0 < 100.0 AND s LIKE 'lab%'"
        )
        assert_agree(query.where)


class TestGeneratedCorpus:
    """Seeded random expression trees, compared node-for-node."""

    NUMERIC = [col("x"), col("y"), col("n"), col("t.z"), lit(2), lit(0.5), lit(None), lit(0)]
    STRINGY = [col("s"), lit("lab%"), lit(None), lit("a_c")]
    BOOLEAN = [col("b"), lit(True), lit(False), lit(None)]

    def build(self, rng: random.Random, depth: int) -> Expr:
        if depth <= 0:
            return rng.choice(self.NUMERIC + self.STRINGY + self.BOOLEAN)
        kind = rng.randrange(6)
        if kind == 0:
            op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
            pool = self.NUMERIC if rng.random() < 0.7 else self.STRINGY
            return BinaryOp(op, rng.choice(pool), rng.choice(pool))
        if kind == 1:
            op = rng.choice(["+", "-", "*", "/", "%"])
            return BinaryOp(op, self.build(rng, depth - 1), rng.choice(self.NUMERIC))
        if kind == 2:
            op = rng.choice(["AND", "OR"])
            return BinaryOp(op, self.build(rng, depth - 1), self.build(rng, depth - 1))
        if kind == 3:
            op = rng.choice(["NOT", "-", "IS NULL", "IS NOT NULL"])
            return UnaryOp(op, self.build(rng, depth - 1))
        if kind == 4:
            return BinaryOp(
                rng.choice(["LIKE", "NOT LIKE"]),
                rng.choice(self.STRINGY),
                rng.choice(self.STRINGY),
            )
        name = rng.choice(["ABS", "COALESCE", "GREATEST", "LEAST", "LENGTH", "UPPER"])
        arity = 1 if name in ("ABS", "LENGTH", "UPPER") else 2
        return FunctionCall(
            name, tuple(self.build(rng, depth - 1) for _ in range(arity))
        )

    def test_generated_trees_agree(self):
        rng = random.Random(20260729)
        for _ in range(400):
            expr = self.build(rng, rng.randrange(1, 5))
            assert_agree(expr)


class TestCompiledProjection:
    def test_projection_matches_per_item_eval(self):
        exprs = (
            col("x"),
            BinaryOp("*", col("y"), lit(2.0)),
            FunctionCall("COALESCE", (col("n"), lit(0))),
        )
        project = compile_projection(exprs, SCHEMA)
        for row in ROWS[:3]:
            assert project(row.values) == tuple(e.eval(row) for e in exprs)

    def test_pure_column_projection_single_and_multi(self):
        single = compile_projection((col("s"),), SCHEMA)
        assert single(ROWS[0].values) == ("lab1",)
        multi = compile_projection((col("s"), col("x")), SCHEMA)
        assert multi(ROWS[0].values) == ("lab1", 3)


class TestCodeObjectMemo:
    """Generated source is compiled to a code object once per distinct
    text; closures share the bytecode, never the bindings."""

    def test_exchanged_admission_compiles_each_source_once(self, monkeypatch):
        import builtins

        import repro.sql.compiled as compiled_module
        from repro.api import StreamSource, connect

        readings = Schema.of(
            ("room", DataType.STRING), ("host", DataType.STRING), ("temp", DataType.FLOAT)
        )
        compiled_module._code_object.cache_clear()
        compiled_sources: list[tuple[str, str]] = []

        def counting(source, filename, mode):
            compiled_sources.append((source, filename))
            return builtins.compile(source, filename, mode)

        # A module global shadows the builtin inside the one helper.
        monkeypatch.setattr(compiled_module, "compile", counting, raising=False)
        generated = []
        memo = compiled_module._code_object
        monkeypatch.setattr(
            compiled_module,
            "_code_object",
            lambda source, filename: (generated.append(source), memo(source, filename))[1],
        )
        with connect(shards=4) as session:
            session.attach(StreamSource("Readings", readings, partition_by="room"))
            cursor = session.query(
                "select r.host, count(*) as n, sum(r.temp * 2.0) as total "
                "from Readings r [range 10 seconds slide 10 seconds] "
                "where r.temp > 5.0 group by r.host"
            )
            assert cursor._handle.exchanged
        # Four shards each generated the stage-1 sources again ...
        assert len(generated) > len(set(generated))
        # ... and builtin compile ran exactly once per distinct text.
        assert len(compiled_sources) == len(set(compiled_sources)) == len(set(generated))

    def test_closures_from_one_source_keep_their_own_bindings(self):
        starts_a = compile_expr(BinaryOp("LIKE", col("s"), lit("lab%")), SCHEMA)
        starts_o = compile_expr(BinaryOp("LIKE", col("s"), lit("office%")), SCHEMA)
        # Same text (the pattern is a bound regex, not a literal) ...
        assert starts_a.__compiled_source__ == starts_o.__compiled_source__
        assert starts_a.__code__ is starts_o.__code__
        # ... different constants: they disagree where they should.
        assert starts_a(ROWS[0].values) is True and starts_o(ROWS[0].values) is False
        assert starts_a(ROWS[4].values) is False and starts_o(ROWS[4].values) is True


# ---------------------------------------------------------------------------
# The second rung: a generator that fails hands the operator to the
# interpreter — counted, and invisible in the emissions
# ---------------------------------------------------------------------------
_READINGS = Schema.of(
    ("host", DataType.STRING), ("temp", DataType.FLOAT), ("load", DataType.FLOAT)
)
_EVENTS = Schema.of(("host", DataType.STRING), ("level", DataType.FLOAT))
_FALLBACK_QUERIES = (
    # filter -> windowed aggregate -> project
    "select r.host, count(*) as n, sum(r.temp * 1.8) as total, "
    "count(distinct r.load) as loads from Readings r "
    "[range 10 seconds slide 10 seconds] "
    "where r.temp > 5.0 and r.load < 0.9 group by r.host",
    # a fused filter -> project chain
    "select r.host, r.temp * 1.8 + 32.0 as f from Readings r where r.temp > 5.0",
    # a windowed join with a residual predicate
    "select r.host, r.temp, e.level from Readings r [range 10 seconds], "
    "Events e [range 10 seconds] where r.host = e.host and e.level > r.load",
    # running totals: per-group state that lives across punctuations
    "select r.host, sum(r.temp) as total, max(r.load) as peak from Readings r "
    "group by r.host",
)


def _run_fallback_queries(share: bool, fail_at: int | None = None, after=None):
    """Run the three queries; with ``fail_at``, under checkpointing, and
    the engine fails and recovers right before that chunk. ``after``
    gets the session before it closes."""
    rng = random.Random(7)
    interval = None if fail_at is None else 10.0
    with connect(share_plans=share, checkpoint_interval=interval) as session:
        session.attach(StreamSource("Readings", _READINGS))
        session.attach(StreamSource("Events", _EVENTS))
        cursors = [session.query(sql) for sql in _FALLBACK_QUERIES]
        for chunk in range(6):
            if chunk == fail_at:
                session.engine.fail()
                session.checkpointer.recover()
            stamps = [chunk * 5.0 + i * 0.25 for i in range(20)]
            session.push_many(
                "Readings",
                [
                    {
                        "host": f"ws{rng.randrange(4)}",
                        "temp": None if rng.random() < 0.1 else rng.uniform(0, 40),
                        "load": round(rng.random(), 1),
                    }
                    for _ in stamps
                ],
                stamps,
            )
            session.push_many(
                "Events",
                [
                    {"host": f"ws{rng.randrange(4)}", "level": rng.random()}
                    for _ in stamps[::2]
                ],
                stamps[::2],
            )
            session.punctuate(stamps[-1])
        session.punctuate(100.0)
        emissions = [
            [(e.timestamp, e.row.schema.names, e.row.values) for e in c._handle.sink.elements]
            for c in cursors
        ]
        if after is not None:
            after(session)
        return emissions, session.stats()["compile"]


@pytest.mark.parametrize(
    "broken, share",
    # Private pipelines hold every operator kind (shared chains never
    # fuse across a cut); sharing rides along with everything broken.
    [*((name, False) for name in GENERATORS), ("all", False), ("all", True)],
)
def test_failed_generator_falls_back_to_the_interpreter(broken, share):
    expected, clean = _run_fallback_queries(share)
    assert all(expected), "every query must emit, or the comparison is vacuous"
    assert clean["generated"] > 0 and clean["fallbacks"] == 0

    taken = []
    with declining(*(GENERATORS if broken == "all" else (broken,))):
        got, counts = _run_fallback_queries(share)
        assert got == expected
        assert counts["fallbacks"] > 0
        if broken == "all":
            assert counts["generated"] == 0
        if share or broken not in ("_codegen_accumulate", "all"):
            return
        # The interpreter's accumulators cross a barrier like generated
        # slots do: fail and recover mid-window, still on this rung.

        def checkpoint(session):
            taken.append((session.checkpointer.checkpoint(), session.engine))

        got, _ = _run_fallback_queries(share, fail_at=3, after=checkpoint)
        assert got == expected
    # The rung is part of the snapshot: an engine whose generator works
    # refuses accumulator state instead of finalizing it as slots.
    (barrier, engine), = taken
    with pytest.raises(ExecutionError, match="generated fold vs the interpreter"):
        engine.restore(barrier)
