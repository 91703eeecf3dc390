"""Operator fusion and the vectorized batched push path.

Covers the fused compile layer (``compile_fused`` /
``compile_fused_batch``), the :class:`FusedOp` operator, the plan
compiler's chain collapsing, the engine's batched ingest routing, and —
most importantly — a randomized fused-vs-unfused identity corpus: the
same random pipelines, identical rows and punctuation positions, must
emit exactly the same elements on both paths.
"""

import random

import pytest
from conftest import deliver, generated, interpreted, unfused

from repro.catalog import Catalog
from repro.data import DataType, Row, Schema
from repro.data.streams import CollectingConsumer, Punctuation, StreamElement
from repro.errors import ExecutionError
from repro.plan import PlanBuilder
from repro.plan.logical import Project, ProjectItem, Select
from repro.sql.compiled import Chain, compile_fused, compile_fused_batch
from repro.sql.expressions import (
    BinaryOp,
    ColumnRef,
    FunctionCall,
    Literal,
    UnaryOp,
)
from repro.stream.compiler import PlanCompiler
from repro.stream.engine import StreamEngine
from repro.stream.operators import FilterOp, FusedOp, ProjectOp

READINGS = Schema.of(
    ("room", DataType.STRING),
    ("host", DataType.STRING),
    ("temp", DataType.FLOAT),
    ("load", DataType.FLOAT),
)


def _catalog() -> Catalog:
    catalog = Catalog()
    catalog.register_stream("Readings", READINGS, rate=10.0)
    return catalog


def _elements(count: int, rng: random.Random | None = None) -> list[StreamElement]:
    """Rows with NULLs, negative / boundary / out-of-order timestamps."""
    rng = rng or random.Random(7)
    rooms = ["lab1", "lab2", "office3", None]
    out = []
    for i in range(count):
        row = Row(
            READINGS,
            (
                rooms[i % 4],
                f"ws{i % 16}",
                None if i % 11 == 0 else 10.0 + (i % 90),
                (i % 100) / 100.0,
            ),
            validate=False,
        )
        ts = rng.choice([-10.0, -2.5, 0.0, 10.0, float(i), float(i) / 3.0])
        out.append(StreamElement(row, ts, "Readings"))
    return out


class TestCompileFused:
    SCHEMA = Schema.of(("a", DataType.FLOAT), ("b", DataType.FLOAT))
    OUT = Schema.of(("s", DataType.FLOAT), ("a", DataType.FLOAT))

    def stages(self):
        return [
            ("filter", BinaryOp(">", ColumnRef("a"), Literal(0.0))),
            (
                "project",
                [BinaryOp("+", ColumnRef("a"), ColumnRef("b")), ColumnRef("a")],
                self.OUT,
            ),
            ("filter", BinaryOp("<", ColumnRef("s"), Literal(100.0))),
        ]

    def test_chain_passes_and_projects(self):
        fn = compile_fused(Chain(self.stages(), self.SCHEMA))
        assert fn((2.0, 3.0)) == (5.0, 2.0)

    def test_filter_rejects(self):
        fn = compile_fused(Chain(self.stages(), self.SCHEMA))
        assert fn((-1.0, 3.0)) is None  # first filter
        assert fn((99.0, 50.0)) is None  # post-projection filter

    def test_null_does_not_pass(self):
        fn = compile_fused(Chain(self.stages(), self.SCHEMA))
        assert fn((None, 3.0)) is None

    def test_filter_only_chain_returns_input_tuple(self):
        stages = [
            ("filter", BinaryOp(">", ColumnRef("a"), Literal(0.0))),
            ("filter", BinaryOp(">", ColumnRef("b"), Literal(0.0))),
        ]
        fn = compile_fused(Chain(stages, self.SCHEMA))
        values = (1.0, 2.0)
        assert fn(values) is values

    def test_execution_error_propagates(self):
        stages = [("filter", BinaryOp(">", ColumnRef("a"), ColumnRef("b")))]
        fn = compile_fused(Chain(stages, self.SCHEMA))
        with pytest.raises(ExecutionError):
            fn(("not-a-number", 1.0))

    def test_batch_variant_agrees_per_element(self):
        stages = self.stages()
        fn = compile_fused(Chain(stages, self.SCHEMA))
        batch = compile_fused_batch(Chain(stages, self.SCHEMA), self.OUT)
        elements = [
            StreamElement(Row(self.SCHEMA, v, validate=False), float(i), "s")
            for i, v in enumerate([(2.0, 3.0), (-1.0, 1.0), (None, 4.0), (99.0, 50.0)])
        ]
        out: list[StreamElement] = []
        batch(elements, out)
        expected = [
            (e, fn(e.row.values)) for e in elements if fn(e.row.values) is not None
        ]
        assert [o.row.values for o in out] == [v for _, v in expected]
        assert [o.timestamp for o in out] == [e.timestamp for e, _ in expected]
        assert all(o.row.schema == self.OUT for o in out)


class TestFusedOp:
    def make(self, stages, out_schema, in_schema):
        self.sink = CollectingConsumer()
        return FusedOp(stages, out_schema, self.sink, in_schema)

    def test_counts_and_punctuation(self):
        schema = Schema.of(("x", DataType.INT))
        op = self.make(
            [
                ("filter", BinaryOp(">", ColumnRef("x"), Literal(1))),
                ("project", [BinaryOp("*", ColumnRef("x"), Literal(2))], schema),
            ],
            schema,
            schema,
        )
        for x in (0, 2, 3):
            op.push(StreamElement(Row(schema, (x,)), float(x)))
        op.push(Punctuation(5.0))
        assert op.rows_in == 3 and op.rows_out == 2
        assert [r["x"] for r in self.sink.rows] == [4, 6]
        assert self.sink.punctuations == [Punctuation(5.0)]
        assert op.fused_stages == 2

    def test_filter_only_chain_preserves_element_identity(self):
        schema = Schema.of(("x", DataType.INT))
        op = self.make(
            [
                ("filter", BinaryOp(">", ColumnRef("x"), Literal(0))),
                ("filter", BinaryOp("<", ColumnRef("x"), Literal(10))),
            ],
            schema,
            schema,
        )
        element = StreamElement(Row(schema, (5,)), 1.0)
        op.push(element)
        assert self.sink.elements[0] is element

    def test_push_batch_with_interleaved_punctuation(self):
        schema = Schema.of(("x", DataType.INT))
        stages = [
            ("filter", BinaryOp(">", ColumnRef("x"), Literal(0))),
            ("project", [BinaryOp("+", ColumnRef("x"), Literal(1))], schema),
        ]
        batched = self.make(stages, schema, schema)
        batched_sink = self.sink
        single = self.make(stages, schema, schema)
        single_sink = self.sink

        items = []
        for x in (-1, 1, 2):
            items.append(StreamElement(Row(schema, (x,)), float(x)))
        items.append(Punctuation(3.0))
        items.extend(StreamElement(Row(schema, (x,)), float(x)) for x in (4, -5, 6))
        items.append(Punctuation(7.0))

        deliver(batched, items)
        for item in items:
            single.push(item)
        assert batched_sink.elements == single_sink.elements
        assert batched_sink.punctuations == single_sink.punctuations
        assert batched.rows_in == single.rows_in
        assert batched.rows_out == single.rows_out


class TestPlanCompilerFusion:
    def _plan(self, sql: str):
        return PlanBuilder(_catalog()).build_sql(sql)

    def test_filter_project_collapses_to_one_op(self):
        plan = self._plan("select r.temp from Readings r where r.temp > 5.0")
        compiled = PlanCompiler().compile(plan, CollectingConsumer())
        assert [type(op).__name__ for op in compiled.operators] == ["FusedOp"]
        assert compiled.operators[0].fused_stages == 2

    def test_declined_fusion_keeps_per_node_operators(self):
        plan = self._plan("select r.temp from Readings r where r.temp > 5.0")
        with unfused() as counts:
            compiled = PlanCompiler().compile(plan, CollectingConsumer())
        names = sorted(type(op).__name__ for op in compiled.operators)
        assert names == ["FilterOp", "ProjectOp"]
        assert counts["fallbacks"] == 1 and counts["generated"] > 0

    def test_single_node_chain_not_fused(self):
        plan = self._plan("select r.temp from Readings r")
        compiled = PlanCompiler().compile(plan, CollectingConsumer())
        assert [type(op).__name__ for op in compiled.operators] == ["ProjectOp"]

    def test_interpreted_baseline_never_fuses(self):
        plan = self._plan("select r.temp from Readings r where r.temp > 5.0")
        with interpreted():
            compiled = PlanCompiler().compile(plan, CollectingConsumer())
        assert all(not isinstance(op, FusedOp) for op in compiled.operators)

    def test_longer_chains_fuse_whole_run(self):
        base = self._plan("select r.room, r.temp from Readings r where r.temp > 5.0")
        wrapped = Select(
            Project(
                Select(base, BinaryOp(">", ColumnRef("r.temp"), Literal(6.0))),
                [ProjectItem(ColumnRef("r.temp"), "t")],
            ),
            BinaryOp("<", ColumnRef("t"), Literal(50.0)),
        )
        compiled = PlanCompiler().compile(wrapped, CollectingConsumer())
        assert [type(op).__name__ for op in compiled.operators] == ["FusedOp"]
        # Project, Select, Project, Select, Select — one fused run of 5.
        assert compiled.operators[0].fused_stages == 5

    def test_fusion_stops_at_non_fusable_operator(self):
        plan = self._plan(
            "select r.room, count(*) as n from Readings r "
            "where r.temp > 5.0 group by r.room"
        )
        compiled = PlanCompiler().compile(plan, CollectingConsumer())
        names = [type(op).__name__ for op in compiled.operators]
        assert "AggregateOp" in names and "FilterOp" in names


def _random_predicate(schema, rng: random.Random):
    numeric = [n for n in schema.names if "temp" in n or "load" in n or n in ("t", "s")]
    column = ColumnRef(rng.choice(numeric))
    comparison = BinaryOp(
        rng.choice([">", "<", ">=", "<=", "=", "!="]),
        column,
        Literal(round(rng.uniform(-5.0, 60.0), 2)),
    )
    roll = rng.random()
    if roll < 0.25:
        other = BinaryOp(
            rng.choice([">", "<"]),
            ColumnRef(rng.choice(numeric)),
            Literal(round(rng.uniform(0.0, 80.0), 2)),
        )
        return BinaryOp(rng.choice(["AND", "OR"]), comparison, other)
    if roll < 0.35:
        return UnaryOp("NOT", comparison)
    if roll < 0.45:
        return UnaryOp("IS NOT NULL", column)
    return comparison


def _random_projection(schema, rng: random.Random):
    numeric = [n for n in schema.names if "temp" in n or "load" in n or n in ("t", "s")]
    items = [ProjectItem(ColumnRef(rng.choice(numeric)), "t")]
    expr = BinaryOp(
        rng.choice(["+", "*", "-"]),
        ColumnRef(rng.choice(numeric)),
        Literal(round(rng.uniform(0.5, 3.0), 2)),
    )
    if rng.random() < 0.3:
        expr = FunctionCall("COALESCE", [expr, Literal(0.0)])
    items.append(ProjectItem(expr, "s"))
    return items


def _random_pipeline(rng: random.Random):
    plan = PlanBuilder(_catalog()).build_sql(
        "select r.room, r.temp, r.load from Readings r where r.load >= 0.0"
    )
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            plan = Select(plan, _random_predicate(plan.schema, rng))
        else:
            plan = Project(plan, _random_projection(plan.schema, rng))
    return plan


def _run(plan, items, *, batched: bool):
    sink = CollectingConsumer()
    compiled = PlanCompiler().compile(plan, sink)
    port = compiled.ports[0].consumer
    if batched:
        deliver(port, items)
    else:
        for item in items:
            port.push(item)
    return sink


class TestFusedUnfusedIdentity:
    """The acceptance corpus: same random pipelines, identical rows and
    punctuation positions — fused and unfused must emit the same thing."""

    @pytest.mark.parametrize("seed", range(20))
    def test_identity_corpus(self, seed):
        rng = random.Random(seed)
        plan = _random_pipeline(rng)
        items: list = _elements(120, rng)
        # Punctuations at random positions, same on every path.
        for _ in range(4):
            items.insert(rng.randrange(len(items)), Punctuation(rng.uniform(0, 100)))

        with unfused() as counts:
            reference = _run(plan, items, batched=False)
        assert counts["fallbacks"] > 0  # the chain really lowered per node
        with generated():
            fused = _run(plan, items, batched=False)
            fused_batch = _run(plan, items, batched=True)

        assert fused.elements == reference.elements
        assert fused.punctuations == reference.punctuations
        assert fused_batch.elements == reference.elements
        assert fused_batch.punctuations == reference.punctuations

    def test_filter_only_chain_identity(self):
        base = PlanBuilder(_catalog()).build_sql(
            "select r.room, r.temp, r.load from Readings r"
        )
        scan = base.child  # the bare Scan under the builder's Project
        plan = Select(
            Select(scan, BinaryOp(">", ColumnRef("r.temp"), Literal(20.0))),
            BinaryOp("<", ColumnRef("r.temp"), Literal(80.0)),
        )
        items = _elements(60)
        with unfused():
            reference = _run(plan, items, batched=False)
        fused = _run(plan, items, batched=True)
        assert fused.elements == reference.elements

    def test_error_rows_raise_on_both_paths(self):
        plan = PlanBuilder(_catalog()).build_sql(
            "select r.temp from Readings r where r.temp > 5.0"
        )
        # A malformed row (string where FLOAT was declared) slips past
        # validation; both paths must surface the same ExecutionError.
        bad = StreamElement(
            Row(READINGS, ("lab1", "ws1", "oops", 0.5), validate=False), 1.0
        )
        for arm in (unfused, generated):
            sink = CollectingConsumer()
            with arm():
                port = PlanCompiler().compile(plan, sink).ports[0].consumer
            with pytest.raises(ExecutionError):
                port.push(bad)


class TestEngineBatchedIngest:
    def _engine(self):
        catalog = _catalog()
        return StreamEngine(catalog), PlanBuilder(catalog)

    def test_push_many_matches_repeated_push_through_fused_pipeline(self):
        sql = (
            "select r.host, r.temp * 2.0 as t2 from Readings r "
            "where r.temp > 15.0 and r.load < 0.9"
        )
        rows = [e.row for e in _elements(80)]
        stamps = [float(i) for i in range(80)]

        engine_a, builder_a = self._engine()
        handle_a = engine_a.execute(builder_a.build_sql(sql))
        for row, stamp in zip(rows, stamps):
            engine_a.push("Readings", row, stamp)

        engine_b, builder_b = self._engine()
        handle_b = engine_b.execute(builder_b.build_sql(sql))
        assert engine_b.push_many("Readings", rows, stamps) == 80

        assert handle_b.results == handle_a.results
        assert [e.timestamp for e in handle_b.sink.elements] == [
            e.timestamp for e in handle_a.sink.elements
        ]

    def test_push_many_accepts_generator_timestamps(self):
        engine, builder = self._engine()
        handle = engine.execute(builder.build_sql("select r.temp from Readings r"))
        rows = [e.row for e in _elements(5)]
        count = engine.push_many(
            "Readings", rows, (float(i) for i in range(5))
        )
        assert count == 5
        assert [e.timestamp for e in handle.sink.elements] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_push_many_generator_timestamp_arity_mismatch_raises(self):
        engine, _ = self._engine()
        rows = [e.row for e in _elements(3)]
        with pytest.raises(ExecutionError, match="timestamps"):
            engine.push_many("Readings", rows, (float(i) for i in range(2)))

    def test_port_without_renamer_still_delivers_plan_schema(self):
        # Renamer elision: catalog-schema rows feed the fused op
        # directly, but result rows still carry the plan's names.
        engine, builder = self._engine()
        handle = engine.execute(
            builder.build_sql("select r.host from Readings r where r.temp > 0.0")
        )
        engine.push("Readings", {"room": "lab1", "host": "w1", "temp": 5.0, "load": 0.1}, 1.0)
        assert handle.results[0].schema.names == ["r.host"]
        assert handle.results[0]["r.host"] == "w1"
