"""Engine ingestion hot path: routing index, push_many, latest_batch cache."""

import pytest

from repro.api import StreamSource, connect
from repro.catalog import Catalog
from repro.data import DataType, Row, Schema
from repro.data.streams import CollectingConsumer, LogView, Punctuation, StreamElement
from repro.errors import ExecutionError
from repro.plan.logical import Scan, Select
from repro.sql.expressions import BinaryOp, ColumnRef, Literal
from repro.stream.engine import QueryHandle, StreamEngine


class TestRoutingIndex:
    def test_execute_registers_routes(self, catalog, builder, engine):
        engine.execute(builder.build_sql("select t.temp from Temps t"))
        assert "temps" in engine._routes
        assert len(engine._routes["temps"]) == 1

    def test_stop_invalidates_routes(self, catalog, builder, engine):
        handle = engine.execute(builder.build_sql("select t.temp from Temps t"))
        other = engine.execute(builder.build_sql("select t.room from Temps t"))
        engine.stop(handle)
        # The stopped query's route is gone; the other query's remains.
        assert len(engine._routes["temps"]) == 1
        engine.push("Temps", {"room": "lab1", "temp": 20.0}, 1.0)
        assert len(handle.results) == 0
        assert len(other.results) == 1
        # Stopping the last subscriber removes the key entirely.
        engine.stop(other)
        assert "temps" not in engine._routes

    def test_stop_is_idempotent(self, catalog, builder, engine):
        handle = engine.execute(builder.build_sql("select t.temp from Temps t"))
        engine.stop(handle)
        engine.stop(handle)  # second stop is a no-op
        assert engine.running_queries == []

    def test_same_source_scanned_twice_gets_two_routes(self, catalog, builder, engine):
        handle = engine.execute(
            builder.build_sql(
                "select a.room from Temps a, Temps b where a.room = b.room"
            )
        )
        assert len(engine._routes["temps"]) == 2
        engine.stop(handle)
        assert "temps" not in engine._routes


class TestPushMany:
    ROWS = [
        {"room": "lab1", "temp": 20.0},
        {"room": "lab2", "temp": 30.0},
        {"room": "lab1", "temp": 40.0},
    ]

    def test_matches_repeated_push(self, catalog, builder, engine):
        via_push = engine.execute(builder.build_sql("select t.temp from Temps t"))
        for i, row in enumerate(self.ROWS):
            engine.push("Temps", row, float(i))
        rows_single = [r["t.temp"] for r in via_push.results]
        engine.stop(via_push)

        via_many = engine.execute(builder.build_sql("select t.temp from Temps t"))
        count = engine.push_many("Temps", self.ROWS, [0.0, 1.0, 2.0])
        assert count == 3
        assert [r["t.temp"] for r in via_many.results] == rows_single

    def test_scalar_timestamp_applies_to_all(self, catalog, builder, engine):
        handle = engine.execute(builder.build_sql("select t.temp from Temps t"))
        engine.push_many("Temps", self.ROWS, 5.0)
        assert all(e.timestamp == 5.0 for e in handle.sink.elements)

    def test_timestamp_arity_mismatch_raises(self, catalog, engine):
        with pytest.raises(ExecutionError, match="timestamps"):
            engine.push_many("Temps", self.ROWS, [1.0, 2.0])

    def test_counts_ingested_even_without_queries(self, catalog, engine):
        before = engine.elements_ingested
        engine.push_many("Temps", self.ROWS, 0.0)
        assert engine.elements_ingested == before + 3

    def test_rows_validated_against_schema(self, catalog, builder, engine):
        engine.execute(builder.build_sql("select t.temp from Temps t"))
        with pytest.raises(Exception):
            engine.push_many("Temps", [{"room": "lab1"}], 0.0)  # missing field

    def test_generator_timestamps_materialized(self, catalog, builder, engine):
        handle = engine.execute(builder.build_sql("select t.temp from Temps t"))
        engine.push_many("Temps", self.ROWS, (float(i) for i in range(3)))
        assert [e.timestamp for e in handle.sink.elements] == [0.0, 1.0, 2.0]

    def test_rows_window_self_join_matches_repeated_push(self, catalog, builder):
        # ROWS windows evict by arrival count, so a self-join's output
        # depends on the inter-port interleaving: push_many must keep
        # repeated push()'s element-major order for multi-port queries.
        from repro.stream import StreamEngine

        sql = (
            "select a.temp, b.temp from Temps a [rows 2], Temps b [rows 2] "
            "where a.room = b.room"
        )
        rows = [{"room": "lab1", "temp": float(i)} for i in range(5)]
        stamps = [float(i) for i in range(5)]

        engine_a = StreamEngine(catalog)
        via_push = engine_a.execute(builder.build_sql(sql))
        for row, stamp in zip(rows, stamps):
            engine_a.push("Temps", row, stamp)

        engine_b = StreamEngine(catalog)
        via_many = engine_b.execute(builder.build_sql(sql))
        engine_b.push_many("Temps", rows, stamps)

        assert via_many.results == via_push.results
        # A second, single-port query on the same source still gets the
        # batched delivery and the same rows either way.
        engine_c = StreamEngine(catalog)
        single = engine_c.execute(builder.build_sql("select t.temp from Temps t"))
        both = engine_c.execute(builder.build_sql(sql))
        engine_c.push_many("Temps", rows, stamps)
        assert [r["t.temp"] for r in single.results] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert both.results == via_push.results


class TestLatestBatchCache:
    def _feed(self, engine, count, start_ts):
        for i in range(count):
            engine.push("Temps", {"room": "a", "temp": float(i)}, start_ts + i)

    def test_cached_result_matches_full_rescan(self, catalog, builder, engine):
        handle = engine.execute(builder.build_sql("select t.temp from Temps t"))
        self._feed(engine, 3, 0.0)
        engine.punctuate(2.0)
        self._feed(engine, 2, 2.0)

        def oracle():
            watermark = (
                handle.sink.punctuations[-1].watermark
                if handle.sink.punctuations
                else float("-inf")
            )
            return [e.row for e in handle.sink.elements if e.timestamp >= watermark]

        # Repeated polling (the GUI pattern) stays correct and cheap.
        for _ in range(3):
            assert handle.latest_batch() == oracle()
        self._feed(engine, 2, 4.0)
        assert handle.latest_batch() == oracle()
        engine.punctuate(4.5)
        self._feed(engine, 1, 5.0)
        assert handle.latest_batch() == oracle()

    def test_incremental_scan_position_advances(self, catalog, builder, engine):
        handle = engine.execute(builder.build_sql("select t.temp from Temps t"))
        self._feed(engine, 4, 0.0)
        handle.latest_batch()
        assert handle._scan_pos == 4
        self._feed(engine, 2, 4.0)
        handle.latest_batch()
        assert handle._scan_pos == 6

    def test_sink_clear_resets_cache(self, catalog, builder, engine):
        handle = engine.execute(builder.build_sql("select t.temp from Temps t"))
        self._feed(engine, 3, 0.0)
        assert len(handle.latest_batch()) == 3
        handle.sink.clear()
        assert handle.latest_batch() == []
        self._feed(engine, 1, 10.0)
        assert len(handle.latest_batch()) == 1

    def test_sink_clear_then_refill_past_old_length(self, catalog, builder, engine):
        # Regression: a refill to at least the pre-clear length must not
        # serve stale pre-clear rows from the cache.
        handle = engine.execute(builder.build_sql("select t.temp from Temps t"))
        self._feed(engine, 3, 0.0)
        assert [r["t.temp"] for r in handle.latest_batch()] == [0.0, 1.0, 2.0]
        handle.sink.clear()
        self._feed(engine, 4, 100.0)
        assert [r["t.temp"] for r in handle.latest_batch()] == [0.0, 1.0, 2.0, 3.0]


class TestBatchEvaluatorBoundary:
    def test_compiled_evaluate_rejects_wrong_arity_rows(self, catalog, builder):
        from repro.data import DataType, Row, Schema
        from repro.errors import SchemaError
        from repro.stream.batch import evaluate

        plan = builder.build_sql("select m.host from Machines m")
        good = Schema.of(
            ("host", DataType.STRING),
            ("room", DataType.STRING),
            ("desk", DataType.STRING),
            ("software", DataType.STRING),
        )
        ok = Row(good, ("h1", "lab1", "d1", "X"))
        short = Row(Schema.of(("host", DataType.STRING)), ("h2",))
        with pytest.raises(SchemaError, match="values but schema"):
            evaluate(plan, {"Machines": [ok, short]})
        # Well-formed rows still evaluate.
        out = evaluate(plan, {"Machines": [ok]})
        assert [r["m.host"] for r in out] == ["h1"]


class TestLoadTableRouting:
    def test_load_after_start_uses_routes(self, catalog, builder, engine):
        handle = engine.execute(builder.build_sql("select m.host from Machines m"))
        engine.load_table(
            "Machines",
            [{"host": "h9", "room": "lab1", "desk": "d1", "software": "X"}],
        )
        assert [r["m.host"] for r in handle.results] == ["h9"]
        engine.stop(handle)
        engine.load_table(
            "Machines",
            [{"host": "h10", "room": "lab1", "desk": "d1", "software": "X"}],
        )
        assert len(handle.results) == 1  # stopped query no longer fed


# ----------------------------------------------------------------------
# A run is rows and their stamps: no element on the batch path
# ----------------------------------------------------------------------
_READINGS = Schema.of(("room", DataType.STRING), ("host", DataType.STRING), ("temp", DataType.FLOAT))


def _counting_elements(monkeypatch) -> list[int]:
    """Count every StreamElement built from here on."""
    built = [0]
    init = StreamElement.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(StreamElement, "__init__", counting)
    return built


def _binds_no_element(fn) -> bool:
    return "_Element" not in fn.__compiled_source__ and not any(
        value is StreamElement for value in fn.__globals__.values()
    )


class _PositionalLog(CollectingConsumer):
    """A log that reads only values, stamps and sources, so a hand-built
    filter hands it source rows unlabelled."""

    positional = True


class TestRunsBuildNoElement:
    """``push_many`` of catalog-schema Rows through a single-route fused
    query into a cursor — a count, not a timing: no StreamElement is
    built on the way, the generated loops on it bind none, and the log
    stores the Rows the loop built (a filter's: the caller's own)."""

    def test_a_fused_query_into_a_cursor(self, monkeypatch):
        session = connect()
        session.attach(StreamSource("Readings", _READINGS))
        cursor = session.query("select r.host, r.temp * 2.0 as t2 from Readings r where r.temp > 10.0")
        engine = session.engine
        loop, op, schema = engine._fused_ingest["readings"]
        for fn in (loop, op._batch_fn, engine._ingest_loops[id(schema)]):
            assert _binds_no_element(fn)
        built_by_loop: list = []

        def capturing(rows, stamps):
            out = loop(rows, stamps)
            built_by_loop.extend(out[0])
            return out

        engine._fused_ingest["readings"] = (capturing, op, schema)
        rows = [Row(schema, (f"lab{i % 3}", f"ws{i}", float(i))) for i in range(64)]
        seen: list = []
        cursor.subscribe(seen.append)
        built = _counting_elements(monkeypatch)
        session.push_many("Readings", rows[:40], [float(i) for i in range(40)])
        session.push_many("Readings", rows[40:], [float(i) for i in range(40, 64)])
        assert built == [0]
        results = cursor.results()
        assert len(results) == 53 and len(built_by_loop) == 53
        assert all(ours is theirs for ours, theirs in zip(results, built_by_loop, strict=True))
        assert all(ours is theirs for ours, theirs in zip(seen, results, strict=True))
        session.close()

    def test_a_filter_forwards_the_callers_rows(self, monkeypatch):
        catalog = Catalog()
        catalog.register_stream("T", _READINGS, rate=1.0)
        entry = catalog.source("T")
        engine = StreamEngine(catalog)
        log = _PositionalLog()
        engine.execute(Select(Scan(entry, "t"), BinaryOp(">", ColumnRef("t.temp"), Literal(10.0))), log)
        loop, op, _ = engine._fused_ingest["t"]
        assert op.downstream is log and _binds_no_element(loop)
        rows = [Row(entry.schema, ("lab1", f"ws{i}", float(i))) for i in range(32)]
        built = _counting_elements(monkeypatch)
        engine.push_many("T", rows, [float(i) for i in range(32)])
        assert built == [0]
        assert all(ours is theirs for ours, theirs in zip(log.rows, rows[11:], strict=True))


def _log_rows(count: int) -> list[Row]:
    schema = Schema.of(("x", DataType.INT))
    return [Row.raw(schema, (i,)) for i in range(count)]


class TestLogChunks:
    """The log keeps one chunk per run, and a ``push`` extends the tail
    chunk of its source. Every reader's offsets may fall inside a chunk:
    each must read what it would read over one flat list of elements."""

    def _elements(self, rows, sources):
        return [StreamElement(row, float(i), source) for i, (row, source) in enumerate(zip(rows, sources))]

    def _store(self, log, elements, lo, hi, runs=()):
        """``elements[lo:hi]`` into ``log``: the ``runs`` slices of
        ``elements`` by ``push_batch``, the rest one by one by ``push``."""
        index = lo
        for start, end in runs:
            for element in elements[index:start]:
                log.push(element)
            run = elements[start:end]
            log.push_batch([e.row for e in run], [e.timestamp for e in run], run[0].source)
            index = end
        for element in elements[index:hi]:
            log.push(element)

    def test_views_slice_across_chunks(self):
        rows = _log_rows(20)
        elements = self._elements(rows, ["a"] * 7 + ["b"] * 3 + ["a"] * 10)
        log = CollectingConsumer()
        self._store(log, elements, 0, 3, [(0, 3)])
        view = LogView(log)  # starts at a chunk boundary
        self._store(log, elements, 3, 5)  # extends the batch's chunk
        inner = LogView(log)  # starts inside the tail chunk
        self._store(log, elements, 5, 12)
        assert len(log._chunks) == 3  # a, b, a: one per source change
        assert view.elements == elements[3:12] and inner.rows == rows[5:12]
        view.clear()  # moves its start to 12
        self._store(log, elements, 12, 20, [(13, 17)])
        inner.close()
        log.push(StreamElement(rows[0], 99.0, "a"))
        assert view.elements == [*elements[12:20], StreamElement(rows[0], 99.0, "a")]
        assert inner.elements == elements[5:20] and len(inner) == 15
        assert log.elements == [*elements, StreamElement(rows[0], 99.0, "a")]
        assert [row for chunk in log.runs(4, 15) for row in chunk[0]] == rows[4:15]

    def test_latest_batch_reads_across_chunks(self):
        rows = _log_rows(24)
        elements = self._elements(rows, ["a"] * 24)
        log = CollectingConsumer()
        handle = QueryHandle(1, None, None, log)

        def oracle():
            mark = log.punctuations[-1].watermark if log.punctuations else float("-inf")
            return [e.row for e in log.elements if e.timestamp >= mark]

        self._store(log, elements, 0, 10, [(2, 6)])
        assert handle.latest_batch() == oracle() == rows[:10]
        log.push(Punctuation(7.0))
        self._store(log, elements, 10, 18, [(12, 15)])
        assert handle.latest_batch() == oracle() == rows[7:18]
        log.clear()
        self._store(log, elements, 18, 24, [(19, 23)])
        assert handle.latest_batch() == oracle() == rows[18:24]

    def test_a_reentrant_delivery_is_stored_then_observed_in_order(self):
        rows = _log_rows(12)
        elements = self._elements(rows, ["a"] * 12)
        log = CollectingConsumer()
        observed: list = []
        views: list = []

        def feeding(run_rows, run_stamps, source):
            observed.append(list(run_rows))
            if len(observed) == 1:  # a callback feeding the log mid-fan-out
                self._store(log, elements, 4, 8, [(5, 8)])
                views.append(LogView(log))  # starts after what is stored

        log.observe(feeding)
        self._store(log, elements, 0, 4, [(0, 4)])
        self._store(log, elements, 8, 12)
        assert observed == [rows[0:4], rows[4:5], rows[5:8], *([row] for row in rows[8:12])]
        assert log.rows == rows and views[0].rows == rows[8:12]
