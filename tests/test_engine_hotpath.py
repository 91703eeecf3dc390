"""Engine ingestion hot path: routing index, push_many, latest_batch cache."""

import pytest

from repro.errors import ExecutionError


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
