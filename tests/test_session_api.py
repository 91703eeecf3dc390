"""End-to-end tests for the unified Session API (repro.api).

The headline suite runs the *same SQL text* through all three backends —
continuous stream, one-shot batch and distributed — and asserts the
identical result rows, which is the façade's core contract: routing is
an implementation detail behind ``session.query(text)``.
"""

from __future__ import annotations

import pytest

from repro.api import (
    PreparedStatement,
    SourceAdapter,
    StreamSource,
    TableSource,
    WrapperSource,
    connect,
)
from repro.api.cursor import Cursor
from repro.data import DataType, Schema
from repro.errors import QueryError, SessionClosedError, SourceError
from repro.runtime import Simulator

READINGS = Schema.of(("room", DataType.STRING), ("temp", DataType.FLOAT))
MACHINES = Schema.of(("host", DataType.STRING), ("room", DataType.STRING))
EDGES = Schema.of(("src", DataType.STRING), ("dst", DataType.STRING))

READING_ROWS = [
    {"room": "lab1", "temp": 28.0},
    {"room": "lab2", "temp": 18.5},
    {"room": "lab1", "temp": 31.5},
    {"room": "lab3", "temp": 24.0},
    {"room": "lab2", "temp": 26.25},
]

FILTER_PROJECT_SQL = (
    "select r.room, r.temp * 1.8 + 32.0 as fahrenheit "
    "from Readings r where r.temp > 20.0 and r.room like 'lab%'"
)

EXPECTED = sorted(
    (r["room"], r["temp"] * 1.8 + 32.0)
    for r in READING_ROWS
    if r["temp"] > 20.0
)


def _result_keys(cursor):
    return sorted((row["r.room"], row["fahrenheit"]) for row in cursor.results())


# ---------------------------------------------------------------------------
# Same SQL text, three backends, identical rows
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["stream", "batch", "distributed"])
def test_same_sql_same_rows_across_backends(mode):
    if mode == "batch":
        with connect() as session:
            session.attach(TableSource("Readings", READINGS, READING_ROWS))
            cursor = session.query(FILTER_PROJECT_SQL)
            assert cursor.kind == "batch"
            assert _result_keys(cursor) == EXPECTED
    elif mode == "stream":
        with connect() as session:
            session.attach(StreamSource("Readings", READINGS, rate=1.0))
            with session.query(FILTER_PROJECT_SQL) as cursor:
                assert cursor.kind == "stream"
                for i, row in enumerate(READING_ROWS):
                    session.push("Readings", row, float(i))
                assert _result_keys(cursor) == EXPECTED
    else:
        simulator = Simulator(3)
        with connect(simulator=simulator, nodes=["coord", "w1", "w2"]) as session:
            session.attach(StreamSource("Readings", READINGS, rate=1.0))
            cursor = session.query(FILTER_PROJECT_SQL, placement="auto")
            assert cursor.kind == "distributed"
            for i, row in enumerate(READING_ROWS):
                session.push("Readings", row, float(i))
            simulator.run_for(2.0)  # deliver across simulated LAN links
            assert _result_keys(cursor) == EXPECTED


def test_stream_and_batch_join_agree():
    sql = (
        "select r.room, m.host from Readings r, Machines m "
        "where r.room = m.room and r.temp > 20.0"
    )
    machines = [{"host": "ws1", "room": "lab1"}, {"host": "ws2", "room": "lab2"}]

    with connect() as session:
        session.attach(TableSource("Readings", READINGS, READING_ROWS))
        session.attach(TableSource("Machines", MACHINES, machines))
        batch_rows = sorted(
            (row["r.room"], row["m.host"]) for row in session.query(sql).results()
        )

    with connect() as session:
        session.attach(StreamSource("Readings", READINGS, rate=1.0))
        session.attach(TableSource("Machines", MACHINES, machines))
        cursor = session.query(sql)
        assert cursor.kind == "stream"  # one stream scan forces continuous
        for i, row in enumerate(READING_ROWS):
            session.push("Readings", row, float(i))
        stream_rows = sorted((row["r.room"], row["m.host"]) for row in cursor.results())

    assert batch_rows == stream_rows
    assert batch_rows  # non-vacuous


def test_engine_override_forces_stream_on_tables():
    with connect() as session:
        session.attach(TableSource("Readings", READINGS, READING_ROWS))
        cursor = session.query(FILTER_PROJECT_SQL, engine="stream")
        # Stored tables replay into new continuous queries.
        assert cursor.kind == "stream"
        assert _result_keys(cursor) == EXPECTED
        with pytest.raises(QueryError):
            session.query(FILTER_PROJECT_SQL, engine="sharded")


def test_batch_route_requires_tables():
    with connect() as session:
        session.attach(StreamSource("Readings", READINGS))
        with pytest.raises(QueryError):
            session.query(FILTER_PROJECT_SQL, engine="batch")


# ---------------------------------------------------------------------------
# Statement routing: views and recursion
# ---------------------------------------------------------------------------
def test_create_view_then_query_it():
    with connect() as session:
        session.attach(TableSource("Machines", MACHINES, [
            {"host": "ws1", "room": "lab1"},
            {"host": "ws2", "room": "lab2"},
        ]))
        created = session.query(
            "create view Lab1 as (select m.host from Machines m where m.room = 'lab1')"
        )
        assert created.kind == "view"
        assert created.view_name == "Lab1"
        assert created.results() == []
        rows = session.query("select v.host from Lab1 v").results()
        assert [row["v.host"] for row in rows] == ["ws1"]


def test_engine_placement_overrides_rejected_where_meaningless():
    with connect() as session:
        session.attach(TableSource("Edges", EDGES, [{"src": "a", "dst": "b"}]))
        recursive_sql = (
            "with recursive Reach(src, dst) as ("
            "  select e.src, e.dst from Edges e"
            "  union select r.src, e.dst from Reach r, Edges e where r.dst = e.src"
            ") select t.dst from Reach t"
        )
        with pytest.raises(QueryError, match="batch engine"):
            session.query(recursive_sql, engine="stream")
        with pytest.raises(QueryError, match="CREATE VIEW"):
            session.query(
                "create view V as (select e.src from Edges e)", engine="stream"
            )
        with pytest.raises(QueryError, match="distributed engine"):
            session.query(
                "select e.src from Edges e", engine="stream", placement="auto"
            )


def test_push_schema_mismatch_is_source_error():
    with connect() as session:
        session.attach(StreamSource("Readings", READINGS))
        with pytest.raises(SourceError):
            session.push("Readings", {"room": "a"}, 1.0)  # missing column
        with pytest.raises(SourceError):
            session.push_many("Readings", [READING_ROWS[0]], [1.0, 2.0])


def test_recursive_query_routes_to_batch():
    with connect() as session:
        session.attach(TableSource("Edges", EDGES, [
            {"src": "a", "dst": "b"},
            {"src": "b", "dst": "c"},
            {"src": "c", "dst": "d"},
        ]))
        cursor = session.query(
            "with recursive Reach(src, dst) as ("
            "  select e.src, e.dst from Edges e"
            "  union"
            "  select r.src, e.dst from Reach r, Edges e where r.dst = e.src"
            ") select t.dst from Reach t where t.src = 'a'"
        )
        assert cursor.kind == "batch"
        assert sorted(row["t.dst"] for row in cursor) == ["b", "c", "d"]


# ---------------------------------------------------------------------------
# Prepared statements
# ---------------------------------------------------------------------------
def test_prepared_batch_rebinds_compiled_plan():
    with connect() as session:
        session.attach(TableSource("Readings", READINGS, READING_ROWS))
        statement = session.prepare(
            "select r.room from Readings r where r.temp > :floor and r.temp < :ceil"
        )
        assert isinstance(statement, PreparedStatement)
        assert statement.parameters == ["ceil", "floor"]
        assert statement.route == "batch"

        plan_before = statement._plan
        first = sorted(r["r.room"] for r in statement.execute(floor=20.0, ceil=30.0))
        second = sorted(r["r.room"] for r in statement.execute(floor=25.0, ceil=32.0))
        assert first == ["lab1", "lab2", "lab3"]
        assert second == ["lab1", "lab1", "lab2"]
        # The same plan object served both executions (compiled once).
        assert statement._plan is plan_before


def test_prepared_stream_executions_are_independent():
    with connect() as session:
        session.attach(StreamSource("Readings", READINGS))
        statement = session.prepare(
            "select r.room from Readings r where r.temp > :limit"
        )
        assert statement.route == "stream"
        hot = statement.execute(limit=30.0)
        warm = statement.execute(limit=20.0)
        for i, row in enumerate(READING_ROWS):
            session.push("Readings", row, float(i))
        # Each running query keeps the binding it was started with.
        assert sorted(r["r.room"] for r in hot) == ["lab1"]
        assert sorted(r["r.room"] for r in warm) == ["lab1", "lab1", "lab2", "lab3"]


def test_prepared_parameter_validation():
    with connect() as session:
        session.attach(TableSource("Readings", READINGS, READING_ROWS))
        statement = session.prepare("select r.room from Readings r where r.temp > :limit")
        with pytest.raises(QueryError, match="missing parameters: limit"):
            statement.execute()
        with pytest.raises(QueryError, match="unknown parameters: bogus"):
            statement.execute(limit=1.0, bogus=2)


def test_query_params_shorthand():
    with connect() as session:
        session.attach(TableSource("Readings", READINGS, READING_ROWS))
        rows = session.query(
            "select r.room from Readings r where r.temp > :limit",
            params={"limit": 30.0},
        ).results()
        assert [row["r.room"] for row in rows] == ["lab1"]


# ---------------------------------------------------------------------------
# Sources: attach/detach symmetry and wrapper lifecycle
# ---------------------------------------------------------------------------
def test_attach_detach_symmetry_for_tables():
    with connect() as session:
        session.attach(TableSource("Readings", READINGS, READING_ROWS))
        assert session.catalog.has_source("Readings")
        assert len(session.table_rows("Readings")) == len(READING_ROWS)
        session.detach("Readings")
        assert not session.catalog.has_source("Readings")
        with pytest.raises(QueryError):
            session.query(FILTER_PROJECT_SQL)
        # Re-attach after detach works (symmetry).
        session.attach(TableSource("Readings", READINGS, READING_ROWS[:2]))
        assert len(session.table_rows("Readings")) == 2


def test_attach_conflicts_raise_source_error():
    with connect() as session:
        session.attach(StreamSource("Readings", READINGS))
        with pytest.raises(SourceError):
            session.attach(StreamSource("Readings", READINGS))
        with pytest.raises(SourceError):
            session.detach("nope")


def test_wrapper_source_lifecycle_owned_by_session():
    produced = []

    def produce(now):
        produced.append(now)
        return [{"room": "lab1", "temp": 25.0 + now}]

    session = connect()
    adapter = session.attach(
        WrapperSource(name="Readings", schema=READINGS, produce=produce, period=1.0)
    )
    assert isinstance(adapter, SourceAdapter)
    cursor = session.query("select r.temp from Readings r")
    session.simulator.run_for(5.0)
    assert adapter.wrapper.running
    assert len(cursor.results()) >= 4
    session.close()
    assert not adapter.wrapper.running
    ticks = len(produced)
    session.simulator.run_for(5.0)
    assert len(produced) == ticks  # polling stopped with the session


def test_wrapper_double_stop_is_safe():
    session = connect()
    adapter = session.attach(
        WrapperSource(
            name="Readings", schema=READINGS, produce=lambda now: [], period=1.0
        )
    )
    adapter.wrapper.stop()  # explicit stop first
    session.close()  # close must not raise on the already-stopped wrapper


# ---------------------------------------------------------------------------
# Cursor behaviour
# ---------------------------------------------------------------------------
def test_cursor_subscribe_and_iteration():
    with connect() as session:
        session.attach(StreamSource("Readings", READINGS))
        seen = []
        cursor = session.query("select r.room from Readings r where r.temp > 20.0")
        cursor.subscribe(lambda row: seen.append(row["r.room"]))
        for i, row in enumerate(READING_ROWS):
            session.push("Readings", row, float(i))
        assert seen == ["lab1", "lab1", "lab3", "lab2"]
        assert [row["r.room"] for row in cursor] == seen
        assert len(cursor) == 4
        assert cursor.description == ["r.room"]


@pytest.mark.parametrize("share", [True, False], ids=["view", "private sink"])
def test_cursor_len_counts_without_materialising_rows(share, monkeypatch):
    """``len(cursor)`` (and ``repr``) read the sink's or view's length:
    live, closed (frozen at close) and one-shot cursors alike, with
    ``results()`` never called."""
    with connect(share_plans=share) as session:
        session.attach(StreamSource("Readings", READINGS))
        session.attach(TableSource("T", READINGS, rows=READING_ROWS[:3]))
        sql = "select r.room from Readings r where r.temp > 20.0"
        live, closed = session.query(sql), session.query(sql)
        one_shot = session.query("select t.room from T t")
        assert one_shot.kind == "batch"
        for i, row in enumerate(READING_ROWS):
            session.push("Readings", row, float(i))
            if i == 1:
                closed.close()
        expected = [len(c.results()) for c in (live, closed, one_shot)]
        monkeypatch.setattr(Cursor, "results", lambda self: pytest.fail("rows copied"))
        assert [len(c) for c in (live, closed, one_shot)] == expected == [4, 1, 3]
        assert repr(closed) == "<Cursor stream closed rows=1>"


def test_cursor_latest_batch_follows_punctuation():
    with connect() as session:
        session.attach(StreamSource("Readings", READINGS))
        cursor = session.query("select r.room from Readings r")
        session.push("Readings", READING_ROWS[0], 1.0)
        session.push("Readings", READING_ROWS[1], 2.0)
        session.punctuate(2.0)
        session.push("Readings", READING_ROWS[2], 3.0)
        assert [row["r.room"] for row in cursor.latest_batch()] == ["lab2", "lab1"]


def test_cursor_close_is_idempotent_and_stops_routing():
    with connect() as session:
        session.attach(StreamSource("Readings", READINGS))
        cursor = session.query("select r.room from Readings r")
        session.push("Readings", READING_ROWS[0], 1.0)
        cursor.close()
        cursor.close()  # double close: no raise
        session.push("Readings", READING_ROWS[2], 2.0)
        assert len(cursor.results()) == 1  # nothing routed after close
    # session.close after explicit cursor.close: also safe (idempotent stop)


def test_query_handle_context_manager_double_stop():
    from repro.stream.engine import StreamEngine
    from repro.catalog import Catalog
    from repro.plan import PlanBuilder

    catalog = Catalog()
    catalog.register_stream("Readings", READINGS, rate=1.0)
    engine = StreamEngine(catalog)
    plan = PlanBuilder(catalog).build_sql("select r.room from Readings r")
    with engine.execute(plan) as handle:
        engine.push("Readings", READING_ROWS[0], 1.0)
        handle.stop()  # explicit stop inside the with-block
        engine.stop(handle)  # and an engine-level double stop
    # __exit__ ran stop() a third time without raising
    assert handle.results[0]["r.room"] == "lab1"
    assert not engine.running_queries


# ---------------------------------------------------------------------------
# Error funnel
# ---------------------------------------------------------------------------
def test_parse_errors_carry_source_position():
    with connect() as session:
        with pytest.raises(QueryError) as excinfo:
            session.query("select r.room frum Readings r")
        assert excinfo.value.line == 1
        assert excinfo.value.column > 1
        assert "frum" in excinfo.value.sql


def test_analysis_and_catalog_errors_become_query_errors():
    with connect() as session:
        session.attach(StreamSource("Readings", READINGS))
        with pytest.raises(QueryError):
            session.query("select r.nope from Readings r")
        with pytest.raises(QueryError):
            session.query("select x.a from NoSuchSource x")


@pytest.mark.parametrize("route", ["stream", "batch", "exchanged"])
def test_count_distinct_star_is_rejected_on_every_route(route):
    """COUNT(DISTINCT *) names no value to deduplicate (it used to
    answer 1 per group compiled and N interpreted): a positioned
    QueryError whichever engine the statement would have reached."""
    sql = "select count(distinct *) as n from Readings r"
    with connect(shards=2 if route == "exchanged" else 1) as session:
        if route == "batch":
            session.attach(TableSource("Readings", READINGS, READING_ROWS))
        else:
            session.attach(StreamSource("Readings", READINGS, partition_by="room"))
        # The plain forms are admitted, on the route the name says.
        session.query("select count(distinct r.room) as n from Readings r").close()
        with session.query("select count(*) as n from Readings r") as cursor:
            assert cursor.kind == ("batch" if route == "batch" else "stream")
            assert getattr(cursor._handle, "exchanged", False) == (route == "exchanged")
        with pytest.raises(QueryError, match=r"DISTINCT \*") as excinfo:
            session.query(sql)
        assert (excinfo.value.line, excinfo.value.column) == (1, sql.index("*") + 1)
        assert session.stats()["compile"]["fallbacks"] == 0


def test_closed_session_raises_everywhere():
    session = connect()
    session.attach(StreamSource("Readings", READINGS))
    session.close()
    session.close()  # idempotent
    with pytest.raises(SessionClosedError):
        session.query("select r.room from Readings r")
    with pytest.raises(SessionClosedError):
        session.push("Readings", READING_ROWS[0], 1.0)
    with pytest.raises(SessionClosedError):
        session.prepare("select r.room from Readings r")
    with pytest.raises(SessionClosedError):
        session.attach(TableSource("T", MACHINES))


def test_unbound_parameters_rejected_at_compile_time():
    with connect() as session:
        session.attach(StreamSource("Readings", READINGS))
        # Without bindings the statement must fail up front — never
        # start a pipeline that would raise mid-ingestion.
        with pytest.raises(QueryError, match="unbound parameters: limit"):
            session.query("select r.room from Readings r where r.temp > :limit")
        with pytest.raises(QueryError, match="unbound parameters"):
            session.query(
                "create view Hot as (select r.room from Readings r where r.temp > :x)"
            )
        # Ingestion on the source still works for everyone else.
        cursor = session.query("select r.room from Readings r")
        session.push("Readings", READING_ROWS[0], 1.0)
        assert len(cursor.results()) == 1


def test_table_detach_preserves_preexisting_tables():
    with connect() as session:
        # Someone else owns the table and its rows.
        session.catalog.register_table("Machines", MACHINES, cardinality=1)
        session.engine.load_table("Machines", [{"host": "ws1", "room": "lab1"}])
        session.attach(TableSource("Machines"))  # no-op adoption
        session.detach("Machines")
        assert session.catalog.has_source("Machines")
        assert len(session.table_rows("Machines")) == 1  # rows survive


def test_failed_detach_keeps_source_attached():
    class FlakySource:
        name = "Flaky"
        detach_calls = 0

        def attach(self, session):
            pass

        def detach(self, session):
            self.detach_calls += 1
            if self.detach_calls == 1:
                raise SourceError("transient failure")

    session = connect()
    adapter = session.attach(FlakySource())
    with pytest.raises(SourceError):
        session.detach("Flaky")
    assert session.attached() == ["Flaky"]  # still tracked for retry/close
    session.close()  # close retries the detach and must not raise
    assert adapter.detach_calls == 2


def test_output_to_display_routes_to_stream_even_over_tables():
    delivered = []
    session = connect(deliver=lambda display, element: delivered.append(display))
    session.catalog.register_display("wall", "lobby")
    session.attach(TableSource("Machines", MACHINES, [{"host": "ws1", "room": "lab1"}]))
    cursor = session.query("select m.host from Machines m output to display 'wall'")
    assert cursor.kind == "stream"  # batch would silently drop delivery
    session.punctuate(1.0)
    assert delivered == ["wall"]
    with pytest.raises(QueryError, match="OUTPUT TO DISPLAY"):
        session.query(
            "select m.host from Machines m output to display 'wall'", engine="batch"
        )
    session.close()


def test_punctuate_source_filter_reaches_distributed_ports():
    simulator = Simulator(7)
    with connect(simulator=simulator, nodes=["c", "w1", "w2"]) as session:
        session.attach(StreamSource("Readings", READINGS))
        session.attach(
            StreamSource(
                "Occupancy",
                Schema.of(("room", DataType.STRING), ("people", DataType.INT)),
            )
        )
        cursor = session.query(
            "select r.room, o.people from Readings r, Occupancy o "
            "where r.room = o.room",
            placement="auto",
        )
        session.punctuate(5.0, sources=["Readings"])
        simulator.run_for(1.0)
        sink = cursor._query.sink
        # Only the Readings port got the watermark; Occupancy's windows
        # stay open, matching StreamEngine.punctuate's filter.
        assert len(sink.punctuations) == 0  # join waits for both inputs
        session.punctuate(5.0)
        simulator.run_for(1.0)
        assert len(sink.punctuations) == 1


def test_push_and_push_many_stamp_identically():
    with connect() as session:
        session.attach(StreamSource("Readings", READINGS))
        cursor = session.query("select r.room from Readings r")
        session.simulator.run_for(50.0)
        session.push("Readings", READING_ROWS[0])  # defaults to now
        session.push_many("Readings", [READING_ROWS[2]])  # must match
        stamps = {e.timestamp for e in cursor._handle.sink.elements}
        assert stamps == {50.0}


def test_push_many_accepts_generators_for_rows_and_timestamps():
    # Regression: generators were consumed by the stream engine before
    # the distributed forwarding (and len() on one raised mid-ingest).
    with connect(nodes=["pc1", "pc2"]) as session:
        session.attach(StreamSource("Readings", READINGS))
        cursor = session.query("select r.room from Readings r")
        distributed = session.query(
            "select r.temp from Readings r", placement="auto"
        )
        count = session.push_many(
            "Readings",
            (row for row in READING_ROWS[:3]),
            (float(i) for i in range(3)),
        )
        assert count == 3
        assert [e.timestamp for e in cursor._handle.sink.elements] == [0.0, 1.0, 2.0]
        session.simulator.run_for(5.0)
        session.punctuate(10.0)
        session.simulator.run_for(5.0)
        assert len(distributed.results()) == 3


def test_failed_attach_rolls_back_registrations():
    def broken_factory(engine, simulator):
        raise SourceError("factory exploded")

    with connect() as session:
        with pytest.raises(SourceError):
            session.attach(
                WrapperSource(name="Readings", schema=READINGS, factory=broken_factory)
            )
        # The partial catalog registration was rolled back: re-attach works.
        assert not session.catalog.has_source("Readings")
        assert session.attached() == []
        session.attach(StreamSource("Readings", READINGS))


def test_failed_attach_rollback_spares_user_started_wrapper():
    from repro.wrappers.base import CallbackWrapper

    with connect() as session:
        wrapper = CallbackWrapper(
            "Readings", session.engine, session.simulator, 1.0, lambda now: []
        )
        wrapper.start()  # the caller owns this wrapper's lifecycle
        # Attach fails up front (source not in catalog, no schema given);
        # rollback must not stop a wrapper the attach never started.
        with pytest.raises(SourceError):
            session.attach(WrapperSource(wrapper=wrapper))
        assert wrapper.running
        # A successful attach then transfers shutdown ownership.
        session.attach(WrapperSource(wrapper=wrapper, schema=READINGS))
        session.detach("Readings")
        assert not wrapper.running


def test_mediated_execution_stops_cursors():
    from repro.core import MediatedExecution

    with connect() as session:
        session.attach(StreamSource("Readings", READINGS))
        cursor = session.query("select r.room from Readings r")
        mediated = MediatedExecution([cursor])
        session.push("Readings", READING_ROWS[0], 1.0)
        assert len(mediated.results) == 1
        mediated.stop()
        assert cursor.closed
        session.push("Readings", READING_ROWS[2], 2.0)
        assert len(mediated.results) == 1  # nothing routed after stop


def test_prepare_rejects_engine_override_for_recursive():
    with connect() as session:
        session.attach(TableSource("Edges", EDGES, [{"src": "a", "dst": "b"}]))
        sql = (
            "with recursive Reach(src, dst) as ("
            "  select e.src, e.dst from Edges e"
            "  union select r.src, e.dst from Reach r, Edges e where r.dst = e.src"
            ") select t.dst from Reach t"
        )
        with pytest.raises(QueryError, match="batch engine"):
            session.prepare(sql, engine="stream")
        assert session.prepare(sql, engine="batch").route == "batch"


def test_push_unknown_source_is_source_error():
    with connect() as session:
        with pytest.raises(SourceError):
            session.push("Ghost", {"x": 1}, 0.0)
        with pytest.raises(SourceError):
            session.load("Ghost", [{"x": 1}])


# ---------------------------------------------------------------------------
# SmartCIS integration: the session owns the app's wrapper lifecycle
# ---------------------------------------------------------------------------
def test_smartcis_stop_stops_wrappers_and_punctuator():
    from repro import SmartCIS

    app = SmartCIS(seed=1, lab_count=2, desks_per_lab=2, server_count=1)
    app.start()
    app.simulator.run_for(6.0)
    assert app.wrappers and all(w.running for w in app.wrappers)
    app.stop()
    assert all(not w.running for w in app.wrappers)
    assert app.punctuator._task is None
    assert not app.stream_engine.running_queries
    app.stop()  # idempotent


def test_smartcis_query_facade_runs_sql_text():
    from repro import SmartCIS

    with SmartCIS(seed=2, lab_count=2, desks_per_lab=2, server_count=1) as app:
        app.start()
        cursor = app.query("select ms.host, ms.cpu from MachineState ms")
        app.simulator.run_for(12.0)
        hosts = {row["ms.host"] for row in cursor.results()}
        assert hosts  # machine wrapper feeds the session query
