"""The ExecutionBackend layer, the sharded pool, and this PR's satellites.

Covers: backend routing behind the unchanged Session surface,
``connect(shards=N)``, ``StreamSource(partition_by=...)`` declarations,
the ``partition_safe`` analysis verdicts, pool mechanics (hash routing,
round-robin, table replication, fallback feed, watermark merging, stop),
queue-backed subscriptions, prepared-statement invalidation on close,
the batched stateful operators, and the compiled aggregate fold.
"""

from __future__ import annotations

from contextlib import nullcontext
from types import SimpleNamespace

import pytest
from conftest import declining, deliver, generated, interpreted

from repro.api import (
    BatchBackend,
    DistributedBackend,
    ExecutionBackend,
    SessionClosedError,
    ShardedStreamBackend,
    SourceError,
    StreamBackend,
    StreamSource,
    TableSource,
    connect,
)
from repro.api.cursor import Subscription
from repro.catalog import Catalog
from repro.data import DataType, Row, Schema, stable_hash
from repro.data.streams import (
    CallbackConsumer,
    CollectingConsumer,
    Punctuation,
    StreamElement,
    edge,
    park,
    replay,
)
from repro.data.windows import WindowSpec, assign_windows
from repro.errors import CatalogError, QueryError
from repro.plan import PlanBuilder
from repro.plan.logical import RemoteSource
from repro.sql.compiled import compile_accumulate
from repro.sql.expressions import (
    Accumulator,
    AggregateCall,
    BinaryOp,
    ColumnRef,
    Literal,
)
from repro.stream.compiler import _ReschemaConsumer
from repro.stream.engine import StreamEngine
from repro.stream.multiplex import TeeOp
from repro.stream.partition import partition_safe
from repro.stream.procshard import _FrameSink, usable_start_method
from repro.stream.sharded import (
    ShardedStreamEngine,
    _ExchangeFeed,
    _ExchangeState,
    _MergeCoordinator,
    _ShardFeed,
)
from repro.stream.operators import (
    AggregateOp,
    DistinctOp,
    FilterOp,
    FusedOp,
    LimitOp,
    MergeAggregateOp,
    OrderByOp,
    OutputOp,
    PartialAggregateOp,
    ProjectOp,
    SymmetricHashJoin,
)
from repro.sql.ast import OrderItem

READINGS = Schema.of(
    ("room", DataType.STRING),
    ("host", DataType.STRING),
    ("temp", DataType.FLOAT),
    ("load", DataType.FLOAT),
)

ROWS = [
    {"room": f"lab{i % 3}", "host": f"ws{i % 8}", "temp": 10.0 + i, "load": (i % 10) / 10.0}
    for i in range(40)
]


def _catalog() -> Catalog:
    catalog = Catalog()
    catalog.register_stream("Readings", READINGS, rate=10.0)
    return catalog


def _plan(sql: str, catalog: Catalog | None = None):
    return PlanBuilder(catalog or _catalog()).build_sql(sql)


# ----------------------------------------------------------------------
# The backend layer behind Session routing
# ----------------------------------------------------------------------
class TestBackendLayer:
    def test_session_installs_three_backend_peers(self):
        with connect() as session:
            for name, cls in (
                ("stream", StreamBackend),
                ("batch", BatchBackend),
                ("distributed", DistributedBackend),
            ):
                backend = session.backend(name)
                assert isinstance(backend, cls)
                assert isinstance(backend, ExecutionBackend)
                assert backend.name == name

    def test_sharded_session_swaps_the_stream_backend(self):
        with connect(shards=4) as session:
            backend = session.backend("stream")
            assert isinstance(backend, ShardedStreamBackend)
            assert backend.name == "stream"
            assert backend.shards == 4
            assert session.shards == 4
            assert isinstance(session.engine, ShardedStreamEngine)
        with connect() as session:
            assert session.shards == 1
            assert isinstance(session.engine, StreamEngine)

    def test_unknown_backend_name_raises(self):
        with connect() as session:
            with pytest.raises(QueryError, match="unknown engine"):
                session.backend("warp")

    def test_injected_engine_cannot_be_sharded(self):
        engine = StreamEngine(Catalog())
        with pytest.raises(QueryError, match="cannot be sharded"):
            connect(engine=engine, shards=2)

    def test_stream_backend_close_leaves_injected_engine_running(self):
        catalog = _catalog()
        engine = StreamEngine(catalog)
        outside = engine.execute(_plan("select r.host from Readings r", catalog))
        session = connect(catalog=catalog, engine=engine)
        session.close()
        assert outside in engine.running_queries  # not ours to stop

    def test_owned_engine_queries_stop_on_close(self):
        session = connect()
        session.attach(StreamSource("Readings", READINGS))
        session.query("select r.host from Readings r")
        engine = session.engine
        session.close()
        assert engine.running_queries == []

    def test_same_results_across_shard_counts_via_session(self):
        sql = (
            "select r.host, count(*) as n from Readings r "
            "[range 10 seconds slide 10 seconds] group by r.host"
        )

        def run(shards):
            session = connect(shards=shards) if shards > 1 else connect()
            session.attach(StreamSource("Readings", READINGS, partition_by="host"))
            cursor = session.query(sql)
            for index, row in enumerate(ROWS):
                session.push("Readings", row, float(index))
            session.punctuate(100.0)
            rows = sorted(repr(r.values) for r in cursor.results())
            session.close()
            return rows

        assert run(2) == run(1)
        assert run(4) == run(1)

    def test_batch_and_distributed_unaffected_by_sharding(self):
        with connect(shards=3, nodes=["pc1", "pc2"]) as session:
            session.attach(TableSource("T", READINGS, rows=ROWS[:10]))
            batch = session.query("select t.host from T t", engine="batch")
            assert len(batch.results()) == 10
            session.attach(StreamSource("Readings", READINGS))
            distributed = session.query(
                "select r.host from Readings r", placement="auto"
            )
            assert distributed.kind == "distributed"


# ----------------------------------------------------------------------
# Process workers: backend selection, degradation, stats
# ----------------------------------------------------------------------
class TestProcessWorkersSession:
    def _ra313(self, session):
        report = session.explain("select r.host from Readings r")
        return [d for d in report.diagnostics if d.code == "RA313"]

    def test_process_session_runs_and_reports_worker_stats(self):
        from repro.api.backends import ProcessShardBackend
        from repro.stream.procshard import ProcessShardEngine, usable_start_method

        if usable_start_method() is None:
            pytest.skip("no multiprocessing start method")
        with connect(shards=2, workers="process") as session:
            assert isinstance(session.backend("stream"), ProcessShardBackend)
            assert isinstance(session.engine, ProcessShardEngine)
            session.attach(StreamSource("Readings", READINGS, partition_by="host"))
            cursor = session.query("select r.host, r.temp from Readings r")
            for index, row in enumerate(ROWS):
                session.push("Readings", row, float(index))
            session.punctuate(100.0)
            assert len(cursor.results()) == len(ROWS)
            workers = session.stats()["workers"]
            assert workers["workers"] == 2
            assert workers["rows_shipped"] == len(ROWS)
            assert workers["batches_shipped"] >= 1
            assert workers["restarts"] == 0
            # A healthy process session carries no degradation notice.
            assert self._ra313(session) == []

    def test_no_start_method_degrades_with_ra313(self, monkeypatch):
        import repro.stream.procshard as procshard

        monkeypatch.setattr(procshard, "usable_start_method", lambda: None)
        with connect(shards=2, workers="process") as session:
            from repro.api.backends import ProcessShardBackend

            assert isinstance(session.backend("stream"), ShardedStreamBackend)
            assert not isinstance(session.backend("stream"), ProcessShardBackend)
            assert isinstance(session.engine, ShardedStreamEngine)
            session.attach(StreamSource("Readings", READINGS, partition_by="host"))
            diags = self._ra313(session)
            assert len(diags) == 1
            assert diags[0].severity == "info"
            # The degraded pool still executes queries normally.
            cursor = session.query("select r.host from Readings r")
            session.push("Readings", ROWS[0], 0.0)
            session.punctuate(10.0)
            assert len(cursor.results()) == 1

    def test_single_shard_process_request_degrades_with_ra313(self):
        with connect(shards=1, workers="process") as session:
            assert isinstance(session.backend("stream"), StreamBackend)
            session.attach(StreamSource("Readings", READINGS))
            diags = self._ra313(session)
            assert len(diags) == 1
            assert "shards" in diags[0].message

    def test_unknown_workers_mode_raises(self):
        with pytest.raises(QueryError, match="workers mode"):
            connect(shards=2, workers="threads")

    def test_inline_session_has_no_worker_stats(self):
        with connect(shards=2) as session:
            assert "workers" not in session.stats()

    def test_prepared_statement_falls_back_to_in_parent_engine(self):
        """Bound parameters live in the plan, not the SQL text, so the
        text is not shippable — the query runs on the fallback engine
        with identical semantics."""
        from repro.stream.procshard import usable_start_method

        if usable_start_method() is None:
            pytest.skip("no multiprocessing start method")
        with connect(shards=2, workers="process") as session:
            session.attach(StreamSource("Readings", READINGS, partition_by="host"))
            statement = session.prepare(
                "select r.host from Readings r where r.temp > :limit"
            )
            cursor = statement.execute(limit=30.0)
            assert not cursor._handle.partitioned
            for index, row in enumerate(ROWS):
                session.push("Readings", row, float(index))
            session.punctuate(100.0)
            expected = len([r for r in ROWS if r["temp"] > 30.0])
            assert len(cursor.results()) == expected


# ----------------------------------------------------------------------
# Partition-key declarations on sources
# ----------------------------------------------------------------------
class TestPartitionByDeclaration:
    def test_partition_by_reaches_the_pool_and_detaches(self):
        with connect(shards=2) as session:
            source = StreamSource("Readings", READINGS, partition_by="host")
            session.attach(source)
            assert session.engine.partition_key("Readings") == "host"
            session.detach("Readings")
            assert session.engine.partition_key("Readings") is None

    def test_partition_by_is_a_noop_on_unsharded_sessions(self):
        with connect() as session:
            session.attach(StreamSource("Readings", READINGS, partition_by="host"))
            session.push("Readings", ROWS[0], 1.0)  # still ingests fine

    def test_unknown_partition_column_fails_attach(self):
        with connect(shards=2) as session:
            with pytest.raises(SourceError, match="nope"):
                session.attach(
                    StreamSource("Readings", READINGS, partition_by="nope")
                )
            # Rollback left no half-registered source behind.
            assert "readings" not in [n.lower() for n in session.attached()]
            session.attach(StreamSource("Readings", READINGS, partition_by="host"))


# ----------------------------------------------------------------------
# The partition-safety analysis
# ----------------------------------------------------------------------
class TestPartitionSafe:
    KEYS = {"readings": "host"}

    def check(self, sql, keys=None):
        return partition_safe(_plan(sql), self.KEYS if keys is None else keys)

    def test_stateless_chain_is_safe_even_round_robin(self):
        verdict = self.check(
            "select r.host, r.temp from Readings r where r.temp > 5.0", keys={}
        )
        assert verdict.safe

    def test_keyed_window_aggregate_is_safe_and_tracks_key(self):
        verdict = self.check(
            "select r.host, count(*) as n from Readings r "
            "[range 10 seconds slide 10 seconds] group by r.host"
        )
        assert verdict.safe

    def test_aggregate_without_key_coverage_is_unsafe(self):
        verdict = self.check(
            "select r.room, count(*) as n from Readings r "
            "[range 10 seconds slide 10 seconds] group by r.room"
        )
        assert not verdict.safe
        assert "cover" in verdict.reason

    def test_global_aggregate_is_unsafe(self):
        assert not self.check(
            "select count(*) as n from Readings r [range 10 seconds slide 10 seconds]"
        ).safe

    def test_aggregate_over_round_robin_source_is_unsafe(self):
        assert not self.check(
            "select r.host, count(*) as n from Readings r "
            "[range 10 seconds slide 10 seconds] group by r.host",
            keys={},
        ).safe

    def test_order_by_and_limit_are_unsafe(self):
        assert "ORDER BY" in self.check(
            "select r.temp from Readings r order by r.temp"
        ).reason
        assert "LIMIT" in self.check(
            "select r.temp from Readings r limit 3"
        ).reason

    def test_rows_window_is_unsafe(self):
        assert "ROWS window" in self.check(
            "select r.temp from Readings r [rows 10]"
        ).reason

    def test_distinct_keeps_safety_only_with_the_key(self):
        assert self.check("select distinct r.host, r.room from Readings r").safe
        assert not self.check("select distinct r.room from Readings r").safe

    def test_projection_may_rename_the_key(self):
        verdict = self.check(
            "select r.host as machine, r.temp from Readings r where r.temp > 1.0"
        )
        assert verdict.safe and "machine" in verdict.key_columns

    def test_table_only_plan_is_unsafe_replicated(self):
        catalog = Catalog()
        catalog.register_table("T", READINGS, cardinality=10)
        verdict = partition_safe(
            _plan("select t.host from T t", catalog), {"t": "host"}
        )
        assert not verdict.safe
        assert "replicated" in verdict.reason


# ----------------------------------------------------------------------
# Pool mechanics
# ----------------------------------------------------------------------
class TestShardedEngine:
    def _pool(self, shards=3):
        catalog = _catalog()
        pool = ShardedStreamEngine(catalog, shards=shards)
        pool.set_partition_key("Readings", "host")
        return catalog, pool

    def test_stable_hash_is_deterministic_and_type_bridging(self):
        assert stable_hash("lab1") == stable_hash("lab1")
        assert stable_hash(3) == stable_hash(3.0)
        assert stable_hash(None) == stable_hash(None)
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))
        assert stable_hash("a") != stable_hash("b")

    def test_same_key_routes_to_same_shard(self):
        catalog, pool = self._pool()
        handle = pool.execute(
            _plan("select r.host, r.temp from Readings r where r.temp > -1e9", catalog)
        )
        assert handle.partitioned
        for i in range(30):
            pool.push("Readings", {"room": "x", "host": "ws1", "temp": float(i), "load": 0.1}, float(i))
        owner = stable_hash("ws1") % pool.shard_count
        assert pool.engines[owner].elements_ingested == 30
        assert sum(e.elements_ingested for e in pool.engines) == 30
        assert pool.elements_ingested == 30

    def test_ingest_and_exchange_send_equal_keys_to_equal_shards(self):
        """The pool's ingest router (``_route``, over its owner memo) and
        an exchange's ``deposit_run`` send each key value to the same
        shard, first seen and seen again; the memo counts every keyed
        row as a hit or a miss, and an unhashable key routes by
        ``stable_hash`` alone."""
        _, pool = self._pool(shards=3)
        keys = [f"ws{i}" for i in range(12)] + [3, 3.0, None, ("a", 1)]
        rows = [Row.raw(READINGS, ("lab", key, 1.0, 0.5)) for key in keys]
        routed = {}
        for _ in range(2):
            per_rows, per_stamps = pool._route("readings", rows, [0.0] * len(rows))
            assert [len(s) for s in per_stamps] == [len(r) for r in per_rows]
            for shard, shard_rows in enumerate(per_rows):
                for row in shard_rows:
                    assert routed.setdefault(row.values[1], shard) == shard
        stats = pool.stats()
        assert stats["owner_cache_misses"] == len(set(keys)) == len(keys) - 1  # 3 == 3.0
        assert stats["owner_cache_hits"] == 2 * len(keys) - stats["owner_cache_misses"]
        port = SimpleNamespace(name="x", key_positions=(0,), stage1=RemoteSource("xs", _X, 1.0))
        state = _ExchangeState(SimpleNamespace(specs=[port]), [0, 1, 2], {})
        state.deposit_run(0, 0, [(key,) for key in keys], [0.0] * len(keys))
        exchanged = {
            values[0]: dest
            for dest in state.dests
            for _, run, _ in state.flush(dest)
            for values in run
        }
        assert exchanged == routed
        unhashable = Row.raw(READINGS, ("lab", ["ws1"], 1.0, 0.5))
        per_rows, _ = pool._route("readings", [unhashable], None)
        assert per_rows[stable_hash(["ws1"]) % 3] == [unhashable]

    def test_round_robin_spreads_without_a_key(self):
        catalog = _catalog()
        pool = ShardedStreamEngine(catalog, shards=3)
        pool.execute(_plan("select r.temp from Readings r", catalog))
        pool.push_many("Readings", ROWS[:30], [float(i) for i in range(30)])
        assert [e.elements_ingested for e in pool.engines] == [10, 10, 10]

    def test_invalid_partition_key_raises(self):
        _, pool = self._pool()
        with pytest.raises(CatalogError, match="not a column"):
            pool.set_partition_key("Readings", "bogus")

    def test_tables_replicate_to_every_engine(self):
        catalog, pool = self._pool()
        catalog.register_table("T", READINGS, cardinality=3)
        pool.load_table("T", ROWS[:3])
        for engine in pool.engines + [pool.fallback_engine]:
            assert len(engine.table_rows("T")) == 3
        assert len(pool.table_rows("T")) == 3
        pool.drop_table("T")
        for engine in pool.engines + [pool.fallback_engine]:
            assert engine.table_rows("T") == []

    def test_fallback_engine_fed_only_while_subscribed(self):
        catalog, pool = self._pool()
        pool.push("Readings", ROWS[0], 1.0)
        assert pool.fallback_engine.elements_ingested == 0  # nobody listening
        handle = pool.execute(
            _plan("select r.temp from Readings r order by r.temp", catalog)
        )
        assert not handle.partitioned
        pool.push("Readings", ROWS[1], 2.0)
        assert pool.fallback_engine.elements_ingested == 1
        handle.stop()
        pool.push("Readings", ROWS[2], 3.0)
        assert pool.fallback_engine.elements_ingested == 1

    def test_merged_sink_forwards_one_punctuation_per_watermark(self):
        catalog, pool = self._pool(shards=4)
        handle = pool.execute(
            _plan("select r.host from Readings r where r.load >= 0.0", catalog)
        )
        pool.push_many("Readings", ROWS[:8], [float(i) for i in range(8)])
        pool.punctuate(10.0)
        pool.punctuate(20.0)
        assert [p.watermark for p in handle.sink.punctuations] == [10.0, 20.0]

    def test_stop_unregisters_every_replica(self):
        catalog, pool = self._pool()
        handle = pool.execute(_plan("select r.temp from Readings r", catalog))
        assert pool.running_queries == [handle]
        handle.stop()
        handle.stop()  # idempotent
        assert pool.running_queries == []
        for engine in pool.engines:
            assert engine.running_queries == []

    def test_shard_stats_expose_partition_spread(self):
        catalog, pool = self._pool()
        handle = pool.execute(
            _plan("select r.host from Readings r where r.load >= 0.0", catalog)
        )
        pool.push_many(
            "Readings", ROWS[:24], [float(i) for i in range(24)]
        )
        stats = handle.shard_stats
        assert len(stats) == pool.shard_count
        total = sum(s.get("FusedOp.in", s.get("FilterOp.in", 0)) for s in stats)
        assert total == 24

    def test_mismatched_timestamp_arity_raises_before_routing(self):
        catalog, pool = self._pool()
        with pytest.raises(Exception, match="timestamps"):
            pool.push_many("Readings", ROWS[:3], [1.0, 2.0])

    def test_shard_count_must_be_positive(self):
        with pytest.raises(Exception, match="shard count"):
            ShardedStreamEngine(_catalog(), shards=0)


# ----------------------------------------------------------------------
# Satellite: queue-backed subscriptions
# ----------------------------------------------------------------------
class TestQueueSubscriptions:
    def _session(self, shards=1):
        session = connect(shards=shards) if shards > 1 else connect()
        session.attach(StreamSource("Readings", READINGS, partition_by="host"))
        return session

    def test_direct_mode_still_delivers_inline(self):
        with self._session() as session:
            cursor = session.query("select r.host from Readings r")
            seen = []
            subscription = cursor.subscribe(seen.append)
            session.push("Readings", ROWS[0], 1.0)
            assert [r["r.host"] for r in seen] == ["ws0"]
            assert subscription.pending == 0

    def test_queue_mode_defers_until_drain(self):
        with self._session() as session:
            cursor = session.query("select r.host from Readings r")
            seen = []
            subscription = cursor.subscribe(seen.append, mode="queue")
            session.push_many("Readings", ROWS[:5], 1.0)
            assert seen == [] and subscription.pending == 5
            assert subscription.drain(limit=2) == 2
            assert len(seen) == 2 and subscription.pending == 3
            assert cursor.drain() == 3
            assert len(seen) == 5

    def test_raising_callback_cannot_stall_the_emit_path(self):
        with self._session() as session:
            cursor = session.query("select r.host from Readings r")

            def explode(row):
                raise RuntimeError("slow consumer gone wrong")

            subscription = cursor.subscribe(explode, mode="queue")
            session.push_many("Readings", ROWS[:3], 1.0)  # emit path unaffected
            assert subscription.pending == 3
            with pytest.raises(RuntimeError):
                subscription.drain()
            # At-least-once: the failing item stays at the queue head
            # (nothing behind it is lost either); a recovered consumer
            # drains the full queue on retry.
            assert subscription.pending == 3
            seen = []
            subscription.callback = seen.append
            assert subscription.drain() == 3
            assert [r["r.host"] for r in seen] == ["ws0", "ws1", "ws2"]
            assert subscription.pending == 0

    def test_batched_emissions_reach_subscribers(self):
        # Regression: producers cache sink.push_batch at wiring time, so
        # the subscription tap must still observe batched pushes.
        with self._session() as session:
            cursor = session.query("select r.host from Readings r")
            seen = []
            cursor.subscribe(seen.append)
            session.push_many("Readings", ROWS[:7], 2.0)
            assert len(seen) == 7

    def test_sharded_merge_cursor_subscriptions(self):
        with self._session(shards=3) as session:
            cursor = session.query(
                "select r.host, count(*) as n from Readings r "
                "[range 10 seconds slide 10 seconds] group by r.host"
            )
            seen = []
            subscription = cursor.subscribe(seen.append, mode="queue", elements=True)
            session.push_many(
                "Readings", ROWS[:20], [float(i) for i in range(20)]
            )
            session.punctuate(50.0)
            assert seen == []
            cursor.drain()
            assert {e.row["r.host"] for e in seen} == {r["host"] for r in ROWS[:20]}

    def test_one_shot_cursor_queue_mode_drains_via_cursor(self):
        with connect() as session:
            session.attach(TableSource("T", READINGS, rows=ROWS[:6]))
            cursor = session.query("select t.host from T t")
            assert cursor.kind == "batch"
            seen = []
            subscription = cursor.subscribe(seen.append, mode="queue")
            assert seen == [] and subscription.pending == 6
            assert cursor.drain() == 6
            assert len(seen) == 6

    def test_unknown_mode_rejected(self):
        with self._session() as session:
            cursor = session.query("select r.host from Readings r")
            with pytest.raises(QueryError, match="unknown subscription mode"):
                cursor.subscribe(lambda row: None, mode="async")


class _Flaky:
    """A callback that raises once, on the ``fail_at``-th call, and
    records every row it accepted."""

    def __init__(self, fail_at: int):
        self.fail_at = fail_at
        self.calls = 0
        self.seen: list = []

    def __call__(self, row):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("consumer hiccup")
        self.seen.append(row)


class TestRunDelivery:
    """A cursor's sink hands each emitted run to every subscription in
    one dispatch; delivery stays at-least-once and in sink order."""

    SQL = "select r.host from Readings r"

    def _session(self, shards=1, **options):
        session = connect(shards=shards, **options) if shards > 1 else connect()
        session.attach(StreamSource("Readings", READINGS, partition_by="host"))
        return session

    def test_a_raising_callback_keeps_the_rest_of_its_run(self):
        """The callback raises on the 2nd of a 5-row run: rows 2-5 stay
        queued in order (one used to be delivered and three lost), and
        a drain delivers each of them once."""
        with self._session() as session:
            cursor = session.query(self.SQL)
            flaky = _Flaky(fail_at=2)
            subscription = cursor.subscribe(flaky)
            with pytest.raises(RuntimeError, match="hiccup"):
                session.push_many("Readings", ROWS[:5], 1.0)
            assert flaky.seen == cursor.results()[:1] and subscription.pending == 4
            assert cursor.drain() == 4
            assert flaky.seen == cursor.results() and len(flaky.seen) == 5
            session.push("Readings", ROWS[5], 2.0)  # later runs deliver inline
            assert flaky.seen == cursor.results() and subscription.pending == 0

    def test_one_shot_replay_keeps_the_rest_of_its_run(self):
        with connect() as session:
            session.attach(TableSource("T", READINGS, rows=ROWS[:5]))
            cursor = session.query("select t.host from T t")
            assert cursor.kind == "batch"
            flaky = _Flaky(fail_at=2)
            with pytest.raises(RuntimeError, match="hiccup"):
                cursor.subscribe(flaky)
            assert len(flaky.seen) == 1
            assert cursor.drain() == 4
            assert flaky.seen == cursor.results() and len(flaky.seen) == 5

    @pytest.mark.parametrize("twin", [False, True], ids=["alone", "twin on one log"])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_reentrant_push_is_delivered_after_the_run_exactly_once(self, shards, twin):
        """A callback that feeds the session: the rows it causes reach
        every subscription after the run in flight, once, and every
        subscription — the feeding one and the one after it — sees the
        sink's order. With a twin cursor (on one engine, a second view
        of the same result log) the twin's subscription, after the
        feeding one on the log, never sees the nested run first."""
        with self._session(shards) as session:
            cursor = session.query(self.SQL)
            other_cursor = session.query(self.SQL) if twin else cursor
            if twin and shards == 1:
                assert cursor._handle.sink.log is other_cursor._handle.sink.log
            fed, other = [], []

            def feeding(row):
                fed.append(row)
                if len(fed) == 1:
                    session.push("Readings", ROWS[10], 5.0)
                    session.push_many("Readings", ROWS[11:13], 6.0)

            cursor.subscribe(feeding)
            other_cursor.subscribe(other.append)
            session.push_many("Readings", ROWS[:4], 1.0)
            session.push("Readings", ROWS[4], 2.0)
            assert len(cursor.results()) == len(other_cursor.results()) == 8
            assert fed == cursor.results() and other == other_cursor.results()
            if shards == 1:
                assert fed == other  # one log, one order

    @pytest.mark.parametrize("order", ["subscribe then push", "push then subscribe"])
    def test_a_subscription_made_in_a_callback_starts_with_the_next_run(self, order):
        """It gets exactly the rows that enter the sink after
        ``subscribe()`` returns — not the rest of the run in flight, nor
        a run the callback fed in before subscribing."""
        with self._session() as session:
            cursor = session.query(self.SQL)
            late, mark = [], []

            def opener(row):
                if mark:
                    return
                if order == "push then subscribe":
                    session.push("Readings", ROWS[10], 5.0)
                mark.append(len(cursor.results()))
                cursor.subscribe(late.append)
                if order == "subscribe then push":
                    session.push("Readings", ROWS[11], 5.0)

            cursor.subscribe(opener)
            session.push_many("Readings", ROWS[:3], 1.0)
            session.push_many("Readings", ROWS[3:5], 2.0)
            assert mark == [4 if order == "push then subscribe" else 3]
            assert late == cursor.results()[mark[0]:]
            assert len(late) == (2 if order == "push then subscribe" else 3)

    def test_close_inside_a_callback_finishes_the_run(self):
        """The run entered the sink before the close, so every
        subscription still gets all of it; nothing arrives after."""
        with self._session() as session:
            cursor = session.query(self.SQL)
            closer, other = [], []
            cursor.subscribe(lambda row: (closer.append(row), cursor.close()))
            cursor.subscribe(other.append)
            session.push_many("Readings", ROWS[:3], 1.0)
            session.push_many("Readings", ROWS[3:6], 2.0)
            assert cursor.closed
            assert closer == other == cursor.results() and len(other) == 3

    def test_several_subscriptions_rows_and_elements(self):
        with self._session() as session:
            cursor = session.query(self.SQL)
            rows, elements, queued = [], [], []
            cursor.subscribe(rows.append)
            cursor.subscribe(elements.append, elements=True)
            queue = cursor.subscribe(queued.append, mode="queue")
            session.push_many("Readings", ROWS[:3], [1.0, 2.0, 3.0])
            session.push("Readings", ROWS[3], 4.0)
            assert rows == [e.row for e in elements] == cursor.results()
            assert [e.timestamp for e in elements] == [1.0, 2.0, 3.0, 4.0]
            assert queued == [] and queue.pending == 4
            assert cursor.drain() == 4 and queued == rows

    def test_queue_mode_drain_limit_crosses_runs(self):
        with self._session() as session:
            cursor = session.query(self.SQL)
            seen = []
            subscription = cursor.subscribe(seen.append, mode="queue")
            session.push_many("Readings", ROWS[:3], 1.0)
            session.push_many("Readings", ROWS[3:6], 2.0)
            assert subscription.drain(limit=4) == 4 and subscription.pending == 2
            subscription.callback = _Flaky(fail_at=1)
            with pytest.raises(RuntimeError, match="hiccup"):
                subscription.drain(limit=2)
            assert subscription.pending == 2  # the failing row is back at the head
            subscription.callback = seen.append
            assert subscription.drain() == 2
            assert seen == cursor.results()

    @pytest.mark.parametrize("shards, workers", [(1, None), (2, None), (4, None), (2, "process")])
    def test_pool_cursors_deliver_in_sink_order(self, shards, workers):
        if workers == "process":
            from repro.stream.procshard import usable_start_method

            if usable_start_method() is None:
                pytest.skip("no multiprocessing start method")
        options = {"workers": workers} if workers else {}
        with self._session(shards, **options) as session:
            cursors = [
                session.query(self.SQL),
                session.query(
                    "select r.host, count(*) as n from Readings r "
                    "[range 10 seconds slide 10 seconds] group by r.host"
                ),
            ]
            seen = [[] for _ in cursors]
            for cursor, out in zip(cursors, seen):
                cursor.subscribe(out.append)
            session.push_many("Readings", ROWS[:20], [float(i) for i in range(20)])
            for index, row in enumerate(ROWS[20:30], 20):
                session.push("Readings", row, float(index))
            session.punctuate(50.0)
            for cursor, out in zip(cursors, seen):
                assert out and out == cursor.results()

    @pytest.mark.parametrize("twin", [False, True], ids=["alone", "twin on one log"])
    def test_a_run_costs_one_dispatch(self, twin, monkeypatch):
        """One call per run per subscription — the sink hands the run
        to each subscription directly (a cursor has no dispatcher of
        its own), and a twin cursor's subscription on the same log is
        one more call, not one more copy."""
        calls = []
        enqueue = Subscription._enqueue

        def counted(self, run):
            calls.append(len(run))
            return enqueue(self, run)

        monkeypatch.setattr(Subscription, "_enqueue", counted)
        with self._session() as session:
            cursors = [session.query(self.SQL) for _ in range(2 if twin else 1)]
            seen = []
            for cursor in cursors:
                cursor.subscribe(seen.append)
            session.push_many("Readings", ROWS[:25], 1.0)
            assert calls == [25] * len(cursors) and len(seen) == 25 * len(cursors)
            if twin:
                assert cursors[0]._handle.sink.log is cursors[1]._handle.sink.log


#: Every pool the hand-off rule must hold on: one engine, two loopback
#: shards, two worker processes behind the framed channel (ids as the
#: ``shards`` parameters they replaced).
POOLS = [
    pytest.param({}, id="1"),
    pytest.param({"shards": 2}, id="2"),
    pytest.param(
        {"shards": 2, "workers": "process"},
        id="framed",
        marks=pytest.mark.skipif(
            usable_start_method() is None, reason="no multiprocessing start method"
        ),
    ),
]
#: Stamps 1…30: one punctuate(30.0) closes three 10-second windows.
STAMPS = [float(i) for i in range(1, 31)]
COUNT = (
    "select r.host, count(*) as n from R r "
    "[range 10 seconds slide 10 seconds] group by r.host"
)


class TestFanOutFinishesFirst:
    """A raise never crosses a hand-off: a raising subscriber or
    operator on one cursor costs no other cursor — nor the operator
    that emitted the run — a row. Every fan-out (subscriptions, tee
    branches, engine routes, pool shards, the frame pump) and every
    ``emit`` parks the exception, and the verb raises the first one
    once its work is done."""

    @staticmethod
    def _raises(row):
        raise RuntimeError("subscriber bug")

    @staticmethod
    def _session(pool, share):
        session = connect(share_plans=share, **pool)
        session.attach(StreamSource("R", READINGS, partition_by="host"))
        return session

    @staticmethod
    def _reference(sql):
        """Sorted result values of ``sql`` on a plain engine fed the 30
        rows and the punctuation that closes three windows."""
        with connect() as reference:
            reference.attach(StreamSource("R", READINGS))
            cursor = reference.query(sql)
            reference.push_many("R", ROWS[:30], STAMPS)
            reference.punctuate(30.0)
            return sorted(row.values for row in cursor.results())

    @staticmethod
    def _punctuations(cursor) -> int:
        return len(cursor._handle.sink.punctuations)

    @pytest.mark.parametrize(
        "sql",
        [
            "select r.host, r.temp from R r where r.temp > 1.0",
            # A ROWS window runs on a pool's fallback engine.
            "select r.host, r.temp from R r [rows 50] where r.temp > 1.0",
        ],
        ids=["replicated", "fallback"],
    )
    @pytest.mark.parametrize("verb", ["push_many", "push"])
    @pytest.mark.parametrize("share", [True, False])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_raising_subscriber_starves_no_other_cursor(self, shards, share, verb, sql):
        session = connect(shards=shards, share_plans=share)
        session.attach(StreamSource("R", READINGS, partition_by="host"))
        a, b = session.query(sql), session.query(sql)
        failing = a.subscribe(self._raises)
        seen = []
        b.subscribe(seen.append)
        # Eight hosts, so both shards of two get some.
        rows = ROWS[:8] if verb == "push_many" else ROWS[:1]
        with pytest.raises(RuntimeError, match="subscriber bug"):
            if verb == "push_many":
                session.push_many("R", rows, 1.0)
            else:
                session.push("R", rows[0], 1.0)
        assert session.engine.elements_ingested == len(rows)  # the batch counts
        assert seen == b.results() and len(seen) == len(rows)
        assert a.results() == b.results()
        assert failing.pending == len(rows)  # the failing row, and all behind it
        failing.callback = seen.append
        assert a.drain() == len(rows) and seen == b.results() + a.results()
        session.close()

    @pytest.mark.parametrize("key", ["host", "room"], ids=["replicated", "exchanged"])
    @pytest.mark.parametrize("share", [True, False])
    @pytest.mark.parametrize("pool", POOLS)
    def test_a_raising_subscriber_at_a_window_close(self, pool, share, key):
        """The same at a punctuation closing three windows — on two
        shards grouped by the partition key they close on every shard's
        replica, grouped by another column they are exchanged, so the
        shuffle barrier's deliveries fan out too. Every window reaches
        the twin cursor, and the punctuation after them: the aggregate
        both cursors share (under ``share_plans``) finishes its loop
        over the closing windows instead of being unwound by the first
        window's raise."""
        session = self._session(pool, share)
        sql = (
            f"select r.{key}, count(*) as n from R r "
            f"[range 10 seconds slide 10 seconds] group by r.{key}"
        )
        a, b = session.query(sql), session.query(sql)
        if pool:
            assert a._handle.exchanged == (key == "room")
        failing = a.subscribe(self._raises)
        seen = []
        b.subscribe(seen.append)
        session.push_many("R", ROWS[:30], STAMPS)
        with pytest.raises(RuntimeError, match="subscriber bug"):
            session.punctuate(30.0)
        assert self._punctuations(a) == self._punctuations(b) == 1
        session.punctuate(30.0)  # raised once: nothing stays parked
        expected = self._reference(sql)
        assert len(expected) == (9 if key == "room" else 24)
        assert seen == b.results()
        assert sorted(row.values for row in a.results()) == expected
        assert sorted(row.values for row in seen) == expected
        assert failing.pending == len(expected)  # the failing row, and all behind it
        session.close()

    @pytest.mark.parametrize("share", [True, False])
    @pytest.mark.parametrize("pool", POOLS)
    def test_an_operator_error_at_a_window_close(self, pool, share):
        """A query whose projection raises on every window it closes,
        beside the count query: under ``share_plans`` both read one
        windowed aggregate, and the count query still gets all three
        windows and the punctuation — exactly what it gets unshared."""
        session = self._session(pool, share)
        a = session.query(
            "select r.host, sqrt(count(*) - 5.0) as x from R r "
            "[range 10 seconds slide 10 seconds] group by r.host"
        )
        b = session.query(COUNT)
        session.push_many("R", ROWS[:30], STAMPS)
        with pytest.raises(ValueError, match="math domain error"):
            session.punctuate(30.0)
        expected = self._reference(COUNT)
        assert len(expected) == 24
        assert sorted(row.values for row in b.results()) == expected
        assert self._punctuations(b) == 1
        assert a.results() == []  # no host counts 5 rows in a window
        session.close()

    @pytest.mark.parametrize("share", [True, False])
    @pytest.mark.parametrize("pool", POOLS)
    def test_a_raising_emit_keeps_the_later_windows(self, pool, share):
        """One host's rows at 5 (×1), 15 (×5) and 25 (×5): the first
        window's ``sqrt(1 - 3.0)`` raises as the aggregate emits it, and
        the aggregate goes on to emit the other two windows."""
        session = self._session(pool, share)
        sql = (
            "select r.host, sqrt(count(*) - 3.0) as x from R r "
            "[range 10 seconds slide 10 seconds] group by r.host"
        )
        a = session.query(sql)
        rows, stamps = [ROWS[0]] * 11, [5.0] + [15.0] * 5 + [25.0] * 5
        session.push_many("R", rows, stamps)
        with pytest.raises(ValueError, match="math domain error"):
            session.punctuate(30.0)
        assert [row.values for row in a.results()] == [("ws0", 2.0**0.5)] * 2
        assert self._punctuations(a) == 1
        session.close()

    @pytest.mark.parametrize("share", [True, False])
    @pytest.mark.parametrize("pool", POOLS)
    def test_an_operator_error_starves_no_sibling(self, pool, share):
        """Operators raise too, not only subscribers: a projection
        raising on every row beside a plain filter query. The sibling
        gets every row, the verb raises (on a framed pool, the first
        verb that waits for the workers), and the batch counts."""
        session = self._session(pool, share)
        session.query("select r.host, sqrt(r.temp - 40.0) as x from R r")
        sibling = session.query("select r.host, r.temp from R r where r.temp > 1.0")
        seen = []
        sibling.subscribe(seen.append)
        with pytest.raises(ValueError, match="math domain error"):
            session.push_many("R", ROWS[:8], 1.0)
            session.punctuate(1.0)
        assert session.engine.elements_ingested == 8
        assert seen == sibling.results() and len(seen) == 8
        session.close()

    @pytest.mark.parametrize("share", [True, False])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_raising_subscriber_during_a_load(self, shards, share):
        """A table load reaches every running query's ports as one run
        and every host of a pool before the error raises, so a callback
        raising on one query's first join result truncates no query's
        copy of the table: later stream rows still find all of it."""
        session = connect(shards=shards, share_plans=share)
        session.attach(StreamSource("S", READINGS, partition_by="host"))
        session.attach(TableSource("T", READINGS))
        sql = "select s.host, t.room from S s [range 100 seconds], T t where s.host = t.host"
        a, b = session.query(sql), session.query(sql)
        raised = []

        def raise_once(row):
            if not raised:
                raised.append(row)
                raise RuntimeError("subscriber bug")

        a.subscribe(raise_once)
        session.push_many("S", ROWS[:8], 1.0)
        with pytest.raises(RuntimeError, match="subscriber bug"):
            session.load("T", ROWS[:8])
        session.push_many("S", ROWS[8:16], 2.0)
        assert len(a.results()) == len(b.results()) == 16
        assert sorted(r.values for r in a.results()) == sorted(r.values for r in b.results())
        session.close()

    def test_a_raising_subscriber_at_a_shuffle_barrier(self):
        """Exchanged DISTINCTs emit as the barrier delivers their runs,
        destination by destination; a fallback ORDER BY emits when the
        fallback engine is punctuated after the barrier."""
        session = connect(shards=2)
        session.attach(StreamSource("R", READINGS, partition_by="host"))
        distinct = "select distinct r.room, r.temp from R r"  # rows on both shards
        a, b = session.query(distinct), session.query(distinct)
        ordered = session.query("select r.room from R r order by r.room")
        assert a._handle.exchanged and not ordered._handle.partitioned
        a.subscribe(self._raises)
        seen = []
        b.subscribe(seen.append)
        session.push_many("R", ROWS[:20], 1.0)
        with pytest.raises(RuntimeError, match="subscriber bug"):
            session.punctuate(10.0)
        distinct_rows = {(row["room"], row["temp"]) for row in ROWS[:20]}
        assert {row.values for row in seen} == distinct_rows and seen == b.results()
        assert sorted(row.values for row in a.results()) == sorted(distinct_rows)
        assert len(ordered.results()) == 20
        session.close()

    @pytest.mark.parametrize("workers", ["thread", "process"])
    def test_a_raising_subscriber_starves_no_cursor_in_a_frame(self, workers):
        """A worker ships every query's emissions in one frame; the
        framed channel forwards all of them, then raises — so the
        sibling cursor gets every row on both channels, and the error
        does not resurface from a later request."""
        options = {"workers": "process"} if workers == "process" else {}
        session = connect(shards=2, **options)
        session.attach(StreamSource("R", READINGS, partition_by="host"))
        sql = "select r.host, r.temp from R r where r.temp > 1.0"
        a, b = session.query(sql), session.query(sql)
        a.subscribe(self._raises)
        seen = []
        b.subscribe(seen.append)
        raised = 0
        for step in range(2):
            rows, stamps = ROWS[20 * step : 20 * step + 20], float(step + 1)
            for verb, args in (("push_many", ("R", rows, stamps)), ("punctuate", (stamps,))):
                try:
                    getattr(session, verb)(*args)
                except RuntimeError as exc:
                    assert str(exc) == "subscriber bug"
                    raised += 1
        assert raised >= 2  # each step raised, at ingest or at its barrier
        assert len(b.results()) == len(a.results()) == len(ROWS)
        assert seen == b.results()
        assert sorted(row.values for row in a.results()) == sorted(
            row.values for row in b.results()
        )
        assert session.stats()["compile"]["fallbacks"] == 0  # nothing left to raise
        session.close()

    @pytest.mark.parametrize("twin", [False, True], ids=["one cursor", "twins on one log"])
    def test_a_raising_subscription_starves_no_sibling_subscription(self, twin):
        """The sink's observers are a fan-out too: a raising one leaves
        the rest their run — the same cursor's, or (``twin``) a sibling
        cursor's reading the same shared result log."""
        with connect() as session:
            session.attach(StreamSource("R", READINGS))
            cursor = session.query("select r.host from R r")
            sibling = session.query("select r.host from R r") if twin else cursor
            if twin:
                assert cursor._handle.sink.log is sibling._handle.sink.log
            failing = cursor.subscribe(self._raises)
            seen = []
            sibling.subscribe(seen.append)
            with pytest.raises(RuntimeError, match="subscriber bug"):
                session.push_many("R", ROWS[:3], 1.0)
            assert seen == sibling.results() == cursor.results() and len(seen) == 3
            assert failing.pending == 3

    @pytest.mark.parametrize("share", [True, False])
    def test_a_raising_subscriber_on_a_self_join(self, share):
        """A query reading one source through two ports takes a batch
        element by element across its ports; that loop finishes too."""
        session = connect(share_plans=share)
        session.attach(StreamSource("R", READINGS))
        sql = (
            "select r.host, s.temp from R r [range 10 seconds], R s [range 10 seconds] "
            "where r.host = s.host"
        )
        a, b = session.query(sql), session.query(sql)
        a.subscribe(self._raises)
        seen = []
        b.subscribe(seen.append)
        with pytest.raises(RuntimeError, match="subscriber bug"):
            session.push_many("R", ROWS[:4], 1.0)
        assert len(seen) == 4 and seen == b.results() == a.results()
        session.close()

    def test_tee_branches_finish_then_raise(self):
        tee, kept = TeeOp(), CollectingConsumer()
        tee.add_branch(CallbackConsumer(self._raises))
        tee.add_branch(kept)
        elements = _elements(3)
        with pytest.raises(RuntimeError):
            tee.push_batch(elements)
        with pytest.raises(RuntimeError):
            tee.push(elements[0])
        with pytest.raises(RuntimeError):
            tee.push(Punctuation(9.0))
        assert kept.elements == [*elements, elements[0]]
        assert kept.punctuations == [Punctuation(9.0)]


class TestTheErrorEdge:
    """``park`` and ``edge`` on their own: the outermost edge raises the
    first exception parked under it, once, after its work; a nested one
    raises nothing; an edge's own exception wins; with no edge open,
    ``park`` raises on the spot."""

    def test_the_outermost_edge_raises_the_first_parked_error_once(self):
        done = []

        @edge
        def inner(tag):
            park(RuntimeError(tag))
            done.append(tag)

        @edge
        def outer():
            inner("first")
            inner("second")
            done.append("outer")

        with pytest.raises(RuntimeError, match="first"):
            outer()
        assert done == ["first", "second", "outer"]
        outer_ok = edge(lambda: "returned")
        assert outer_ok() == "returned"  # nothing stayed parked

    def test_an_edges_own_error_wins_and_park_outside_raises(self):
        @edge
        def failing():
            park(RuntimeError("parked"))
            raise ValueError("own")

        with pytest.raises(ValueError, match="own"):
            failing()
        assert edge(lambda: "clean")() == "clean"
        with pytest.raises(KeyError):
            park(KeyError("no verb open"))


class TestFailedAdmission:
    """A query whose stored-table replay raises is stopped before the
    error leaves ``session.query``: nothing stays running or routed."""

    @pytest.mark.parametrize("share", [True, False])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_raising_table_replay_leaves_no_query(self, shards, share):
        session = connect(shards=shards, share_plans=share)
        session.attach(StreamSource("S", READINGS, partition_by="host"))
        session.attach(TableSource("T", READINGS))
        session.load("T", ROWS[:4])
        pool = session.engine
        engines = [pool] if shards == 1 else [*pool.engines, pool.fallback_engine]

        def state():
            sharing = dict(session.stats()["sharing"])
            # The admission's sharing decision is made (and counted)
            # before the replay runs.
            sharing.pop("declined")
            return (
                len(pool.running_queries),
                [(len(e.running_queries), sorted(e._routes)) for e in engines],
                sharing,
            )

        before = state()
        with pytest.raises(ValueError, match="math domain error"):
            session.query(
                "select s.host, t.room from S s [range 100 seconds], T t "
                "where s.host = t.host and sqrt(t.temp - 40.0) > 1.0"
            )
        assert state() == before
        assert not pool.subscribed("S")
        session.close()


# ----------------------------------------------------------------------
# Satellite: close() invalidates prepared statements
# ----------------------------------------------------------------------
class TestPreparedInvalidation:
    def test_stream_statement_invalidated_by_close(self):
        session = connect()
        session.attach(StreamSource("Readings", READINGS))
        statement = session.prepare(
            "select r.host from Readings r where r.temp > :limit"
        )
        assert not statement.closed
        session.close()
        assert statement.closed
        with pytest.raises(SessionClosedError, match="prepared statement"):
            statement.execute(limit=5.0)

    def test_batch_statement_invalidated_by_close(self):
        session = connect()
        session.attach(TableSource("T", READINGS, rows=ROWS[:4]))
        statement = session.prepare("select t.host from T t where t.temp > :x")
        assert statement.execute(x=0.0).results()
        session.close()
        with pytest.raises(SessionClosedError):
            statement.execute(x=0.0)


# ----------------------------------------------------------------------
# Satellite: batched stateful operators
# ----------------------------------------------------------------------
def _elements(count):
    schema = Schema.of(("x", DataType.INT))
    return [
        StreamElement(Row(schema, ((i * 7) % 5,)), float(i)) for i in range(count)
    ]


def _mixed_items(count):
    items = _elements(count)
    items.insert(count // 3, Punctuation(float(count // 3)))
    items.append(Punctuation(float(count + 1)))
    return items


def _ab(build, items):
    """The push contract, checked: the same item sequence delivered all
    by ``push`` and as runs by ``push_batch`` / punctuations by ``push``
    must leave identical sinks and counters. ``build(sink)`` returns the
    consumer under test, or ``(consumer, probe)`` when its observable
    state is something other than ``rows_in`` / ``rows_out``."""
    states = []
    for send in (lambda consumer: replay(items, consumer), lambda c: deliver(c, items)):
        consumer, state = _built(build)
        send(consumer)
        states.append(state())
    assert states[0] == states[1]
    return states[0]


def _built(build):
    """``(consumer, state)``: one consumer under test over its own sink
    and a callable reading ``(elements, punctuations, probe)``."""
    sink = CollectingConsumer()
    built = build(sink)
    if isinstance(built, tuple):
        consumer, probe = built
    else:
        consumer, probe = built, lambda op=built: (op.rows_in, op.rows_out)
    return consumer, lambda: (sink.elements, sink.punctuations, probe())


class _CheckedRuns:
    """Stands in for a producer that reuses what it handed over: after
    each ``push_batch`` the run must be element-for-element what it was,
    and is then emptied — a receiver that kept the list loses it."""

    def __init__(self, downstream):
        self._downstream = downstream
        self.push = downstream.push

    def push_batch(self, elements):
        before = list(elements)
        self._downstream.push_batch(elements)
        assert len(elements) == len(before)
        assert all(now is was for now, was in zip(elements, before))
        elements.clear()


_X = Schema.of(("x", DataType.INT))
_XN = Schema.of(("x", DataType.INT), ("n", DataType.INT))
_XP = Schema.of(("x", DataType.INT), ("n", DataType.NULL))
_X_POSITIVE = BinaryOp(">", ColumnRef("x"), Literal(1))
_X_DOUBLED = BinaryOp("*", ColumnRef("x"), Literal(2))
_COUNT = [(AggregateCall("COUNT", None), "n")]
_BY_X = [(ColumnRef("x"), "x")]
_TUMBLING = WindowSpec.range(10.0, slide=10.0)


def _partial_output(window, items):
    """What a stage-1 partial aggregate emits for ``items``, elements
    and punctuations in order — the merge stage's input."""
    out: list = []
    replay(items, PartialAggregateOp(_BY_X, _COUNT, _XP, CallbackConsumer(out.append), _X, window))
    return out


def _join_left_port(left_window=WindowSpec.range(100.0)):
    """A join's left port over a primed right side: the generated probe
    kernel by default; a ROWS left window or a declined kernel keeps the
    per-element loop — same contract either way."""

    def build(sink):
        join = SymmetricHashJoin(
            _X,
            Schema.of(("y", DataType.INT)),
            left_window,
            WindowSpec.range(100.0),
            None,
            [("x", "y")],
            sink,
        )
        right = Schema.of(("y", DataType.INT))
        for y in range(4):
            join.right_port.push(StreamElement(Row(right, (y,)), float(y)))
        join.right_port.push(Punctuation(100.0))
        return join.left_port, lambda: (
            join.rows_in, join.rows_out, join.buffered_rows, join.state_snapshot()
        )

    return build


def _output_op(sink):
    shown: list = []
    op = OutputOp("wall", lambda display, element: shown.append(element), sink, every=3.0)
    return op, lambda: (op.rows_in, op.rows_out, shown)


def _tee(sink):
    tee, second = TeeOp(), CollectingConsumer()
    tee.add_branch(sink)
    tee.add_branch(second)
    return tee, lambda: (second.elements, second.punctuations)


class _RunLog:
    """Hands items on to a sink, logging every non-empty run it hands
    over (a ``push`` is a run of one)."""

    def __init__(self, sink):
        self._sink = sink
        self.runs: list = []

    def push(self, item):
        if not isinstance(item, Punctuation):
            self.runs.append([item])
        self._sink.push(item)

    def push_batch(self, elements):
        if elements:
            self.runs.append(list(elements))
        self._sink.push_batch(elements)


def _observed_sink(sink):
    """Each observer receives each run once: two observers each see
    exactly the runs handed to the sink, in order (copied — an observer
    does not keep the producer's list). The probe is what they saw,
    flattened, so ``push`` and ``push_batch`` compare equal."""
    log, observed = _RunLog(sink), ([], [])
    for runs in observed:
        sink.observe(lambda run, runs=runs: runs.append(list(run)))

    def probe():
        assert observed[0] == observed[1] == log.runs
        return [element for run in observed[0] for element in run]

    return log, probe


def _shard_feed(sink):
    coordinator = _MergeCoordinator(sink, 1)
    feed = _ShardFeed(coordinator, 0, 5)  # as failover starts a recovering replica's feed
    return feed, lambda: coordinator.counts


def _exchange_feed(_sink):
    """A stage-1 feed armed like a recovering one, depositing into the
    shuffle buffers of two destinations: the probe is what each
    destination's flush delivers (punctuations never pass)."""
    port = SimpleNamespace(name="x", key_positions=(0,), stage1=RemoteSource("xs", _X, 1.0))
    state = _ExchangeState(SimpleNamespace(specs=[port]), [0, 1], {})
    feed = _ExchangeFeed(state, 0, 0, 5)
    return feed, lambda: [state.flush(dest) for dest in state.dests]


def _frame_sink(_sink):
    frames = _FrameSink()
    return frames, frames.take


#: Every class with a ``push_batch`` (or inheriting the operator
#: default), keyed by test id; each value is a ``build`` for ``_ab``.
_CONSUMERS = {
    "filter": lambda sink: FilterOp(_X_POSITIVE, sink, _X),
    "project": lambda sink: ProjectOp([(_X_DOUBLED, "x")], _X, sink, _X),
    "fused": lambda sink: FusedOp(
        [("filter", _X_POSITIVE), ("project", [_X_DOUBLED], _X)], _X, sink, _X
    ),
    "join-side-port": _join_left_port(),
    "join-side-port-rows": _join_left_port(left_window=WindowSpec.rows(6)),
    "aggregate-windowed": lambda sink: AggregateOp(_BY_X, _COUNT, _XN, sink, _X, _TUMBLING),
    "aggregate-running": lambda sink: AggregateOp(_BY_X, _COUNT, _XN, sink, _X),
    "partial-windowed": lambda sink: PartialAggregateOp(_BY_X, _COUNT, _XP, sink, _X, _TUMBLING),
    "partial-running": lambda sink: PartialAggregateOp(_BY_X, _COUNT, _XP, sink, _X),
    "merge-windowed": lambda sink: MergeAggregateOp(1, _COUNT, _XN, sink, True),
    "merge-running": lambda sink: MergeAggregateOp(1, _COUNT, _XN, sink, False),
    "distinct": DistinctOp,
    "orderby": lambda sink: OrderByOp([OrderItem(ColumnRef("x"), False)], sink, _X),
    "limit": lambda sink: LimitOp(3, sink),
    "output": _output_op,
    "reschema": lambda sink: (
        _ReschemaConsumer(Schema.of(("r.x", DataType.INT)), sink),
        lambda: [e.row.schema.names for e in sink.elements],
    ),
    "tee": _tee,
    "collecting-consumer": _observed_sink,
    "shard-feed-armed": _shard_feed,
    "exchange-feed-armed": _exchange_feed,
    "frame-sink": _frame_sink,
}


def _interpreted(build):
    """``build`` with every generator declining: the same operator over
    the interpreter's closures."""

    def built(sink):
        with interpreted():
            return build(sink)

    return built


_CONSUMERS.update(
    {
        f"{name.removesuffix('-running')}-interpreted": _interpreted(_CONSUMERS[name])
        for name in (
            "filter", "project", "join-side-port", "aggregate-running", "partial-running",
        )
    }
)


class TestBatchedStatefulOperators:
    @pytest.mark.parametrize("name", _CONSUMERS)
    def test_push_contract_identity(self, name):
        items = _mixed_items(40)
        if name.startswith("merge-"):
            items = _partial_output(_TUMBLING if name == "merge-windowed" else None, items)
        # The default arms hold no fallback (the -interpreted ones check
        # themselves: see _interpreted).
        with nullcontext() if name.endswith("-interpreted") else generated():
            elements, punctuations, probed = _ab(_CONSUMERS[name], items)
        # Not vacuous: every configuration here produces output.
        assert elements or probed

    @pytest.mark.parametrize("name", _CONSUMERS)
    def test_tee_branches_share_one_run(self, name):
        """Nothing sits between a tee and its branches, so every branch
        is handed the same list: a receiver neither mutates nor keeps it
        (the batch-ownership rule on ``StreamConsumer``)."""
        items = _mixed_items(40)
        if name.startswith("merge-"):
            items = _partial_output(_TUMBLING if name == "merge-windowed" else None, items)
        tee = TeeOp()
        states = []
        for _ in range(2):
            consumer, state = _built(_CONSUMERS[name])
            tee.add_branch(consumer)
            states.append(state)
        deliver(_CheckedRuns(tee), items)
        private, private_state = _built(_CONSUMERS[name])
        deliver(private, items)
        assert states[0]() == states[1]() == private_state()

    def test_distinct_batched_identity(self):
        _ab(DistinctOp, _mixed_items(40))

    def test_limit_batched_identity(self):
        _ab(_CONSUMERS["limit"], _mixed_items(40))

    def test_orderby_batched_identity(self):
        _ab(_CONSUMERS["orderby"], _mixed_items(30))

    @pytest.mark.parametrize("windowed", [True, False])
    def test_aggregate_batched_identity(self, windowed):
        name = "aggregate-windowed" if windowed else "aggregate-running"
        _ab(_CONSUMERS[name], _mixed_items(60))


class TestCompiledAccumulate:
    SCHEMA = Schema.of(("k", DataType.STRING), ("a", DataType.FLOAT))
    NEG_INF = float("-inf")  # ``closed`` before any window has closed

    def _elements(self):
        rows = [
            ("p", 1.0), ("q", None), ("p", 3.0), ("q", 2.0), ("p", None), ("r", -1.0),
        ]
        return [
            StreamElement(Row(self.SCHEMA, values, validate=False), float(i))
            for i, values in enumerate(rows)
        ]

    def _calls(self):
        return [
            AggregateCall("COUNT", None),
            AggregateCall("COUNT", ColumnRef("a")),
            AggregateCall("SUM", ColumnRef("a")),
            AggregateCall("AVG", ColumnRef("a")),
            AggregateCall("MIN", ColumnRef("a")),
            AggregateCall("MAX", ColumnRef("a")),
        ]

    @staticmethod
    def _scan(elements, calls, keep=lambda element: True):
        """The reference: the interpreter's accumulators over the kept
        elements in arrival order, per group key."""
        expected: dict = {}
        for element in elements:
            if keep(element):
                key = (element.row["k"],)
                accumulators = expected.setdefault(key, [Accumulator(c) for c in calls])
                for accumulator in accumulators:
                    accumulator.add(element.row)
        return {key: [a.result() for a in accs] for key, accs in expected.items()}

    def test_fold_matches_interpreted_accumulators(self):
        with generated():
            fold, finalize = compile_accumulate(
                [ColumnRef("k")], self._calls(), self.SCHEMA
            )
        groups: dict = {}
        fold(self._elements(), groups)
        assert {key: finalize(state) for key, state in groups.items()} == self._scan(
            self._elements(), self._calls()
        )

    def test_fold_honours_window_bounds(self):
        # RANGE 2: t=0 -> window 0, t=1,2 -> 1, t=3,4 -> 2, t=5 -> 3.
        fold, finalize = compile_accumulate(
            [ColumnRef("k")], [AggregateCall("COUNT", None)], self.SCHEMA,
            WindowSpec.range(2.0),
        )
        windows: dict = {}
        fold(self._elements(), windows, 1)  # windows 0 and 1 have closed
        assert {
            index: sum(finalize(state)[0] for state in groups.values())
            for index, groups in windows.items()
        } == {2: 2, 3: 1}

    def test_distinct_calls_fold_with_seen_sets(self):
        calls = [
            AggregateCall("COUNT", ColumnRef("a"), distinct=True),
            AggregateCall("SUM", ColumnRef("a"), distinct=True),
            AggregateCall("AVG", ColumnRef("a"), distinct=True),
            AggregateCall("MIN", ColumnRef("a"), distinct=True),
            AggregateCall("MAX", ColumnRef("a"), distinct=True),
            AggregateCall("COUNT", None),  # mixed with non-distinct calls
        ]
        with generated():
            fold, finalize = compile_accumulate([ColumnRef("k")], calls, self.SCHEMA)
        # Duplicate values per group so the seen-sets actually dedup.
        elements = self._elements() + self._elements()
        groups: dict = {}
        fold(elements, groups)
        assert {key: finalize(state) for key, state in groups.items()} == self._scan(
            elements, calls
        )

    @pytest.mark.parametrize("window", [None, WindowSpec.range(4.0)], ids=["running", "windowed"])
    def test_count_distinct_star_falls_back(self, window):
        # COUNT(DISTINCT *) has no value to deduplicate and the analyzer
        # rejects it; for a hand-built call the generator declines (a
        # counted fallback) and the interpreter's fold comes back, with
        # the generated fold's signature.
        calls = [AggregateCall("COUNT", None, distinct=True)]
        with declining() as counts:
            fold, finalize = compile_accumulate([ColumnRef("k")], calls, self.SCHEMA, window)
        assert counts == {"generated": 0, "fallbacks": 1}
        assert not hasattr(fold, "__compiled_source__")
        groups: dict = {}
        if window is None:
            fold(self._elements(), groups)
        else:
            windows: dict = {}
            fold(self._elements(), windows, self.NEG_INF)
            assert sorted(windows) == [0, 1, 2]  # t=0 | 1..4 | 5
            groups = windows[1]
        assert all(isinstance(a, Accumulator) for state in groups.values() for a in state)
        # The interpreter counts rows for an argument-less call.
        assert {k: finalize(state) for k, state in groups.items()} == (
            {("p",): [3], ("q",): [2], ("r",): [1]}
            if window is None
            else {("q",): [2], ("p",): [2]}
        )

    def test_empty_groups_no_emission_semantics(self):
        compiled = compile_accumulate(
            [], [AggregateCall("SUM", ColumnRef("a"))], self.SCHEMA
        )
        fold, finalize = compiled
        groups: dict = {}
        fold([StreamElement(Row(self.SCHEMA, ("p", None), validate=False), 1.0)], groups)
        (state,) = groups.values()
        assert finalize(state) == [None]  # SUM over only-NULL input is NULL

    # -- windowed folds ----------------------------------------------------
    STAMPS = [25.0, 30.0, -5.0, 0.0, 10.0, 9.999, 47.5, 3.0, 20.0, 61.0, -20.0, 15.0]

    def _stamped(self, stamps, values=None):
        values = values if values is not None else [float(i) for i in range(len(stamps))]
        return [
            StreamElement(Row(self.SCHEMA, ("pq"[i % 2], value), validate=False), stamp)
            for i, (stamp, value) in enumerate(zip(stamps, values))
        ]

    @pytest.mark.parametrize("rung", ["generated", "interpreted"])
    @pytest.mark.parametrize(
        "window",
        [WindowSpec.range(20, slide=10), WindowSpec.range(25, slide=10), WindowSpec.range(10)],
        ids=["range20-slide10", "range25-slide10", "tumbling10"],
    )
    def test_windows_agree_with_assign_windows(self, window, rung):
        """Every row lands in exactly the windows ``assign_windows``
        gives it, whatever order the rows arrive in."""
        with generated() if rung == "generated" else interpreted():
            fold, finalize = compile_accumulate(
                [ColumnRef("k")], [AggregateCall("COUNT", None)], self.SCHEMA, window
            )
        windows: dict = {}
        fold(self._stamped(self.STAMPS), windows, self.NEG_INF)
        got = {
            index * window.hop: {key: finalize(state)[0] for key, state in groups.items()}
            for index, groups in windows.items()
        }
        spec = window if window.slide else WindowSpec.range(window.size, slide=window.size)
        expected: dict = {}
        for element in self._stamped(self.STAMPS):
            for end in assign_windows(element.timestamp, spec):
                per_key = expected.setdefault(end, {})
                key = (element.row["k"],)
                per_key[key] = per_key.get(key, 0) + 1
        assert got == expected

    @pytest.mark.parametrize("rung", ["generated", "interpreted"])
    def test_distinct_seen_sets_are_per_window(self, rung):
        calls = [
            AggregateCall("COUNT", ColumnRef("a"), distinct=True),
            AggregateCall("SUM", ColumnRef("a"), distinct=True),
        ]
        window = WindowSpec.range(20, slide=10)
        with generated() if rung == "generated" else interpreted():
            fold, finalize = compile_accumulate([], calls, self.SCHEMA, window)
        # The same value in every window: each window counts it once.
        elements = self._stamped([5.0, 12.0, 18.0, 25.0, 33.0], [1.5, 1.5, 2.5, 1.5, 1.5])
        windows: dict = {}
        fold(elements, windows, self.NEG_INF)
        assert {index * 10: finalize(groups[()]) for index, groups in windows.items()} == {
            10: [1, 1.5], 20: [2, 4.0], 30: [2, 4.0], 40: [1, 1.5], 50: [1, 1.5],
        }
        states = [groups[()] for groups in windows.values()]
        assert len({id(state[0]) for state in states}) == len(states)

    @pytest.mark.parametrize(
        "window",
        [WindowSpec.range(10), WindowSpec.range(20, slide=10), WindowSpec.range(25, slide=10)],
        ids=["tumbling10", "range20-slide10", "range25-slide10"],
    )
    def test_float_sums_match_an_arrival_order_scan(self, window):
        """Out-of-order rows inside one segment: every window's float
        SUM/AVG equal a scan of its rows in arrival order, bit for bit
        (these values do not associate)."""
        calls = [AggregateCall("SUM", ColumnRef("a")), AggregateCall("AVG", ColumnRef("a"))]
        stamps = [14.0, 3.0, 17.0, 9.0, 12.0, 1.0, 19.0, 6.0, 15.0, 4.0]
        values = [1e16, 1.0, -1e16, 0.1, 3.3, 1e16, 0.7, -1e16, 2.2, 1.1]
        elements = self._stamped(stamps, values)
        with generated():
            fold, finalize = compile_accumulate([ColumnRef("k")], calls, self.SCHEMA, window)
        windows: dict = {}
        fold(elements, windows, self.NEG_INF)
        assert windows
        for index, groups in windows.items():
            start, end = window.start(index), index * window.hop
            expected = self._scan(
                elements, calls, lambda e: start < e.timestamp <= end
            )
            got = {key: finalize(state) for key, state in groups.items()}
            assert repr(got) == repr(expected)

    @pytest.mark.parametrize(
        "window",
        [
            WindowSpec.range(10),
            WindowSpec.range(20, slide=10),
            WindowSpec.range(25, slide=10),
            WindowSpec.range(0.3, slide=0.1),
            WindowSpec.range(0.1),
        ],
        ids=["tumbling10", "range20-slide10", "range25-slide10", "range0.3-slide0.1", "tumbling0.1"],
    )
    def test_interpreted_rung_emits_the_same(self, window):
        """The aggregate over both rungs: identical emissions, late and
        out-of-order rows included, across several punctuations."""
        calls = [
            (AggregateCall("COUNT", None), "n"),
            (AggregateCall("SUM", ColumnRef("a")), "s"),
            (AggregateCall("COUNT", ColumnRef("a"), distinct=True), "d"),
        ]
        out = Schema.of(
            ("k", DataType.STRING), ("n", DataType.INT), ("s", DataType.FLOAT),
            ("d", DataType.INT),
        )
        scale = window.hop / 10
        stamps = [s * scale for s in (5, 2, 14, 9, 30, 21, 3, 44, 38, 45, 60, 52)]
        items = list(self._stamped(stamps, [float(i % 4) / 4 for i in range(12)]))
        items.insert(4, Punctuation(10 * scale))
        items.insert(9, Punctuation(40 * scale))  # the row stamped 3 after it is late
        items.append(Punctuation(100 * scale))

        def run():
            sink = CollectingConsumer()
            op = AggregateOp([(ColumnRef("k"), "k")], calls, out, sink, self.SCHEMA, window)
            deliver(op, items)
            return [(e.timestamp, e.row.values) for e in sink.elements]

        with interpreted():
            reference = run()
        with generated():
            assert run() == reference
        assert reference

    def test_distinct_aggregate_pipeline_identity(self):
        sql = (
            "select r.host, count(distinct r.room) as rooms, "
            "sum(distinct r.load) as dload from Readings r "
            "[range 10 seconds slide 5 seconds] group by r.host"
        )
        from repro.stream.compiler import PlanCompiler

        def run():
            catalog = _catalog()
            sink = CollectingConsumer()
            compiled = PlanCompiler().compile(_plan(sql, catalog), sink)
            port = compiled.ports[0].consumer
            for index, row in enumerate(ROWS):
                port.push(
                    StreamElement(Row.from_mapping(READINGS, dict(row)), float(index))
                )
            port.push(Punctuation(1000.0))
            return [(e.timestamp, e.row.values) for e in sink.elements]

        with interpreted():
            reference = run()
        with generated():
            assert run() == reference

    def test_compiled_vs_interpreted_pipeline_identity(self):
        sql = (
            "select r.host, count(*) as n, sum(r.temp) as total, "
            "min(r.load) as lo from Readings r "
            "[range 10 seconds slide 5 seconds] group by r.host"
        )
        from repro.stream.compiler import PlanCompiler

        def run():
            catalog = _catalog()
            sink = CollectingConsumer()
            compiled = PlanCompiler().compile(_plan(sql, catalog), sink)
            port = compiled.ports[0].consumer
            for index, row in enumerate(ROWS):
                mapping = dict(row)
                if index % 7 == 0:
                    mapping["temp"] = None
                port.push(
                    StreamElement(Row.from_mapping(READINGS, mapping), float(index))
                )
            port.push(Punctuation(1000.0))
            return [(e.timestamp, e.row.values) for e in sink.elements]

        with interpreted():
            reference = run()
        with generated():
            assert run() == reference


# ----------------------------------------------------------------------
# NULL equi-keys never join
# ----------------------------------------------------------------------
_NA = Schema.of(("k", DataType.INT), ("g", DataType.STRING), ("x", DataType.INT))
_NB = Schema.of(("k", DataType.INT), ("g", DataType.STRING), ("y", DataType.INT))
_NA_ROWS = [
    {"k": None, "g": "a", "x": 1},
    {"k": 1, "g": "a", "x": 2},
    {"k": 2, "g": None, "x": 3},
    {"k": None, "g": None, "x": 4},
]
_NB_ROWS = [
    {"k": None, "g": "a", "y": 10},
    {"k": 1, "g": "a", "y": 20},
    {"k": 2, "g": None, "y": 30},
    {"k": None, "g": None, "y": 40},
]
_NULL_JOINS = {
    # ``a.k = b.k`` is hoisted into the hash key; NULL = NULL must
    # still be "not TRUE", exactly as when it stays in the residual.
    "single": (
        "select a.x, b.y from A a [range 10 seconds], B b [range 10 seconds] "
        "where a.k = b.k",
        [(2, 20), (3, 30)],
    ),
    "composite": (
        "select a.x, b.y from A a [range 10 seconds], B b [range 10 seconds] "
        "where a.k = b.k and a.g = b.g",
        [(2, 20)],
    ),
}


class TestNullEquiKeys:
    @staticmethod
    def _feed(target, batched):
        """Both sides into a session or an engine (same push verbs)."""
        for source, rows in (("A", _NA_ROWS), ("B", _NB_ROWS)):
            if batched:
                target.push_many(source, rows, [1.0] * len(rows))
            else:
                for row in rows:
                    target.push(source, row, 1.0)

    @pytest.mark.parametrize("batched", [True, False], ids=["push_many", "push"])
    @pytest.mark.parametrize("share", [True, False], ids=["shared", "private"])
    @pytest.mark.parametrize("shape", _NULL_JOINS)
    def test_stream_engine(self, shape, share, batched):
        sql, expected = _NULL_JOINS[shape]
        with connect(share_plans=share) as session:
            session.attach(StreamSource("A", _NA))
            session.attach(StreamSource("B", _NB))
            cursor = session.query(sql)
            self._feed(session, batched)
            pipelines = [cursor._handle.compiled] + [
                chain.compiled for chain in session.engine.subplans.live_chains
            ]
            (join,) = [
                op
                for pipeline in pipelines
                for op in pipeline.operators
                if isinstance(op, SymmetricHashJoin)
            ]
            # Only rows with a complete key hold join state.
            assert join.buffered_rows == 2 * len(expected)
            session.punctuate(2.0)
            assert sorted(row.values for row in cursor.results()) == expected

    @pytest.mark.parametrize("batched", [True, False], ids=["push_many", "push"])
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("shape", _NULL_JOINS)
    def test_exchanged_pool(self, shape, shards, batched):
        sql, expected = _NULL_JOINS[shape]
        catalog = Catalog()
        catalog.register_stream("A", _NA, rate=1.0)
        catalog.register_stream("B", _NB, rate=1.0)
        pool = ShardedStreamEngine(catalog, shards=shards)
        pool.set_partition_key("A", "x")  # not the join key: shuffle
        pool.set_partition_key("B", "y")
        handle = pool.execute(_plan(sql, catalog))
        assert handle.exchanged
        self._feed(pool, batched)
        pool.punctuate(2.0)
        assert sorted(row.values for row in handle.results) == expected

    @pytest.mark.parametrize("shape", _NULL_JOINS)
    def test_batch_tables(self, shape):
        sql, expected = _NULL_JOINS[shape]
        sql = sql.replace(" [range 10 seconds]", "")
        with connect() as session:
            session.attach(TableSource("A", _NA, rows=_NA_ROWS))
            session.attach(TableSource("B", _NB, rows=_NB_ROWS))
            cursor = session.query(sql)
            assert cursor.kind == "batch"
            assert sorted(row.values for row in cursor.results()) == expected
