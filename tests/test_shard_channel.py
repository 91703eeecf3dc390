"""The ShardChannel contract: one pool, two transports, one behaviour.

:class:`~repro.stream.sharded.ShardedStreamEngine` reaches its shards
only through the :mod:`repro.stream.channel` verbs. This file drives one
scripted scenario — a partition-safe stream⋈table join, an exchanged
(unaligned) stream join, an exchanged global aggregate and a fallback
ORDER BY; table loads on both sides of a checkpoint barrier; named
punctuation; a shard kill, a fallback kill and their failovers —
through the loopback channel and through the framed worker-process
channel, and asserts that nothing observable tells them apart:
per-punctuation-segment emissions (also equal to a single engine's),
the ``PoolCheckpoint`` the barrier assembled, the replays the failovers
ran and the pool's ``stats()``.
"""

from __future__ import annotations

import collections
import functools
import pickle
import queue
import random
import re

import pytest
from conftest import deliver, push_elements

from repro.api import StreamSource, connect
from repro.catalog import Catalog
from repro.data import DataType, Row, Schema
from repro.data.streams import CallbackConsumer, CollectingConsumer, Punctuation, StreamElement
from repro.errors import ExecutionError
from repro.plan import PlanBuilder
from repro.plan.exchange import ExchangeSource
from repro.plan.logical import LogicalOp
from repro.runtime.faults import kill_fallback, kill_shard
from repro.stream import channel
from repro.stream.checkpoint import CheckpointCoordinator, PoolCheckpoint
from repro.stream.compiler import PlanCompiler
from repro.stream.engine import StreamEngine
from repro.stream.operators import SymmetricHashJoin
from repro.stream.procshard import (
    FramedChannel,
    ProcessShardEngine,
    _exported,
    _FrameSink,
    _pack,
    usable_start_method,
)
from repro.stream.sharded import ShardedStreamEngine, _MergeCoordinator, _ShardFeed

READINGS = Schema.of(
    ("room", DataType.STRING),
    ("host", DataType.STRING),
    ("temp", DataType.FLOAT),
    ("load", DataType.FLOAT),
)
EVENTS = Schema.of(
    ("host", DataType.STRING),
    ("kind", DataType.STRING),
    ("level", DataType.FLOAT),
)
MACHINES = Schema.of(("name", DataType.STRING), ("room", DataType.STRING))
MACHINE_ROWS = [{"name": f"ws{i}", "room": f"lab{i % 3}"} for i in range(8)]
ROOMS = ["lab0", "lab1", "lab2"]

QUERIES = [
    # Partition-safe: the stream is keyed by host, the table replicated.
    "select r.host, m.room, r.temp from Readings r [range 30 seconds], "
    "Machines m where r.host = m.name and r.temp > 10.0",
    # Exchanged: the join key disagrees with both partition keys.
    "select r.host, e.kind from Readings r [range 20 seconds], "
    "Events e [range 20 seconds] where r.room = e.kind and e.level > 3.0",
    # Exchanged: global aggregate, per-shard partials to one merge shard.
    "select count(*) as n, sum(r.temp) as total from Readings r "
    "[range 20 seconds slide 20 seconds]",
    # Falls back: runs whole on the fallback engine, through a one-slot
    # merge like every pool query.
    "select r.host, r.temp from Readings r where r.load > 0.5 order by r.temp",
]

POOLS = {"loopback": ShardedStreamEngine, "framed": ProcessShardEngine}
TRANSPORTS = [
    "loopback",
    pytest.param(
        "framed",
        marks=pytest.mark.skipif(
            usable_start_method() is None, reason="no multiprocessing start method"
        ),
    ),
]
SHARDS = 3
VICTIM = 1


def _feed():
    """Three chunks of interleaved Readings/Events, event time rising."""
    rng = random.Random(20090629)
    clock, chunks = 0.0, []
    for _ in range(3):
        chunk = {"Readings": ([], []), "Events": ([], [])}
        for _ in range(90):
            clock += rng.uniform(0.05, 0.6)
            stamp = round(clock, 3)
            if rng.random() < 0.6:
                row = Row.raw(
                    READINGS,
                    (rng.choice(ROOMS), f"ws{rng.randrange(8)}",
                     round(rng.uniform(0, 60), 2), round(rng.uniform(0, 1), 2)),
                )
                chunk["Readings"][0].append(row)
                chunk["Readings"][1].append(stamp)
            else:
                row = Row.raw(
                    EVENTS,
                    (f"ws{rng.randrange(8)}", rng.choice(ROOMS),
                     round(rng.uniform(0, 9), 2)),
                )
                chunk["Events"][0].append(row)
                chunk["Events"][1].append(stamp)
        chunks.append((chunk, stamp))
    return chunks


def _catalog() -> Catalog:
    catalog = Catalog()
    catalog.register_stream("Readings", READINGS, rate=10.0)
    catalog.register_stream("Events", EVENTS, rate=5.0)
    catalog.register_table("Machines", MACHINES, cardinality=len(MACHINE_ROWS))
    return catalog


def _script(engine, handles, coordinator=None):
    """The scenario. ``coordinator`` (pools only) adds the barrier and
    the kills; the single-engine reference runs the same ingest."""
    replays = []
    segments = [[] for _ in handles]
    marks = [0 for _ in handles]

    def segment():
        for index, handle in enumerate(handles):
            elements = handle.sink.elements
            segments[index].append(
                sorted((e.timestamp, repr(e.row.values)) for e in elements[marks[index]:])
            )
            marks[index] = len(elements)

    def push(chunk):
        for source, (rows, stamps) in chunk.items():
            engine.push_many(source, rows[:40], stamps[:40])
            for row, stamp in zip(rows[40:], stamps[40:]):
                engine.push(source, row, stamp)

    (first, t1), (second, t2), (third, t3) = _feed()
    barrier = None
    engine.load_table("Machines", MACHINE_ROWS[:5])
    push(first)
    engine.punctuate(t1)
    segment()
    if coordinator is not None:
        barrier = coordinator.checkpoint(t1)
    engine.load_table("Machines", MACHINE_ROWS[5:])  # replayed, not seeded
    push(second)
    engine.punctuate(t2, ["Readings"])  # the join's Events side holds back
    segment()
    if coordinator is not None:
        kill_shard(engine, VICTIM)
    push(third)
    engine.punctuate(t3)  # finds the corpse, fails over inside the barrier
    segment()
    if coordinator is not None:
        replays.append(coordinator.last_replay)
        kill_fallback(engine)
    engine.punctuate(t3 + 15.0, ["Events"])  # the fallback fails over
    segment()
    if coordinator is not None:
        replays.append(coordinator.last_replay)
    engine.punctuate(t3 + 100.0)
    segment()
    return segments, barrier, replays


@functools.lru_cache(maxsize=None)
def _reference():
    catalog = _catalog()
    engine = StreamEngine(catalog)
    builder = PlanBuilder(catalog)
    handles = [engine.execute(builder.build_sql(sql)) for sql in QUERIES]
    return _script(engine, handles)[0]


@functools.lru_cache(maxsize=None)
def _scenario(transport):
    catalog = _catalog()
    pool = POOLS[transport](catalog, shards=SHARDS)
    try:
        pool.set_partition_key("Readings", "host")
        pool.set_partition_key("Events", "host")
        coordinator = CheckpointCoordinator(pool, interval=None)
        builder = PlanBuilder(catalog)
        handles = [pool.execute(builder.build_sql(sql), sql=sql) for sql in QUERIES]
        shapes = [(h.partitioned, h.exchanged) for h in handles]
        segments, barrier, replays = _script(pool, handles, coordinator)
        return {
            "segments": segments,
            "shapes": shapes,
            "barrier": _normal(barrier, tuple(h.query_id for h in handles)),
            "replays": replays,
            "stats": pool.stats(),
            "transport": pool.worker_stats(),
        }
    finally:
        if transport == "framed":
            pool.shutdown()


def _normal(value, query_ids):
    """A checkpoint as plain comparable data. What legitimately differs
    between two pools is erased: pool query ids (one global counter —
    also the token inside exchange port names) become positions, plans
    (fresh node ids per build) their explain text. Containers become
    sorted lists, rows and elements their values."""
    norm = functools.partial(_normal, query_ids=query_ids)
    if isinstance(value, PoolCheckpoint):
        out = dict(vars(value))
        out["handles"] = [vars(value.handles[query_id]) for query_id in query_ids]
        return norm(out)
    if isinstance(value, dict):
        return sorted((repr(k), norm(v)) for k, v in value.items())
    if isinstance(value, (list, tuple, collections.deque)):
        return [norm(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(repr(v) for v in value)
    if isinstance(value, StreamElement):
        return (repr(value.row.values), value.timestamp, norm(value.source))
    if isinstance(value, LogicalOp):
        return value.explain()
    if isinstance(value, str):
        return re.sub(
            r"#x(\d+):", lambda m: f"#x@{query_ids.index(int(m[1]))}:", value
        )
    if isinstance(value, (int, float, bool, type(None))):
        return value
    return repr(value)


class TestChannelContract:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_emissions_match_the_single_engine_segment_by_segment(self, transport):
        got = _scenario(transport)
        assert got["shapes"] == [
            (True, False), (True, True), (True, True), (False, False),
        ]
        assert got["segments"] == _reference()
        for sql, per_query in zip(QUERIES, got["segments"]):
            assert any(per_query), f"vacuous scenario: no emissions from {sql!r}"

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_failover_replayed_only_the_suffix(self, transport):
        got = _scenario(transport)
        assert [replay["target"] for replay in got["replays"]] == [VICTIM, "fb"]
        for replay in got["replays"]:
            assert replay["from_seq"] > 0  # the barrier pruned the log
        assert got["transport"].get("restarts", 1) == 1

    @pytest.mark.skipif(
        usable_start_method() is None, reason="no multiprocessing start method"
    )
    def test_both_transports_are_indistinguishable(self):
        loopback, framed = _scenario("loopback"), _scenario("framed")
        assert loopback["segments"] == framed["segments"]
        assert loopback["barrier"] == framed["barrier"]
        assert loopback["replays"] == framed["replays"]
        assert loopback["stats"] == framed["stats"]

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_barrier_structure(self, transport):
        barrier = dict(_scenario(transport)["barrier"])
        assert barrier["'tables'"] == [
            ("'Machines'", [(repr((f"ws{i}", f"lab{i % 3}")), 0.0, "Machines") for i in range(5)])
        ]
        assert len(barrier["'shard_chains'"]) == SHARDS
        safe, join, aggregate, fallback = (dict(h) for h in barrier["'handles'"])
        assert len(safe["'replicas'"]) == len(safe["'merge_counts'"]) == SHARDS
        # The fallback replica's merge has one slot.
        assert len(fallback["'replicas'"]) == len(fallback["'merge_counts'"]) == 1
        assert fallback["'merge_counts'"][0] > 0
        assert safe["'shared'"] == [False] * SHARDS and safe["'exchange'"] is None
        for exchanged in (join, aggregate):
            assert exchanged["'shared'"] == [False] * SHARDS
            assert len(exchanged["'replicas'"]) == SHARDS
            dests = dict(exchanged["'exchange'"])["'dests'"]
            assert len(exchanged["'merge_counts'"]) == len(dests)
        assert dict(aggregate["'exchange'"])["'dests'"] == [0]
        assert dict(join["'exchange'"])["'dests'"] == list(range(SHARDS))

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_exchange_counters(self, transport):
        exchange = _scenario(transport)["stats"]["exchange"]
        assert exchange["queries"] == 2
        assert exchange["barrier_rounds"] == 5  # one per punctuate
        assert exchange["rows_delivered"] > 0
        # Runs are counted as flush cut them, not as the engine took them.
        assert 0 < exchange["runs_delivered"] <= exchange["rows_delivered"]
        # Everything was flushed by the final, unnamed punctuation.
        assert exchange["rows_deposited"] == exchange["rows_delivered"]


class TestOneMergePerQuery:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_a_repeated_watermark_is_recorded_once(self, transport):
        """Every pool query writes through one merge — a fallback
        query's has one slot — so a cursor's sink records a punctuation
        only when the watermark advances, however its plan runs."""
        workers = {"loopback": "inline", "framed": "process"}[transport]
        session = connect(shards=2, workers=workers)
        try:
            session.attach(StreamSource("Readings", READINGS, partition_by="host"))
            cursors = [
                session.query("select r.host, r.temp from Readings r where r.temp > 10.0"),
                session.query(QUERIES[-1]),
            ]
            assert [c._handle.partitioned for c in cursors] == [True, False]
            (chunk, stamp), *_ = _feed()
            session.push_many("Readings", *chunk["Readings"])
            session.punctuate(stamp)
            session.punctuate(stamp)
            for cursor in cursors:
                assert cursor.results()
                assert [p.watermark for p in cursor._handle.sink.punctuations] == [stamp]
        finally:
            session.close()


@pytest.mark.skipif(
    usable_start_method() is None, reason="no multiprocessing start method"
)
class TestFramedPoolHoldsNoShardEngines:
    def test_parent_builds_only_the_fallback_engine(self, monkeypatch):
        built = []

        class Counted(StreamEngine):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(channel, "StreamEngine", Counted)
        pool = ProcessShardEngine(_catalog(), shards=3)
        try:
            assert built == [pool.fallback_engine]
            assert all(isinstance(view, FramedChannel) for view in pool.engines)
            pool.load_table("Machines", MACHINE_ROWS)
            assert len(pool.table_rows("Machines")) == len(MACHINE_ROWS)
            assert len(built) == 1  # ...and the one table copy is the fallback's
        finally:
            pool.shutdown()

    def test_engine_views_count_rows_per_shard(self):
        catalog = _catalog()
        pool = ProcessShardEngine(catalog, shards=2)
        try:
            pool.set_partition_key("Readings", "host")
            sql = "select r.host from Readings r where r.temp > 0.0"
            pool.execute(PlanBuilder(catalog).build_sql(sql), sql=sql)
            (chunk, stamp), *_ = _feed()
            rows, stamps = chunk["Readings"]
            pool.push_many("Readings", rows, stamps)
            pool.punctuate(stamp)
            per_shard = [view.elements_ingested for view in pool.engines]
            assert sum(per_shard) == len(rows) and all(per_shard)
            assert not any(view.failed for view in pool.engines)
        finally:
            pool.shutdown()


class TestAckFrameInterleaving:
    """An ack frame carries a replica's emissions as runs with the
    watermarks between them; the parent must hand them to the merge
    feed in frame order — runs by ``push_batch``, watermarks by
    ``push`` — exactly as a loopback replica's own pipeline does."""

    def _merged_order(self, send) -> tuple[list, list[int]]:
        order: list = []
        coordinator = _MergeCoordinator(CallbackConsumer(order.append), 1)
        send(_ShardFeed(coordinator, 0, 0))
        return order, coordinator.counts

    def test_framed_ack_matches_loopback_delivery(self):
        schema = Schema.of(("x", DataType.INT))

        def run(source, *xs):
            return [StreamElement(Row(schema, (x,)), float(x), source) for x in xs]

        items = [
            *run("a", 1, 2, 3),
            Punctuation(3.0),
            *run("a", 4),
            *run("b", 5, 6),  # a source change seals a second run
            Punctuation(6.0),
            Punctuation(7.0),
            *run("b", 8),
        ]
        loopback = self._merged_order(lambda feed: deliver(feed, items))

        worker_sink = _FrameSink()
        deliver(worker_sink, items)
        frame_items = worker_sink.take()
        assert [item[0] for item in frame_items] == ["e", "p", "e", "e", "p", "p", "e"]

        def framed(feed):
            parent = object.__new__(FramedChannel)  # no worker process
            parent.index = 0
            parent._feeds = {7: (feed, schema)}
            # Every item forwarded (no verb is open: a raising feed
            # would raise here).
            parent._on_frame(("ack", 1, _pack([(7, frame_items)]), None))

        assert self._merged_order(framed) == loopback
        assert loopback[0] == items and loopback[1] == [7]

    @pytest.mark.parametrize("wait", ["_await", "_drain"])
    def test_a_raising_feed_loses_no_later_frame(self, wait):
        """Once a feed has raised, every later frame up to the ack is
        still forwarded — the ack's own emissions included — and the
        first exception is raised after ``_awaiting`` is cleared."""
        schema = Schema.of(("x", DataType.INT))

        def frame_items(*xs):
            sink = _FrameSink()
            deliver(sink, [StreamElement(Row(schema, (x,)), float(x), "a") for x in xs])
            return sink.take()

        class Raising:
            def push(self, item):
                raise RuntimeError(f"feed bug {item!r}")

            def push_batch(self, rows, stamps, source):
                raise RuntimeError(f"feed bug {rows[0].values!r}")

        seen: list = []
        parent = object.__new__(FramedChannel)  # no worker process
        parent.index = 0
        parent._feeds = {7: (Raising(), schema), 8: (CallbackConsumer(seen.append), schema)}
        parent.outq = queue.Queue()
        for frame in [
            ("out", None, _pack([(7, frame_items(1)), (8, frame_items(1))])),
            ("out", None, _pack([(7, frame_items(2)), (8, frame_items(2, 3))])),
            ("ack", 5, _pack([(8, frame_items(4))]), "reply"),
        ]:
            parent.outq.put(frame)
        parent._awaiting = 5
        with pytest.raises(RuntimeError, match=r"feed bug \(1,\)"):
            getattr(parent, wait)()
        assert [element.row.values for element in seen] == [(1,), (2,), (3,), (4,)]
        assert parent.outq.empty()
        if wait == "_await":
            assert parent._awaiting is None


class TestWorkerErrors:
    """A frame that raised in a worker did all its work and is acked;
    the parent parks the worker's exception and keeps forwarding up to
    the ack, so a raising query costs its siblings nothing a loopback
    pool would not."""

    @staticmethod
    def _steps(workers):
        """(rows, punctuations) of the windowed count after each verb,
        beside a query raising on every row, and which verb raised."""
        with connect(shards=2, workers=workers) as session:
            session.attach(StreamSource("Readings", READINGS, partition_by="host"))
            session.query("select r.host, sqrt(r.temp - 40.0) as x from Readings r")
            count = session.query(
                "select r.host, count(*) as n from Readings r "
                "[range 10 seconds slide 10 seconds] group by r.host"
            )
            rows = [
                Row.raw(READINGS, (ROOMS[i % 3], f"ws{i}", 10.0 + i, 0.5)) for i in range(8)
            ]
            steps, raised = [], []
            for verb, args in (
                ("push_many", ("Readings", rows, [float(i) for i in range(1, 9)])),
                ("punctuate", (10.0,)),
                ("punctuate", (20.0,)),
            ):
                try:
                    getattr(session, verb)(*args)
                except ValueError:
                    raised.append(verb)
                steps.append((len(count.results()), len(count._handle.sink.punctuations)))
            return steps, raised

    @pytest.mark.skipif(usable_start_method() is None, reason="no multiprocessing start method")
    def test_no_punctuation_is_lost(self):
        """The worker's punctuation frame runs its rows (whose error it
        parks), then the punctuation; the parent forwards the window
        close before raising."""
        loopback, loopback_raised = self._steps("inline")
        framed, framed_raised = self._steps("process")
        assert loopback == [(0, 0), (8, 1), (8, 2)]
        assert framed[1:] == loopback[1:]  # every verb that awaits an ack
        assert loopback_raised == ["push_many"]
        assert framed_raised == ["punctuate"]  # once, with the worker's type

    def test_the_parent_parks_error_frames_up_to_the_ack(self):
        """The first exception wins: with its type when it pickled
        (the worker's traceback as a note), else an ExecutionError
        carrying the traceback."""
        parent = object.__new__(FramedChannel)  # no worker process
        parent.index = 0
        parent._feeds = {}
        parent.outq = queue.Queue()
        for frame in [
            ("error", None, pickle.dumps(ValueError("first")), "Traceback: first"),
            ("error", None, None, "Traceback: second"),
            ("ack", 5, _pack([]), None),
        ]:
            parent.outq.put(frame)
        parent._awaiting = 5
        with pytest.raises(ValueError, match="first") as raised:
            parent._await()
        assert raised.value.__notes__ == ["raised in shard worker 0:\nTraceback: first"]
        assert parent._awaiting is None and parent.outq.empty()
        parent.outq.put(("error", None, None, "Traceback: second"))
        with pytest.raises(ExecutionError, match="shard worker 0 failed:\nTraceback: second"):
            parent._drain()

    def test_an_unpicklable_exception_ships_as_its_traceback(self):
        class Local(Exception):  # a local class does not pickle
            pass

        for exc in (ValueError("kept"), Local("lost")):
            try:
                raise exc
            except Exception:
                exported = _exported()
            if isinstance(exc, Local):
                assert exported is None
            else:
                assert repr(pickle.loads(exported)) == "ValueError('kept')"


class TestADeliveryThatRaises:
    """An exchanged join whose stage raises on some pairs, on two
    shards: each destination's delivery enters the join by one call, a
    run that raises loses its pairs and its later rows, every other
    run's pairs leave — what feeding the same runs one by one through
    the join's side ports gives — and the barrier raises once."""

    SQL = (
        "select r.host, e.kind, sqrt(e.level - 1.0) as s from Readings r "
        "[range 20 seconds], Events e [range 20 seconds] where r.room = e.kind"
    )

    @staticmethod
    def _by_ports(stage2, delivered):
        """Each destination's runs through a twin of its stage-2 replica,
        run by run by the side ports; how many runs raised."""
        schemas = {
            node.name: node.schema for node in stage2.walk() if isinstance(node, ExchangeSource)
        }
        twins, raised = {}, 0
        for dest, runs, puncts in delivered:
            if dest not in twins:
                sink = CollectingConsumer()
                compiled = PlanCompiler().compile(stage2, sink)
                twins[dest] = sink, {port.source_name: port.consumer for port in compiled.ports}
            ports = twins[dest][1]
            for name, values, stamps in runs:
                run = [StreamElement(Row.raw(schemas[name], v), t, name) for v, t in zip(values, stamps)]
                try:
                    push_elements(ports[name], run)
                except ValueError:
                    raised += 1
            for watermark, names in puncts:
                for name in names:
                    ports[name].push(Punctuation(watermark))
        rows = sorted(
            (e.timestamp, e.row.values) for sink, _ in twins.values() for e in sink.elements
        )
        return rows, raised

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_a_raising_run_costs_only_its_own_pairs(self, transport, monkeypatch):
        catalog = _catalog()
        pool = POOLS[transport](catalog, shards=2)
        delivered, entries = [], []
        monkeypatch.setattr(
            SymmetricHashJoin, "push_runs",
            lambda join, runs, _raw=SymmetricHashJoin.push_runs: entries.append(len(runs)) or _raw(join, runs),
        )
        try:
            pool.set_partition_key("Readings", "host")
            pool.set_partition_key("Events", "host")
            handle = pool.execute(PlanBuilder(catalog).build_sql(self.SQL), sql=self.SQL)
            assert handle.exchanged
            for index, shard in enumerate(pool._channels):
                monkeypatch.setattr(
                    shard, "deliver",
                    lambda runs, puncts, _raw=shard.deliver, _dest=index: (
                        delivered.append((_dest, runs, puncts)) or _raw(runs, puncts)
                    ),
                )
            raised = 0
            for chunk, stamp in _feed():
                for source, (rows, stamps) in chunk.items():
                    pool.push_many(source, rows, stamps)
                try:
                    pool.punctuate(stamp)
                except ValueError:
                    raised += 1
            pool.punctuate(stamp + 100.0)  # nothing left parked
            got = sorted((e.timestamp, e.row.values) for e in handle.sink.elements)
        finally:
            if transport == "framed":
                pool.shutdown()
        expected, failed_runs = self._by_ports(handle.exchange.recipe.stage2, delivered)
        assert got == expected and got  # pairs from the runs that did not raise
        # Every barrier whose delivery raised raised once, and some did.
        assert raised == 3 and failed_runs > raised
        if transport == "loopback":  # the workers' joins run out of process
            assert len(entries) == sum(1 for _, runs, _ in delivered if runs)


class TestSessionSurfacesPoolStats:
    @pytest.mark.parametrize(
        "workers",
        [
            "inline",
            pytest.param(
                "process",
                marks=pytest.mark.skipif(
                    usable_start_method() is None,
                    reason="no multiprocessing start method",
                ),
            ),
        ],
    )
    def test_pool_and_exchange_counters(self, workers):
        with connect(shards=2, workers=workers) as session:
            session.attach(StreamSource("Readings", READINGS, partition_by="host"))
            cursor = session.query(QUERIES[2])
            (chunk, stamp), *_ = _feed()
            rows, stamps = chunk["Readings"]
            session.push_many("Readings", rows, stamps)
            session.punctuate(stamp + 30.0)
            assert cursor.results()
            pool = session.stats()["pool"]
            assert pool == session.engine.stats()
            assert pool["elements_ingested"] == len(rows)
            assert {"owner_cache_hits", "owner_cache_misses"} <= set(pool)
            assert pool["exchange"]["queries"] == 1
            assert pool["exchange"]["barrier_rounds"] == 1
            assert pool["exchange"]["rows_delivered"] > 0
            assert ("workers" in session.stats()) == (workers == "process")

    def test_unsharded_session_has_no_pool_entry(self):
        with connect() as session:
            assert "pool" not in session.stats()
