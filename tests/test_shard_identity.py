"""Sharded-vs-unsharded identity: the acceptance corpus for the pool.

Mirrors ``tests/test_fusion.py``'s A/B style: the same random pipelines
— partition-safe ones (fused chains, keyed windowed aggregation, keyed
DISTINCT) and partition-unsafe ones (ORDER BY / LIMIT, global
aggregates, DISTINCT without the key, ROWS windows) — are driven with
identical rows, timestamps and punctuation positions through a plain
:class:`StreamEngine` and through :class:`ShardedStreamEngine` pools of
N ∈ {1, 2, 4} shards. Sorted results must match exactly, and so must
every *punctuation segment* (the rows emitted between consecutive
watermarks — i.e. the window emissions a subscriber or ``latest_batch``
would observe).

Seed count: ``REPRO_SHARD_SEEDS`` (default 10; ``make check`` runs a
reduced count for the smoke gate).
"""

from __future__ import annotations

import os
import random

import pytest
from conftest import generated, interpreted

from repro.catalog import Catalog
from repro.data import DataType, Row, Schema
from repro.plan import PlanBuilder
from repro.stream.engine import StreamEngine
from repro.stream.procshard import ProcessShardEngine, usable_start_method
from repro.stream.sharded import ShardedQueryHandle, ShardedStreamEngine

SEEDS = int(os.environ.get("REPRO_SHARD_SEEDS", "10"))
#: Process pools pay a fork/recompile per worker per case; a smaller
#: slice of the same corpus keeps the suite fast without losing the
#: cross-mode comparison (every seed still runs in-process above).
PROCESS_SEEDS = min(SEEDS, 3)

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
MACHINES_ROWS = [
    {"name": f"ws{i}", "room": f"lab{i % 3}", "cpu": float(i % 7)} for i in range(12)
]
MACHINES = Schema.of(
    ("name", DataType.STRING),
    ("room", DataType.STRING),
    ("cpu", DataType.FLOAT),
)

SAFE_TEMPLATES = [
    # Stateless fused chains (safe even round-robin).
    "select r.host, r.temp * 2.0 as t2 from Readings r "
    "where r.temp > {t0} and r.load >= {l0}",
    "select r.room, r.host, r.load from Readings r where r.load < {l1}",
    # Keyed windowed aggregation: GROUP BY covers the partition key.
    "select r.host, count(*) as n, sum(r.temp) as total from Readings r "
    "[range {w} seconds slide {w} seconds] where r.load >= 0.0 group by r.host",
    "select r.host, min(r.temp) as lo, max(r.temp) as hi, avg(r.load) as mean "
    "from Readings r [range {w2} seconds slide {s2} seconds] group by r.host",
    # Keyed DISTINCT.
    "select distinct r.host, r.room from Readings r where r.temp > {t1}",
]

UNSAFE_TEMPLATES = [
    "select r.room, r.temp from Readings r order by r.temp",
    "select r.host from Readings r where r.temp > {t0} limit 5",
    "select count(*) as n, avg(r.temp) as mean from Readings r "
    "[range {w} seconds slide {w} seconds]",
    "select r.room, count(*) as n from Readings r "
    "[range {w} seconds slide {w} seconds] group by r.room",
    "select distinct r.room from Readings r",
    "select r.host, r.temp from Readings r [rows 25] where r.load > {l0}",
]


def _fill(template: str, rng: random.Random) -> str:
    return template.format(
        t0=round(rng.uniform(5.0, 40.0), 1),
        t1=round(rng.uniform(10.0, 60.0), 1),
        l0=round(rng.uniform(0.0, 0.4), 2),
        l1=round(rng.uniform(0.4, 1.0), 2),
        w=rng.choice([10, 20, 40]),
        w2=rng.choice([20, 30]),
        s2=rng.choice([10, 20]),
    )


def _rows(count: int, rng: random.Random):
    """Random rows with NULLs and strictly increasing timestamps."""
    rooms = ["lab1", "lab2", "office3", None]
    rows, stamps = [], []
    clock = 0.0
    for i in range(count):
        rows.append(
            Row(
                READINGS,
                (
                    rooms[rng.randrange(4)],
                    f"ws{rng.randrange(16)}",
                    None if rng.random() < 0.08 else round(rng.uniform(-5, 80), 2),
                    round(rng.uniform(0, 1), 3),
                ),
                validate=False,
            )
        )
        clock += rng.uniform(0.05, 1.5)
        stamps.append(round(clock, 3))
    return rows, stamps


def _catalog() -> Catalog:
    catalog = Catalog()
    catalog.register_stream("Readings", READINGS, rate=10.0)
    return catalog


def _drive(engine, handles, rows, stamps, plan_rng: random.Random):
    """Push the feed in chunks (randomly per-element or batched, same
    split on every engine), punctuating between chunks; returns each
    handle's emissions per punctuation segment plus the final tail."""
    segments = [[] for _ in handles]
    marks = [0 for _ in handles]

    def snapshot():
        for index, handle in enumerate(handles):
            elements = handle.sink.elements
            fresh = elements[marks[index]:]
            marks[index] = len(elements)
            segments[index].append(
                sorted((e.timestamp, repr(e.row.values)) for e in fresh)
            )

    offset = 0
    while offset < len(rows):
        size = plan_rng.randint(5, 60)
        chunk_rows = rows[offset : offset + size]
        chunk_stamps = stamps[offset : offset + size]
        if plan_rng.random() < 0.5:
            engine.push_many("Readings", chunk_rows, chunk_stamps)
        else:
            for row, stamp in zip(chunk_rows, chunk_stamps):
                engine.push("Readings", row, stamp)
        offset += size
        engine.punctuate(max(chunk_stamps))
        snapshot()
    engine.punctuate(stamps[-1] + 200.0)
    snapshot()
    return segments


def _run_unsharded(queries, rows, stamps, seed):
    catalog = _catalog()
    engine = StreamEngine(catalog)
    builder = PlanBuilder(catalog)
    handles = [engine.execute(builder.build_sql(sql)) for sql in queries]
    return _drive(engine, handles, rows, stamps, random.Random(seed * 31 + 7))


POOLS = {"loopback": ShardedStreamEngine, "framed": ProcessShardEngine}


def _run_pool(transport, queries, rows, stamps, seed, shards, partition_by="host"):
    """The one pool body: same catalog, keys, queries and chunk plan
    whichever channel reaches the shards. SQL text rides along with
    every plan — the loopback channel ignores it, the framed one ships
    it instead of the plan."""
    catalog = _catalog()
    engine = POOLS[transport](catalog, shards=shards)
    try:
        if partition_by is not None:
            engine.set_partition_key("Readings", partition_by)
        builder = PlanBuilder(catalog)
        handles = [
            engine.execute(builder.build_sql(sql), sql=sql) for sql in queries
        ]
        segments = _drive(engine, handles, rows, stamps, random.Random(seed * 31 + 7))
        return segments, handles
    finally:
        if transport == "framed":
            engine.shutdown()


def _run_sharded(queries, rows, stamps, seed, shards, partition_by="host"):
    return _run_pool("loopback", queries, rows, stamps, seed, shards, partition_by)


@pytest.mark.usefixtures("no_fallbacks")
class TestShardIdentityCorpus:
    """Random safe+unsafe pipelines: every shard count must reproduce
    the single engine's sorted per-segment emissions exactly."""

    @pytest.mark.parametrize("seed", range(SEEDS))
    def test_identity_corpus(self, seed):
        rng = random.Random(seed)
        queries = [
            _fill(rng.choice(SAFE_TEMPLATES), rng)
            for _ in range(rng.randint(1, 3))
        ] + [
            _fill(rng.choice(UNSAFE_TEMPLATES), rng)
            for _ in range(rng.randint(1, 2))
        ]
        rows, stamps = _rows(rng.randint(150, 400), rng)
        expected = _run_unsharded(queries, rows, stamps, seed)
        for shards in (1, 2, 4):
            got, handles = _run_sharded(queries, rows, stamps, seed, shards)
            assert got == expected, (
                f"seed={seed} shards={shards}: emissions diverged"
            )
            for handle in handles:
                assert isinstance(handle, ShardedQueryHandle)
                assert handle.analysis is not None

    @pytest.mark.parametrize("seed", range(min(SEEDS, 5)))
    def test_round_robin_identity(self, seed):
        """Without a declared key, stateless plans stay partitioned and
        the GROUP BY runs as a two-stage exchange over the round-robin
        feed; results still match exactly (ORDER BY falls back)."""
        rng = random.Random(1000 + seed)
        queries = [
            _fill(SAFE_TEMPLATES[0], rng),
            _fill(SAFE_TEMPLATES[2], rng),  # keyed agg -> exchange (no key)
            _fill(UNSAFE_TEMPLATES[0], rng),
        ]
        rows, stamps = _rows(200, rng)
        expected = _run_unsharded(queries, rows, stamps, seed)
        got, handles = _run_sharded(
            queries, rows, stamps, seed, shards=3, partition_by=None
        )
        assert got == expected
        assert handles[0].partitioned  # stateless chain stays parallel
        assert handles[1].exchanged  # unkeyed ingest: shuffle on GROUP BY
        assert not handles[2].partitioned  # ORDER BY still falls back


def _run_process(queries, rows, stamps, seed, shards, partition_by="host"):
    return _run_pool("framed", queries, rows, stamps, seed, shards, partition_by)


@pytest.mark.skipif(
    usable_start_method() is None, reason="no multiprocessing start method"
)
class TestProcessWorkerIdentity:
    """workers='process' × shards ∈ {1, 2, 4}: the process pool must
    reproduce the in-process pool's per-punctuation-segment emissions
    exactly — same merge, same dedupe, same fallback routing — the
    only observable difference being which cores do the work."""

    @pytest.mark.parametrize("seed", range(PROCESS_SEEDS))
    def test_process_identity_corpus(self, seed):
        rng = random.Random(seed)
        queries = [
            _fill(rng.choice(SAFE_TEMPLATES), rng)
            for _ in range(rng.randint(1, 3))
        ] + [
            _fill(rng.choice(UNSAFE_TEMPLATES), rng)
            for _ in range(rng.randint(1, 2))
        ]
        rows, stamps = _rows(rng.randint(150, 400), rng)
        for shards in (1, 2, 4):
            expected, _ = _run_sharded(queries, rows, stamps, seed, shards)
            got, handles = _run_process(queries, rows, stamps, seed, shards)
            assert got == expected, (
                f"seed={seed} shards={shards}: process emissions diverged "
                "from the in-process pool"
            )
            for handle in handles:
                assert isinstance(handle, ShardedQueryHandle)
                assert handle.analysis is not None

    def test_safe_plans_partition_and_unsafe_fall_back(self):
        rng = random.Random(424)
        queries = [_fill(SAFE_TEMPLATES[2], rng), _fill(UNSAFE_TEMPLATES[0], rng)]
        rows, stamps = _rows(120, rng)
        _, handles = _run_process(queries, rows, stamps, 424, shards=2)
        assert handles[0].partitioned
        assert not handles[1].partitioned

    def test_plan_without_sql_text_falls_back(self):
        """Plans are never pickled: execute() without the SQL text runs
        the (safe) plan on the in-parent fallback engine instead."""
        catalog = _catalog()
        engine = ProcessShardEngine(catalog, shards=2)
        try:
            engine.set_partition_key("Readings", "host")
            sql = "select r.host, r.temp from Readings r where r.temp > 1.0"
            handle = engine.execute(PlanBuilder(catalog).build_sql(sql))
            assert not handle.partitioned
            assert handle.analysis.safe
            # ...and it still runs: same rows as the single engine.
            rows, stamps = _rows(80, random.Random(5))
            engine.push_many("Readings", rows, stamps)
            engine.punctuate(stamps[-1] + 1.0)
            expected = [r for r in rows if r["temp"] is not None and r["temp"] > 1.0]
            assert [r.values for r in handle.results] == [
                (r["host"], r["temp"]) for r in expected
            ]
            assert engine.worker_stats()["rows_shipped"] == 0  # nothing to ship to
        finally:
            engine.shutdown()


@pytest.mark.usefixtures("no_fallbacks")
class TestShardedJoins:
    def _catalogs(self):
        catalog = Catalog()
        catalog.register_stream("Readings", READINGS, rate=10.0)
        catalog.register_stream("Events", EVENTS, rate=5.0)
        catalog.register_table("Machines", MACHINES, cardinality=len(MACHINES_ROWS))
        return catalog

    def _feed(self, seed: int):
        rng = random.Random(seed)
        feed = []  # (source, row, timestamp)
        clock = 0.0
        for i in range(300):
            clock += rng.uniform(0.05, 0.8)
            if rng.random() < 0.5:
                row = Row.raw(
                    READINGS,
                    (f"lab{i % 3}", f"ws{rng.randrange(8)}",
                     round(rng.uniform(0, 60), 2), round(rng.uniform(0, 1), 2)),
                )
                feed.append(("Readings", row, round(clock, 3)))
            else:
                row = Row.raw(
                    EVENTS,
                    (f"ws{rng.randrange(8)}", rng.choice(["warn", "err"]),
                     round(rng.uniform(0, 9), 2)),
                )
                feed.append(("Events", row, round(clock, 3)))
        return feed

    def _run(self, engine_factory, sql, seed):
        catalog = self._catalogs()
        engine = engine_factory(catalog)
        engine.load_table("Machines", MACHINES_ROWS)
        handle = engine.execute(PlanBuilder(catalog).build_sql(sql))
        for index, (source, row, stamp) in enumerate(self._feed(seed)):
            engine.push(source, row, stamp)
            if index % 40 == 39:
                engine.punctuate(stamp)
        engine.punctuate(10_000.0)
        return sorted(repr(r.values) for r in handle.results), handle

    @pytest.mark.parametrize("seed", range(3))
    def test_key_aligned_stream_join_is_partitioned_and_identical(self, seed):
        sql = (
            "select r.host, r.temp, e.kind from Readings r [range 20 seconds], "
            "Events e [range 20 seconds] "
            "where r.host = e.host and e.level > 1.0"
        )

        def sharded(catalog):
            pool = ShardedStreamEngine(catalog, shards=4)
            pool.set_partition_key("Readings", "host")
            pool.set_partition_key("Events", "host")
            return pool

        expected, _ = self._run(StreamEngine, sql, seed)
        got, handle = self._run(sharded, sql, seed)
        assert got == expected
        assert handle.partitioned, handle.analysis

    def test_stream_table_join_is_partitioned_and_identical(self):
        sql = (
            "select r.host, m.room, m.cpu from Readings r [range 30 seconds], "
            "Machines m where r.host = m.name and r.temp > 10.0"
        )

        def sharded(catalog):
            pool = ShardedStreamEngine(catalog, shards=3)
            pool.set_partition_key("Readings", "host")
            return pool

        expected, _ = self._run(StreamEngine, sql, 5)
        got, handle = self._run(sharded, sql, 5)
        assert got == expected
        assert handle.partitioned, handle.analysis

    def test_unaligned_stream_join_exchanges_and_is_identical(self):
        """The join key (room = kind) disagrees with the declared
        partition key (host), so the pool shuffles both inputs on the
        join key mid-plan instead of falling back — identical output."""
        sql = (
            "select r.host, e.kind from Readings r [range 20 seconds], "
            "Events e [range 20 seconds] where r.room = e.kind"
        )

        def sharded(catalog):
            pool = ShardedStreamEngine(catalog, shards=4)
            pool.set_partition_key("Readings", "host")
            pool.set_partition_key("Events", "host")
            return pool

        expected, _ = self._run(StreamEngine, sql, 9)
        got, handle = self._run(sharded, sql, 9)
        assert got == expected
        assert handle.exchanged

    def test_unaligned_join_with_matches_is_identical(self):
        """Same shape but with a predicate that actually produces pairs
        (host = host, partitioned by room/kind): every shard count must
        reproduce the single engine's rows through the shuffle."""
        sql = (
            "select r.host, r.temp, e.kind from Readings r [range 30 seconds], "
            "Events e [range 10 seconds] where r.host = e.host and e.level > 2.0"
        )

        expected, _ = self._run(StreamEngine, sql, 11)
        assert expected  # the corpus would be vacuous without matches
        for shards in (2, 3):

            def sharded(catalog, shards=shards):
                pool = ShardedStreamEngine(catalog, shards=shards)
                pool.set_partition_key("Readings", "room")
                pool.set_partition_key("Events", "kind")
                return pool

            got, handle = self._run(sharded, sql, 11)
            assert got == expected
            assert handle.exchanged


# ----------------------------------------------------------------------
# Two-phase aggregation: compiled stage 1 vs the interpreted reference
# ----------------------------------------------------------------------
TWO_PHASE_QUERIES = [
    # Global (no GROUP BY) and non-covering GROUP BY (the pool is keyed
    # by host), float folds included: SUM/AVG re-fold in arrival order.
    "select count(*) as n, sum(r.temp) as total, avg(r.load) as mean, "
    "min(r.temp) as lo, count(distinct r.host) as hosts from Readings r "
    "[range 20 seconds slide 20 seconds]",
    "select r.room, count(*) as n, sum(r.temp * 1.5) as total, avg(r.temp) as mean, "
    "min(r.load) as lo, count(distinct r.host) as hosts from Readings r "
    "[range 20 seconds slide 10 seconds] where r.load >= 0.05 group by r.room",
    # A size that is no whole number of hops: windows resolved per row.
    "select r.room, count(*) as n, sum(r.temp) as total, max(r.temp) as hi "
    "from Readings r [range 25 seconds slide 10 seconds] group by r.room",
    # Windowed DISTINCT folds: per-window seen-sets, deduplicated again
    # across shards, summed in arrival order.
    "select sum(distinct r.temp) as st, avg(distinct r.load) as al, "
    "count(distinct r.room) as rooms from Readings r [range 30 seconds slide 10 seconds]",
    # Running (unwindowed) totals: per-punctuation deltas.
    "select r.room, sum(r.temp) as total, count(distinct r.host) as hosts "
    "from Readings r group by r.room",
]


def _stage1_partials(handle):
    """The stage-1 partial aggregates of an exchanged loopback handle,
    shard 0's replica."""
    from repro.stream.operators import PartialAggregateOp

    replica = handle.engine._channels[0].stage1[handle.query_id][0]
    return [op for op in replica.compiled.operators if isinstance(op, PartialAggregateOp)]


def _out_of_order(rows, stamps, rng: random.Random):
    """The same feed with every value a multiple of 1/8 — float sums are
    then exact in any order, as the merge re-adds by timestamp and the
    single engine by arrival — and each run of four rows shuffled, so
    rows arrive out of timestamp order inside a segment and, across a
    chunk boundary, sometimes behind the watermark."""
    eighths = [
        Row(
            READINGS,
            (room, host, None if temp is None else round(temp * 8) / 8, round(load * 8) / 8),
            validate=False,
        )
        for room, host, temp, load in (row.values for row in rows)
    ]
    order = list(range(len(rows)))
    for start in range(0, len(order), 4):
        block = order[start : start + 4]
        rng.shuffle(block)
        order[start : start + 4] = block
    return [eighths[i] for i in order], [stamps[i] for i in order]


class TestTwoPhaseCompiledIdentity:
    """Exchanged global / non-covering GROUP BY: the compiled partial
    aggregate emits bit-identical rows to the interpreted reference
    (every generator declining), on every shard count and either
    transport."""

    @pytest.mark.parametrize("seed", range(min(SEEDS, 3)))
    def test_compiled_pool_matches_interpreted_reference(self, seed):
        rng = random.Random(7000 + seed)
        rows, stamps = _rows(rng.randint(200, 320), rng)
        self._check(rows, stamps, seed)

    @pytest.mark.parametrize("seed", range(min(SEEDS, 3)))
    def test_out_of_order_rows_inside_a_segment(self, seed):
        rng = random.Random(7100 + seed)
        rows, stamps = _out_of_order(*_rows(rng.randint(200, 320), rng), rng)
        assert stamps != sorted(stamps)
        self._check(rows, stamps, seed)

    def _check(self, rows, stamps, seed):
        # Engines built in here interpret (this process only: worker
        # processes always generate).
        with interpreted():
            expected = _run_unsharded(TWO_PHASE_QUERIES, rows, stamps, seed)
            pooled, handles = _run_sharded(TWO_PHASE_QUERIES, rows, stamps, seed, 2)
            assert all(handle.exchanged for handle in handles)
            assert _stage1_partials(handles[0])
            assert pooled == expected
        assert all(any(segments) for segments in expected)  # not vacuous
        pools = [("loopback", 1), ("loopback", 2), ("loopback", 4)]
        if usable_start_method() is not None:
            pools.append(("framed", 2))
        for transport, shards in pools:
            with generated():
                got, handles = _run_pool(
                    transport, TWO_PHASE_QUERIES, rows, stamps, seed, shards
                )
            assert all(handle.exchanged for handle in handles)
            if transport == "loopback":
                assert _stage1_partials(handles[0])
            assert got == expected, f"seed={seed} {transport} shards={shards}"


#: Out-of-order rows a first window used to swallow on a pool: each
#: stage-1 replica opened its first window at *its own* earliest row,
#: the single engine at the whole stream's. A script step is a
#: ``(host, timestamp)`` row or a watermark.
LATENESS_REPROS = {
    # The row at 39 was lost on 3 and 4 shards: [(1,), (1,)].
    "tumbling-40": (
        "SELECT COUNT(*) AS n FROM Readings r [RANGE 40 SECONDS SLIDE 40 SECONDS]",
        [("h0", 0.5), 1.0, ("h1", 45.0), 38.0, ("h1", 39.0), 100.0],
        [(2,), (1,)],
    ),
    # The single engine dropped the row at 45 ([(1,)]), 3 and 4 shards
    # kept it.
    "range-10": (
        "SELECT COUNT(*) AS n FROM Readings r [RANGE 10 SECONDS]",
        [("h0", 100.0), 26.0, ("h1", 45.0), 200.0],
        [(1,), (1,)],
    ),
}


def _run_script(sql, script, transport=None, shards=1):
    """Drive ``script`` through one engine (``transport=None``) or a
    pool keyed by host; returns the result values and the handle."""
    catalog = _catalog()
    plan = PlanBuilder(catalog).build_sql(sql)
    if transport is None:
        engine = StreamEngine(catalog)
        handle = engine.execute(plan)
    else:
        engine = POOLS[transport](catalog, shards=shards)
        engine.set_partition_key("Readings", "host")
        handle = engine.execute(plan, sql=sql)
    try:
        for step in script:
            if isinstance(step, tuple):
                host, stamp = step
                engine.push("Readings", Row(READINGS, ("lab1", host, 20.0, 0.5)), stamp)
            else:
                engine.punctuate(step)
        return [row.values for row in handle.results], handle
    finally:
        if transport == "framed":
            engine.shutdown()


@pytest.mark.usefixtures("no_fallbacks")
class TestWatermarkLateness:
    """A row is late only when every window it belongs to ended at or
    before the watermark in force when it is folded — a function of the
    broadcast watermark alone, so an exchanged aggregate drops exactly
    the rows the single engine drops, on any shard count."""

    @pytest.mark.parametrize("case", sorted(LATENESS_REPROS))
    def test_pool_matches_single_engine(self, case):
        sql, script, expected = LATENESS_REPROS[case]
        assert _run_script(sql, script)[0] == expected
        pools = [("loopback", shards) for shards in (1, 2, 3, 4)]
        if usable_start_method() is not None:
            pools.append(("framed", 3))
        for transport, shards in pools:
            got, handle = _run_script(sql, script, transport, shards)
            assert handle.exchanged, (transport, shards)
            assert got == expected, (transport, shards)


#: Join sides keyed off the join column, so a pool shuffles both. A
#: script step is ``(source, [(host, tag, value, timestamp), ...])`` —
#: one ``push_many`` — or a watermark.
_JOIN_A = Schema.of(("host", DataType.STRING), ("room", DataType.STRING), ("v", DataType.INT))
_JOIN_B = Schema.of(("host", DataType.STRING), ("kind", DataType.STRING), ("w", DataType.INT))
_LATE_JOIN = (
    "SELECT a.host, a.v, b.w FROM A a [RANGE 10 SECONDS], B b [RANGE 10 SECONDS] "
    "WHERE a.host = b.host"
)
JOIN_EVICTION_REPROS = {
    # The row at 50 sat behind the row at 100 in its bucket: the single
    # engine kept it past the punctuation at 105 and joined it
    # ([('h', 2, 9)]); every pool, fed (ts, src)-sorted, evicted it.
    "behind-the-tail": (
        [("A", [("h", "r1", 1, 100.0), ("h", "r2", 2, 50.0)]), 105.0,
         ("B", [("h", "k", 9, 55.0)]), 200.0],
        [],
    ),
    # Out of order but live: both rows stay and join.
    "live-stragglers": (
        [("A", [("h", "r1", 1, 100.0), ("h", "r2", 2, 98.0)]), 99.0,
         ("B", [("h", "k", 9, 101.0)]), 200.0],
        [("h", 1, 9), ("h", 2, 9)],
    ),
}


def _run_join_script(script, transport=None, shards=1):
    catalog = Catalog()
    catalog.register_stream("A", _JOIN_A, rate=10.0)
    catalog.register_stream("B", _JOIN_B, rate=10.0)
    plan = PlanBuilder(catalog).build_sql(_LATE_JOIN)
    if transport is None:
        engine = StreamEngine(catalog)
        handle = engine.execute(plan)
    else:
        engine = POOLS[transport](catalog, shards=shards)
        engine.set_partition_key("A", "room")
        engine.set_partition_key("B", "kind")
        handle = engine.execute(plan, sql=_LATE_JOIN)
    schemas = {"A": _JOIN_A, "B": _JOIN_B}
    try:
        for step in script:
            if isinstance(step, tuple):
                source, rows = step
                engine.push_many(
                    source,
                    [Row(schemas[source], row[:3]) for row in rows],
                    [row[3] for row in rows],
                )
            else:
                engine.punctuate(step)
        return sorted(row.values for row in handle.results), handle
    finally:
        if transport == "framed":
            engine.shutdown()


@pytest.mark.usefixtures("no_fallbacks")
class TestJoinEvictionByWatermark:
    """A join evicts every row whose window expired before the
    watermark, whatever order its bucket received rows in — so the
    single engine and a pool, which delivers each shuffled segment
    sorted by ``(ts, src)``, keep the same rows and join the same
    pairs."""

    @pytest.mark.parametrize("case", sorted(JOIN_EVICTION_REPROS))
    def test_pool_matches_single_engine(self, case):
        script, expected = JOIN_EVICTION_REPROS[case]
        assert _run_join_script(script)[0] == expected
        pools = [("loopback", shards) for shards in (1, 2, 4)]
        if usable_start_method() is not None:
            pools.append(("framed", 2))
        for transport, shards in pools:
            got, handle = _run_join_script(script, transport, shards)
            assert handle.exchanged, (transport, shards)
            assert got == expected, (transport, shards)
