"""Fault injection: standing queries surviving engine and mote deaths.

The acceptance bar for the recovery subsystem, driven end to end by
:mod:`repro.runtime.faults`:

* **Kill a shard** mid-corpus: the pool restores the dead engine from
  the latest checkpoint, replays only the log suffix, and the merged
  post-recovery emissions are *identical* to the failure-free run — no
  duplicate and no dropped window emissions across the recovery
  boundary.
* **Kill a mote** mid-run: the sensor engine reports the death, the
  federated backend re-partitions against the degraded network and
  redeploys (keeping fragment feed names, so residual state survives);
  once the detection horizon passes, emissions match the failure-free
  run. When no in-network partition survives, the residual absorbs the
  whole query.
* **Drop deployment acks**: transient failures are retried away;
  deterministic failures still exhaust the attempts and roll back.

Seed count: ``REPRO_FAULT_SEEDS`` (default 6).
"""

from __future__ import annotations

import contextlib
import os
import random

import pytest

from repro.api import SensorSource, StreamSource, TableSource, connect
from repro.catalog import Catalog
from repro.data import DataType, Row, Schema
from repro.data.tuples import stable_hash
from repro.errors import ExecutionError, QueryError, SchemaError
from repro.plan import PlanBuilder
from repro.runtime import Simulator
from repro.runtime.faults import (
    DropDeploymentAcks,
    hang_worker,
    kill_fallback,
    kill_mote,
    kill_shard,
    seeded_point,
)
from repro.sensor import (
    Mote,
    MoteRole,
    Position,
    SensorNetwork,
    SensorRelation,
)
from repro.sensor.radio import RadioModel
from repro.stream.checkpoint import CheckpointCoordinator
from repro.stream.engine import StreamEngine
from repro.stream.procshard import ProcessShardEngine, usable_start_method
from repro.stream.sharded import ShardedStreamEngine

SEEDS = int(os.environ.get("REPRO_FAULT_SEEDS", "6"))

READINGS = Schema.of(
    ("room", DataType.STRING),
    ("host", DataType.STRING),
    ("temp", DataType.FLOAT),
    ("load", DataType.FLOAT),
)

QUERIES = [
    # Partition-safe: stateless chain, keyed windowed agg, keyed DISTINCT.
    "select r.host, r.temp * 2.0 as t2 from Readings r where r.temp > 10.0",
    "select r.host, count(*) as n, sum(r.temp) as total from Readings r "
    "[range 20 seconds slide 20 seconds] group by r.host",
    "select distinct r.host, r.room from Readings r where r.temp > 20.0",
    # Fallback-only: global ORDER BY.
    "select r.room, r.temp from Readings r order by r.temp",
]


def _catalog() -> Catalog:
    catalog = Catalog()
    catalog.register_stream("Readings", READINGS, rate=10.0)
    return catalog


def _rows(count: int, rng: random.Random):
    rooms = ["lab1", "lab2", "office3", None]
    rows, stamps, clock = [], [], 0.0
    for _ in range(count):
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


def _chunks(rows, stamps, plan_rng):
    """The same random chunking on every engine for one seed."""
    out, offset = [], 0
    while offset < len(rows):
        size = plan_rng.randint(5, 60)
        out.append(
            (
                rows[offset : offset + size],
                stamps[offset : offset + size],
                plan_rng.random() < 0.5,
            )
        )
        offset += size
    return out


def _drive(engine, handles, chunks, final_stamp, on_chunk=None):
    """Feed the chunk plan, punctuating between chunks; per-segment
    sorted snapshots per handle. ``on_chunk(index)`` is the injection
    hook, called before the chunk is pushed; a handle it appends to
    ``handles`` (a late admission) is snapshot from there on."""
    segments, marks = [], []

    def snapshot():
        for index, handle in enumerate(handles):
            if index == len(segments):
                segments.append([])
                marks.append(0)
            elements = handle.sink.elements
            fresh = elements[marks[index]:]
            marks[index] = len(elements)
            segments[index].append(
                sorted((e.timestamp, repr(e.row.values)) for e in fresh)
            )

    for chunk_no, (chunk_rows, chunk_stamps, batched) in enumerate(chunks):
        if on_chunk is not None:
            on_chunk(chunk_no)
        if batched:
            engine.push_many("Readings", chunk_rows, chunk_stamps)
        else:
            for row, stamp in zip(chunk_rows, chunk_stamps):
                engine.push("Readings", row, stamp)
        engine.punctuate(chunk_stamps[-1])
        snapshot()
    engine.punctuate(final_stamp)
    snapshot()
    return segments


def _run_unsharded(rows, stamps, chunks, late=None):
    catalog = _catalog()
    engine = StreamEngine(catalog)
    builder = PlanBuilder(catalog)
    handles = [engine.execute(builder.build_sql(sql)) for sql in QUERIES]
    admit = _admitting(engine, builder, handles, late)
    return _drive(engine, handles, chunks, stamps[-1] + 200.0, on_chunk=admit)


#: The staggered-admission arm of the seeded corpora: one query admitted
#: after the latest barrier before the kill (:func:`_admitted_at`) — on
#: the shards (a keyed window, or an exchanged global aggregate) where a
#: shard dies, on the fallback where the fallback does.
LATE_SHARD_QUERIES = [
    "select r.host, count(*) as n from Readings r [range 10 seconds] group by r.host",
    "select count(*) as n, max(r.temp) as hi from Readings r [range 20 seconds slide 20 seconds]",
]
LATE_FALLBACK_QUERY = "select r.room, r.temp from Readings r order by r.temp limit 30"


def _admitted_at(chunks, kill_at, interval, seed):
    """A seeded chunk after the latest barrier before chunk ``kill_at``
    and at or before it: a barrier fires at the first punctuation and
    then once ``interval`` of watermark has passed since the last."""
    latest, last = -1, None
    for chunk_no, (_, chunk_stamps, _) in enumerate(chunks[:kill_at]):
        if last is None or chunk_stamps[-1] >= last + interval:
            latest, last = chunk_no, chunk_stamps[-1]
    return latest + 1 + seeded_point(seed, kill_at - latest, salt=3)


def _admitting(engine, builder, handles, late):
    """An ``on_chunk`` hook admitting ``late`` — ``(chunk, sql)``, or
    None for no late query — into ``handles`` before that chunk."""

    def admit(chunk_no):
        if late is not None and chunk_no == late[0]:
            extra = {"sql": late[1]} if hasattr(engine, "shard_count") else {}
            handles.append(engine.execute(builder.build_sql(late[1]), **extra))

    return admit


POOLS = {"loopback": ShardedStreamEngine, "framed": ProcessShardEngine}
needs_processes = pytest.mark.skipif(
    usable_start_method() is None, reason="no multiprocessing start method"
)
TRANSPORTS = ["loopback", pytest.param("framed", marks=needs_processes)]


@contextlib.contextmanager
def _pool(transport, shards, interval, queries=QUERIES, share_plans=False):
    """One pool, either transport: same catalog, key and queries. SQL
    text rides along with every plan — the loopback channel ignores it,
    the framed channel ships it instead of the plan."""
    catalog = _catalog()
    pool = POOLS[transport](catalog, shards=shards, share_plans=share_plans)
    try:
        pool.set_partition_key("Readings", "host")
        coordinator = (
            CheckpointCoordinator(pool, interval=interval)
            if interval is not None
            else None
        )
        builder = PlanBuilder(catalog)
        handles = [pool.execute(builder.build_sql(sql), sql=sql) for sql in queries]
        yield pool, coordinator, handles
    finally:
        if transport == "framed":
            pool.shutdown()


def _corpus(seed, salt=0, count=None):
    rng = random.Random(salt + seed)
    rows, stamps = _rows(count if count is not None else rng.randint(150, 350), rng)
    chunks = _chunks(rows, stamps, random.Random(seed * 31 + 7))
    return rows, stamps, chunks


# -- the shared bodies: every pool failover test, over either transport --
def _check_kill_shard_mid_corpus(transport, seed):
    """Kill one shard mid-corpus: post-recovery emissions identical to
    the failure-free (and the unsharded) run, replaying only the log
    suffix since the newest barrier."""
    rows, stamps, chunks = _corpus(seed)
    shards = 4
    kill_at = seeded_point(seed, len(chunks))
    victim = seeded_point(seed, shards, salt=1)
    late = (_admitted_at(chunks, kill_at, 25.0, seed), LATE_SHARD_QUERIES[seed % 2])
    expected = _run_unsharded(rows, stamps, chunks, late)
    with _pool(transport, shards, interval=25.0) as (pool, coordinator, handles):
        state = {}
        admit = _admitting(pool, PlanBuilder(pool._catalog), handles, late)

        def inject(chunk_no):
            admit(chunk_no)
            if chunk_no == kill_at:
                state["barrier"] = coordinator.latest()
                kill_shard(pool, victim)

        got = _drive(pool, handles, chunks, stamps[-1] + 200.0, on_chunk=inject)
        assert got == expected, (
            f"seed={seed} {transport}: emissions diverged across recovery"
        )
        # Suffix-only replay: recovery started from the newest barrier
        # (or seq 0 when the kill preceded the first one), never from
        # pruned history.
        replay = coordinator.last_replay
        assert replay is not None and replay["target"] == victim
        barrier = state["barrier"]
        assert replay["from_seq"] == (barrier.log_seq if barrier is not None else 0)
        assert pool.worker_stats().get("restarts", 1) == 1


def _check_punctuate_recovers_a_dead_shard(transport):
    """Punctuation reaching the pool restores a dead shard inside the
    barrier, so the triggering watermark closes windows on the restored
    replicas too — the merge coordinator's min-watermark hold ends in
    the same call that repaired the shard."""
    with _pool(transport, 3, interval=0.0) as (pool, coordinator, handles):
        rows, stamps = _rows(60, random.Random(7))
        pool.push_many("Readings", rows, stamps)
        pool.punctuate(stamps[-1])
        sink_puncts = len(handles[1].sink.punctuations)
        kill_shard(pool, 1)
        assert pool.engines[1].failed
        pool.punctuate(stamps[-1] + 50.0)
        assert not pool.engines[1].failed  # restored in-line
        assert len(handles[1].sink.punctuations) == sink_puncts + 1  # not held back
        assert coordinator.last_replay["target"] == 1
        assert pool.worker_stats().get("restarts", 1) == 1


def _check_failover_without_coordinator_raises(transport):
    with _pool(transport, 2, interval=None) as (pool, _, handles):
        rows, stamps = _rows(30, random.Random(3))
        pool.push_many("Readings", rows, stamps)
        kill_shard(pool, 0)
        with pytest.raises(ExecutionError, match="shard 0 .*CheckpointCoordinator"):
            pool.punctuate(stamps[-1])


@pytest.mark.usefixtures("no_fallbacks")
class TestShardFailoverIdentity:
    """Kill one shard engine mid-corpus: post-recovery emissions must be
    identical to the failure-free (and the unsharded) run."""

    @pytest.mark.parametrize("seed", range(SEEDS))
    def test_kill_shard_mid_corpus(self, seed):
        _check_kill_shard_mid_corpus("loopback", seed)

    @pytest.mark.parametrize("seed", range(min(SEEDS, 3)))
    def test_kill_fallback_mid_corpus(self, seed):
        rows, stamps, chunks = _corpus(seed, salt=500, count=250)
        kill_at = seeded_point(seed, len(chunks), salt=2)
        late = (_admitted_at(chunks, kill_at, 25.0, seed), LATE_FALLBACK_QUERY)
        expected = _run_unsharded(rows, stamps, chunks, late)
        with _pool("loopback", 3, interval=25.0) as (pool, coordinator, handles):
            admit = _admitting(pool, PlanBuilder(pool._catalog), handles, late)

            def inject(chunk_no):
                admit(chunk_no)
                if chunk_no == kill_at:
                    kill_fallback(pool)

            got = _drive(pool, handles, chunks, stamps[-1] + 200.0, on_chunk=inject)
            assert got == expected
            assert coordinator.last_replay is not None
            assert coordinator.last_replay["target"] == "fb"

    def test_cold_failover_before_first_barrier(self):
        """A shard killed before any checkpoint replays the full log —
        the pool's handles outlive the dead engine."""
        rows, stamps, chunks = _corpus(42, count=120)
        expected = _run_unsharded(rows, stamps, chunks)
        # interval=None: the log accumulates but no barrier ever fires,
        # so recovery must replay the full log from seq 0.
        with _pool("loopback", 3, interval=None) as (pool, _, handles):
            coordinator = CheckpointCoordinator(pool, interval=None)

            def inject(chunk_no):
                if chunk_no == 1:
                    kill_shard(pool, 0)

            got = _drive(pool, handles, chunks, stamps[-1] + 200.0, on_chunk=inject)
            assert got == expected
            assert coordinator.last_replay["from_seq"] == 0

    def test_punctuate_recovers_a_dead_shard(self):
        _check_punctuate_recovers_a_dead_shard("loopback")

    def test_failover_without_coordinator_raises(self):
        _check_failover_without_coordinator_raises("loopback")


@needs_processes
class TestProcessWorkerFailover:
    """SIGKILL one worker *process* mid-corpus: the same bodies over the
    framed channel — the pool restores a replacement process from the
    latest barrier and replays only the log suffix, with post-recovery
    emissions byte-identical to failure-free."""

    @pytest.mark.parametrize("seed", range(min(SEEDS, 3)))
    def test_kill_worker_mid_corpus(self, seed):
        _check_kill_shard_mid_corpus("framed", seed)

    def test_punctuate_recovers_a_dead_worker(self):
        _check_punctuate_recovers_a_dead_shard("framed")

    def test_worker_failover_without_coordinator_raises(self):
        _check_failover_without_coordinator_raises("framed")

    def test_hung_worker_is_killed_at_the_deadline(self, monkeypatch):
        """A worker that hangs (SIGSTOP) instead of dying must not block
        the barrier forever: the ack wait expires, the worker is killed
        and the ordinary failover path takes over — emissions identical
        to the failure-free run."""
        import repro.stream.procshard as procshard

        monkeypatch.setattr(procshard, "ACK_DEADLINE_S", 0.6)
        rows, stamps, chunks = _corpus(11, count=160)
        expected = _run_unsharded(rows, stamps, chunks)
        with _pool("framed", 3, interval=25.0) as (pool, coordinator, handles):
            hung = {}

            def inject(chunk_no):
                if chunk_no == len(chunks) // 2:
                    hung["process"] = hang_worker(pool, 1)
                    assert hung["process"].is_alive()  # stopped, not dead

            got = _drive(pool, handles, chunks, stamps[-1] + 200.0, on_chunk=inject)
            assert got == expected
            assert not hung["process"].is_alive()  # killed at the deadline
            assert coordinator.last_replay["target"] == 1
            assert pool.worker_stats()["restarts"] == 1

    def test_hung_worker_without_coordinator_raises_naming_the_shard(
        self, monkeypatch
    ):
        import repro.stream.procshard as procshard

        monkeypatch.setattr(procshard, "ACK_DEADLINE_S", 0.4)
        with _pool("framed", 2, interval=None) as (pool, _, handles):
            rows, stamps = _rows(30, random.Random(3))
            pool.push_many("Readings", rows, stamps)
            hang_worker(pool, 1)
            with pytest.raises(ExecutionError, match="shard 1 failed"):
                pool.punctuate(stamps[-1])


# ----------------------------------------------------------------------
# Exchanged plans: kill a shard mid-shuffle
# ----------------------------------------------------------------------
EXCHANGED_QUERIES = [
    # Global aggregate: per-shard partials gathered to one merge shard.
    "select count(*) as n, sum(r.temp) as total from Readings r "
    "[range 20 seconds slide 20 seconds]",
    # Non-covering GROUP BY (the key is host): partials shuffled by room.
    "select r.room, count(*) as n from Readings r "
    "[range 20 seconds slide 20 seconds] group by r.room",
    # DISTINCT without the key: row-hash shuffle.
    "select distinct r.room from Readings r where r.temp > 20.0",
    # Every partial payload kind over a sliding window (a kill lands
    # mid-window: the compiled stage-1 buffer is snapshot state), and
    # running deltas whose DISTINCT seen-sets persist across segments.
    "select r.room, sum(r.temp) as total, avg(r.load) as mean, min(r.temp) as lo, "
    "count(distinct r.host) as hosts from Readings r "
    "[range 20 seconds slide 10 seconds] group by r.room",
    "select r.room, sum(r.temp) as total, count(distinct r.host) as hosts "
    "from Readings r group by r.room",
]


def _run_unsharded_exchanged(rows, stamps, chunks):
    catalog = _catalog()
    engine = StreamEngine(catalog)
    builder = PlanBuilder(catalog)
    handles = [
        engine.execute(builder.build_sql(sql)) for sql in EXCHANGED_QUERIES
    ]
    return _drive(engine, handles, chunks, stamps[-1] + 200.0)


def _check_kill_shard_mid_shuffle(transport, seed):
    """Kill a shard while unsafe plans run via exchange: the dead
    source's pending shuffle deposits are dropped and re-derived by the
    restored stage-1 replicas, stage-2 merge replicas restore from
    their snapshots (replaying the logged xdeliver/xpunct records), and
    the merged emissions stay identical to the unsharded run."""
    rng = random.Random(900 + seed)
    rows, stamps = _rows(rng.randint(150, 300), rng)
    chunks = _chunks(rows, stamps, random.Random(seed * 31 + 7))
    expected = _run_unsharded_exchanged(rows, stamps, chunks)
    shards = 4
    with _pool(transport, shards, 25.0, EXCHANGED_QUERIES) as (
        pool, coordinator, handles,
    ):
        assert all(handle.exchanged for handle in handles)
        kill_at = seeded_point(seed, len(chunks))
        victim = seeded_point(seed, shards, salt=1)

        def inject(chunk_no):
            if chunk_no == kill_at:
                kill_shard(pool, victim)

        got = _drive(pool, handles, chunks, stamps[-1] + 200.0, on_chunk=inject)
        assert got == expected, (
            f"seed={seed} {transport}: exchanged emissions diverged across recovery"
        )
        replay = coordinator.last_replay
        assert replay is not None and replay["target"] == victim
        assert pool.worker_stats().get("restarts", 1) == 1
        if transport == "loopback":
            # The snapshot of a compiled stage 1 restored into a
            # compiled one (the replacement binds its schema again).
            from repro.stream.operators import PartialAggregateOp

            restored = [
                op
                for replicas in pool._channels[victim].stage1.values()
                for replica in replicas
                for op in replica.compiled.operators
                if isinstance(op, PartialAggregateOp)
            ]
            assert len(restored) == 4
            assert all(op._generated for op in restored)


def _check_kill_merge_shard(transport):
    """Shard 0 hosts the global aggregate's single stage-2 replica;
    killing it exercises merge-accumulator restore plus the
    coordinator's forwarded-count skip on re-delivery."""
    rng = random.Random(77)
    rows, stamps = _rows(200, rng)
    chunks = _chunks(rows, stamps, random.Random(77 * 31 + 7))
    expected = _run_unsharded_exchanged(rows, stamps, chunks)
    with _pool(transport, 3, 25.0, EXCHANGED_QUERIES) as (pool, coordinator, handles):

        def inject(chunk_no):
            if chunk_no == len(chunks) // 2:
                kill_shard(pool, 0)

        got = _drive(pool, handles, chunks, stamps[-1] + 200.0, on_chunk=inject)
        assert got == expected
        assert coordinator.last_replay["target"] == 0


@pytest.mark.usefixtures("no_fallbacks")
class TestExchangedShardFailover:
    @pytest.mark.parametrize("seed", range(min(SEEDS, 4)))
    def test_kill_shard_mid_shuffle(self, seed):
        _check_kill_shard_mid_shuffle("loopback", seed)

    def test_kill_merge_shard(self):
        _check_kill_merge_shard("loopback")


@needs_processes
class TestExchangedWorkerFailover:
    """SIGKILL a worker process while exchanged plans are running: the
    same body over the framed channel."""

    @pytest.mark.parametrize("seed", range(min(SEEDS, 2)))
    def test_kill_worker_mid_shuffle(self, seed):
        _check_kill_shard_mid_shuffle("framed", seed)

    def test_kill_merge_worker(self):
        _check_kill_merge_shard("framed")


# ----------------------------------------------------------------------
# Dropped tables and failover
# ----------------------------------------------------------------------
MACHINES = Schema.of(("name", DataType.STRING), ("room", DataType.STRING))
MACHINE_ROWS = [{"name": f"ws{i}", "room": f"lab{i % 3}"} for i in range(4)]
WINDOWED = (
    "select r.host, count(*) as n from Readings r "
    "[range 20 seconds slide 20 seconds] group by r.host"
)


class TestDroppedTableFailover:
    """``drop_table`` reaches the replay log: a table loaded since the
    last barrier and detached before a shard died is neither replayed
    (its source has left the catalog) nor resurrected from the barrier."""

    @pytest.mark.parametrize("workers", ["inline", pytest.param("process", marks=needs_processes)])
    def test_detach_then_kill_then_punctuate(self, workers):
        def run(kill):
            with connect(shards=2, workers=workers, checkpoint_interval=1000) as session:
                session.attach(StreamSource("Readings", READINGS, partition_by="host"))
                session.attach(TableSource("Machines", MACHINES, MACHINE_ROWS))
                cursor = session.query(WINDOWED)
                rows, stamps = _rows(80, random.Random(9))
                session.push_many("Readings", rows, stamps)
                session.detach("Machines")
                if kill:
                    kill_shard(session.engine, 0)
                session.punctuate(stamps[-1] + 40.0)
                if kill:
                    assert session.checkpointer.last_replay["target"] == 0
                return sorted(repr(r.values) for r in cursor.results())

        assert run(kill=True) == run(kill=False) != []

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_barrier_tables_are_not_resurrected(self, transport):
        """Loaded before the barrier, dropped after it: the restored
        shard must not be seeded with the barrier's copy; a table
        dropped and re-loaded keeps only the re-load."""
        catalog = _catalog()
        catalog.register_table("Machines", MACHINES, cardinality=4)
        catalog.register_table("Spares", MACHINES, cardinality=4)
        pool = POOLS[transport](catalog, shards=2)
        try:
            coordinator = CheckpointCoordinator(pool, interval=None)
            pool.set_partition_key("Readings", "host")
            handle = pool.execute(PlanBuilder(catalog).build_sql(WINDOWED), sql=WINDOWED)
            pool.load_table("Machines", MACHINE_ROWS)
            pool.load_table("Spares", MACHINE_ROWS)
            coordinator.checkpoint()
            pool.drop_table("Machines")
            pool.drop_table("Spares")
            pool.load_table("Spares", MACHINE_ROWS[:1])
            tables, suffix = coordinator.replay_plan(coordinator.latest())
            assert list(tables) == []
            assert [entry[:3] for entry in suffix] == [("table", None, "Spares")]
            kill_shard(pool, 1)
            pool.punctuate(10.0)
            assert coordinator.last_replay["target"] == 1
            if transport == "loopback":
                assert pool.engines[1].table_rows("Machines") == []
                assert len(pool.engines[1].table_rows("Spares")) == 1
            assert handle.results == []
        finally:
            if transport == "framed":
                pool.shutdown()

    def test_single_engine_recover_honours_drops(self):
        """The plain-engine ``recover()`` path: replaying the load of a
        since-detached table used to raise ``CatalogError: unknown
        source``."""
        catalog = _catalog()
        catalog.register_table("Machines", MACHINES, cardinality=4)
        engine = StreamEngine(catalog)
        coordinator = CheckpointCoordinator(engine, interval=None)
        handle = engine.execute(PlanBuilder(catalog).build_sql(WINDOWED))
        coordinator.checkpoint()
        engine.load_table("Machines", MACHINE_ROWS)
        rows, stamps = _rows(40, random.Random(4))
        engine.push_many("Readings", rows, stamps)
        engine.drop_table("Machines")
        catalog.unregister_source("Machines")
        engine.fail()
        (restored,) = coordinator.recover()
        engine.punctuate(stamps[-1] + 40.0)
        assert engine._tables == {}
        assert sum(r["n"] for r in restored.results) == len(rows)


class TestRejectedBatchFailover:
    """Regression: the pool logged and ingested shard by shard while
    each shard coerced its own slice, so a malformed row left a record
    that every later failover re-raised from replay — with the
    lower-numbered shards' sub-batches already ingested."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_rejected_batch_is_neither_logged_nor_partially_applied(self, transport):
        def run(reject):
            catalog = _catalog()
            pool = POOLS[transport](catalog, shards=2)
            try:
                coordinator = CheckpointCoordinator(pool, interval=None)
                pool.set_partition_key("Readings", "host")
                builder = PlanBuilder(catalog)
                handles = [
                    pool.execute(builder.build_sql(sql), sql=sql)
                    for sql in (WINDOWED, QUERIES[3])  # partitioned + fallback
                ]
                rows, stamps = _rows(60, random.Random(5))
                pool.push_many("Readings", rows[:20], stamps[:20])
                pool.punctuate(stamps[19])
                coordinator.checkpoint()
                if reject:
                    # Good rows for both shards ahead of the bad one.
                    batch = [*rows[20:30], {"host": "ws3", "room": "lab1"}]
                    before = (
                        coordinator.log.next_seq,
                        [view.elements_ingested for view in pool.engines],
                        pool.fallback_engine.elements_ingested,
                    )
                    with pytest.raises(SchemaError, match="missing field"):
                        pool.push_many("Readings", batch, stamps[20:31])
                    assert before == (
                        coordinator.log.next_seq,
                        [view.elements_ingested for view in pool.engines],
                        pool.fallback_engine.elements_ingested,
                    )
                pool.push_many("Readings", rows[20:40], stamps[20:40])
                kill_shard(pool, 0)
                pool.push_many("Readings", rows[40:], stamps[40:])
                pool.punctuate(stamps[-1] + 40.0)
                assert coordinator.last_replay["target"] == 0
                return [sorted(repr(r.values) for r in h.results) for h in handles]
            finally:
                if transport == "framed":
                    pool.shutdown()

        assert run(reject=True) == run(reject=False) != [[], []]


# ----------------------------------------------------------------------
# Federated: mote death and self-healing redeployment
# ----------------------------------------------------------------------
TEMPS = Schema.of(("room", DataType.STRING), ("temp", DataType.FLOAT))


def _diamond_world(seed: int):
    """base — {relay1, relay2} — member: the member mote samples, both
    relays only route. Loss-free links (reliable_fraction=1.0) keep the
    runs deterministic; the member's BFS parent is relay1 (lower id)."""
    simulator = Simulator(seed)
    network = SensorNetwork(simulator, radio=RadioModel(reliable_fraction=1.0))
    network.add_basestation(Position(0.0, 0.0), radio_range=12.0)
    network.add_mote(Mote(1, Position(0.0, 10.0), MoteRole.ROOM, radio_range=12.0))
    network.add_mote(Mote(2, Position(6.0, 10.0), MoteRole.ROOM, radio_range=12.0))
    member = Mote(3, Position(3.0, 20.0), MoteRole.ROOM, radio_range=12.0)
    member.attach_sensor("temp", lambda sim=simulator: 20.0 + (sim.now * 1.3) % 7.0)
    network.add_mote(member)
    network.rebuild_topology()
    session = connect(network=network, simulator=simulator)
    relation = SensorRelation(
        "RoomTemps",
        TEMPS,
        [3],
        lambda mote: {"room": "lab", "temp": round(mote.sample("temp"), 2)},
        period=5.0,
    )
    session.attach(SensorSource(relation))
    return session, simulator, network


def _drive_federated(session, simulator, cursor, steps, kill_step=None, network=None):
    segments, mark = [], 0
    for step in range(steps):
        if kill_step is not None and step == kill_step:
            kill_mote(network, 1)
        simulator.run_for(5.0)
        simulator.run_for(1.0)  # drain in-flight radio deliveries
        session.punctuate(simulator.now)
        elements = cursor._handle.sink.elements
        segments.append(
            sorted((round(e.timestamp, 3), repr(e.row.values)) for e in elements[mark:])
        )
        mark = len(elements)
    return segments


class TestMoteDeathRepair:
    SQL = "select rt.room, rt.temp from RoomTemps rt"

    @pytest.mark.parametrize("seed", range(min(SEEDS, 4)))
    def test_kill_relay_identity_after_recovery(self, seed):
        steps = 8
        session, simulator, network = _diamond_world(seed)
        cursor = session.query(self.SQL)
        baseline = _drive_federated(session, simulator, cursor, steps)
        session.close()

        kill_step = 2 + seeded_point(seed, 3, salt=3)  # in [2, 4]
        session2, simulator2, network2 = _diamond_world(seed)
        cursor2 = session2.query(self.SQL)
        got = _drive_federated(
            session2, simulator2, cursor2, steps, kill_step=kill_step, network=network2
        )
        backend = session2.backend("federated")
        assert [r["mode"] for r in backend.repairs] == ["redeploy"]
        assert backend.repairs[0]["mote"] == 1
        # The member now routes through the surviving relay.
        assert network2.parent_of(3) == 2
        # Detection happens at the next epoch, so the kill step may lose
        # one delivery (best-effort collection); everything after the
        # recovery horizon must match the failure-free run exactly.
        horizon = kill_step + 2
        assert got[horizon:] == baseline[horizon:], f"seed={seed}"
        session2.close()

    def test_dead_sampler_is_reported_and_repair_runs(self):
        session, simulator, network = _diamond_world(1)
        cursor = session.query(self.SQL)
        simulator.run_for(6.0)
        kill_mote(network, 3)  # the sampling mote itself
        simulator.run_for(12.0)
        backend = session.backend("federated")
        assert any(r["mote"] == 3 for r in backend.repairs)
        assert not cursor.closed  # the cursor survives, just starved
        session.close()

    def test_absorb_when_no_partition_survives(self):
        """Killing both relays disconnects the member: partitioning
        fails and the residual absorbs the whole plan on the stream
        delegate instead of crashing the simulation."""
        session, simulator, network = _diamond_world(1)
        cursor = session.query(self.SQL)
        simulator.run_for(6.0)
        kill_mote(network, 1)
        kill_mote(network, 2)
        simulator.run_for(12.0)
        backend = session.backend("federated")
        assert "absorb" in [r["mode"] for r in backend.repairs]
        assert not cursor.closed
        assert not cursor._deployments  # nothing left in-network
        simulator.run_for(10.0)  # keeps running quietly
        session.close()

    def test_death_reported_once(self):
        session, simulator, network = _diamond_world(1)
        deaths = []
        session.sensor_engine.on_mote_death.append(deaths.append)
        session.query(self.SQL)
        kill_mote(network, 1)
        simulator.run_for(30.0)  # many epochs observe the corpse
        assert deaths == [1]
        session.close()


class TestDeploymentRetry:
    SQL = "select rt.room, rt.temp from RoomTemps rt"

    def test_transient_ack_drops_are_retried_away(self):
        session, simulator, _ = _diamond_world(1)
        backend = session.backend("federated")
        with DropDeploymentAcks(session.sensor_engine, drops=2) as fault:
            cursor = session.query(self.SQL)
        assert fault.dropped == 2
        assert backend.deploy_retries == 2
        assert cursor.kind == "federated" and len(cursor.fragments) == 1
        simulator.run_for(6.0)
        session.punctuate(simulator.now)
        assert len(cursor.results()) == 1  # deliveries flow after retry
        session.close()

    def test_deterministic_failure_still_rolls_back(self):
        session, _, _ = _diamond_world(1)
        deployed_before = list(session.sensor_engine.deployed)
        running_before = len(session.engine.running_queries)
        with DropDeploymentAcks(session.sensor_engine, drops=100):
            with pytest.raises(QueryError, match="deployment ack dropped"):
                session.query(self.SQL)
        # Nothing leaked: only the attach-time collection remains and
        # the residual stream query was stopped.
        assert session.sensor_engine.deployed == deployed_before
        assert len(session.engine.running_queries) == running_before
        session.close()


class TestUndeployIdempotence:
    """Satellite: SensorEngine.undeploy / DeployedQuery.stop must be
    fully idempotent under any interleaving — Cursor.close() racing
    Session.close() reaches both entry points repeatedly."""

    def _deployed(self):
        session, simulator, network = _diamond_world(1)
        engine = session.sensor_engine
        deployed = engine.deploy_collection("RoomTemps")
        return session, engine, deployed

    def test_stop_then_undeploy_then_stop(self):
        session, engine, deployed = self._deployed()
        assert deployed in engine.deployed
        deployed.stop()
        assert deployed.stopped and deployed not in engine.deployed
        engine.undeploy(deployed)  # second entry: no-op
        deployed.stop()  # third entry: no-op
        assert deployed not in engine.deployed
        session.close()

    def test_undeploy_before_stop_cancels_tasks(self):
        session, engine, deployed = self._deployed()
        engine.undeploy(deployed)  # registry entry point first
        assert deployed.stopped  # routed through stop(): tasks cancelled
        assert all(task._stopped for task in deployed.tasks)
        assert deployed not in engine.deployed
        engine.undeploy(deployed)
        assert deployed not in engine.deployed
        session.close()

    def test_cursor_close_racing_session_close(self):
        session, simulator, _ = _diamond_world(1)
        cursor = session.query("select rt.room, rt.temp from RoomTemps rt")
        fragments = cursor.fragments
        assert fragments
        cursor.close()  # "thread A"
        session.close()  # "thread B" re-enters every stop path
        cursor.close()  # late duplicate close
        for deployment in fragments:
            assert deployment.stopped
            assert deployment not in session.sensor_engine.deployed
            assert all(task._stopped for task in deployment.tasks)


@pytest.mark.usefixtures("no_fallbacks")
class TestSharedChainFailover:
    """Kill an engine hosting *shared* operator chains: recovery must
    re-admit every replica pinned to its recorded sharing decision,
    restore each chain's state exactly once, and keep every cursor's
    post-recovery emissions identical to the failure-free run."""

    # Duplicated texts so shards host multi-branch chains: a stateless
    # fused chain, a keyed windowed aggregation (stateful chain state
    # crosses the barrier), and a fallback-only ORDER BY.
    SHARED_QUERIES = [
        QUERIES[0], QUERIES[0],
        QUERIES[1], QUERIES[1],
        QUERIES[3], QUERIES[3],
    ]

    def _unshared(self, stamps, chunks):
        catalog = _catalog()
        engine = StreamEngine(catalog)
        builder = PlanBuilder(catalog)
        handles = [engine.execute(builder.build_sql(sql)) for sql in self.SHARED_QUERIES]
        return _drive(engine, handles, chunks, stamps[-1] + 200.0)

    def _pool(self, shards, interval):
        catalog = _catalog()
        pool = ShardedStreamEngine(catalog, shards=shards, share_plans=True)
        pool.set_partition_key("Readings", "host")
        coordinator = CheckpointCoordinator(pool, interval=interval)
        builder = PlanBuilder(catalog)
        handles = [pool.execute(builder.build_sql(sql)) for sql in self.SHARED_QUERIES]
        return pool, coordinator, handles

    @pytest.mark.parametrize("seed", range(SEEDS))
    def test_kill_shard_hosting_shared_prefix(self, seed):
        rng = random.Random(900 + seed)
        rows, stamps = _rows(rng.randint(150, 300), rng)
        chunks = _chunks(rows, stamps, random.Random(seed * 31 + 7))
        expected = self._unshared(stamps, chunks)

        pool, coordinator, handles = self._pool(4, interval=25.0)
        before = pool.sharing_stats()
        assert before["attached"] > 0, "duplicates were not multiplexed"
        kill_at = seeded_point(seed, len(chunks))
        victim = seeded_point(seed, 4, salt=1)

        def inject(chunk_no):
            if chunk_no == kill_at:
                kill_shard(pool, victim)

        got = _drive(pool, handles, chunks, stamps[-1] + 200.0, on_chunk=inject)
        assert got == expected, (
            f"seed={seed}: shared-chain emissions diverged across recovery"
        )
        # The duplicated cursors stayed mutually identical, and the
        # restored shard regrew its sharing structure (the re-admission
        # is pinned, so attach counts only grow across a recovery).
        assert got[0] == got[1] and got[2] == got[3] and got[4] == got[5]
        after = pool.sharing_stats()
        assert after["chains"] == before["chains"]
        assert after["fan_out"] == before["fan_out"]
        replay = coordinator.last_replay
        assert replay is not None and replay["target"] == victim

    @pytest.mark.parametrize("seed", range(min(SEEDS, 3)))
    def test_kill_shard_after_a_split_lost_its_second_consumer(self, seed):
        """A second projection over ``QUERIES[0]``'s filter arrives warm
        (every shard splits the prefix off the fused chain), leaves
        again (no merge-back: the cut stays), barriers pass, a shard
        dies. The replica regrows from the surviving queries alone —
        fused, where the barrier saw the chain split — which only
        restores because stateless chains are not in the checkpoint."""
        rng = random.Random(1100 + seed)
        rows, stamps = _rows(300, rng)
        chunks = _chunks(rows, stamps, random.Random(seed * 31 + 7))
        assert len(chunks) >= 5
        expected = self._unshared(stamps, chunks)

        pool, coordinator, handles = self._pool(2, interval=0.0)
        victim = seeded_point(seed, 2, salt=1)
        second_sql = "select r.host, r.temp from Readings r where r.temp > 10.0"
        second = []

        def fused_chains(engine):
            return sum(
                type(op).__name__ == "FusedOp"
                for chain in engine.subplans.live_chains
                for op in chain.compiled.operators
            )

        def inject(chunk_no):
            if chunk_no == 1:
                before = pool.sharing_stats()["chains"]
                second.append(pool.execute(PlanBuilder(_catalog()).build_sql(second_sql)))
                # Per shard: the filter chain and the newcomer's projection.
                assert pool.sharing_stats()["chains"] == before + 2 * 2
            elif chunk_no == 2:
                pool.stop(second[0])
            elif chunk_no == 4:
                assert [fused_chains(engine) for engine in pool.engines[:2]] == [0, 0]
                kill_shard(pool, victim)

        got = _drive(pool, handles, chunks, stamps[-1] + 200.0, on_chunk=inject)
        assert got == expected, f"seed={seed}: emissions diverged across recovery"
        assert coordinator.last_replay["target"] == victim
        # The survivor keeps its cut; the restored replica runs the
        # twin tenants' chain fused again.
        counts = [fused_chains(engine) for engine in pool.engines[:2]]
        assert counts[victim] == 1 and counts[1 - victim] == 0

    @pytest.mark.parametrize("seed", range(min(SEEDS, 3)))
    def test_kill_fallback_with_shared_chains(self, seed):
        rng = random.Random(1300 + seed)
        rows, stamps = _rows(200, rng)
        chunks = _chunks(rows, stamps, random.Random(seed * 31 + 7))
        expected = self._unshared(stamps, chunks)

        pool, coordinator, handles = self._pool(3, interval=25.0)
        kill_at = seeded_point(seed, len(chunks), salt=2)

        def inject(chunk_no):
            if chunk_no == kill_at:
                kill_fallback(pool)

        got = _drive(pool, handles, chunks, stamps[-1] + 200.0, on_chunk=inject)
        assert got == expected
        assert got[4] == got[5]  # fallback-hosted shared chain survived
        assert coordinator.last_replay is not None
        assert coordinator.last_replay["target"] == "fb"


# ----------------------------------------------------------------------
# A query admitted since the barrier
# ----------------------------------------------------------------------
SINCE_BARRIER = {
    "filter": "select r.host, r.temp from Readings r where r.temp > 1.0",
    "grouped": "select r.host, count(*) as n from Readings r [range 5 seconds] group by r.host",
    # Global: stage 1 on every shard, gathered to one stage-2 replica.
    "exchanged": "select count(*) as n from Readings r [range 5 seconds slide 5 seconds]",
    # Fallback-only on a pool.
    "ordered": "select r.room, r.temp from Readings r order by r.temp limit 40",
}
#: Reads the source on the pool's fallback from the start, so the rows
#: pushed before the late query's admission reach the fallback's log.
EARLIER_FALLBACK = "select r.room, r.load from Readings r order by r.load"
SINCE_BARRIER_ARMS = [
    "engine", "loopback", "fallback", pytest.param("framed", marks=needs_processes),
]


def _run_admitted_since_barrier(arm, sql, kill):
    """Barrier, rows, then the query's admission, more rows, and — with
    ``kill`` — the death of the host holding the query's rows from
    between the barrier and its admission: the engine, the shard owning
    those rows, or the fallback for a query running there. Returns the
    query's results per punctuation segment, sorted, and the victim."""
    rng = random.Random(5)
    rows, stamps = _rows(60, rng)
    catalog = _catalog()
    if arm == "engine":
        engine = StreamEngine(catalog)
    else:
        engine = POOLS["framed" if arm == "framed" else "loopback"](catalog, shards=3)
        engine.set_partition_key("Readings", "host")
    try:
        coordinator = CheckpointCoordinator(engine, interval=None)
        builder = PlanBuilder(catalog)
        extra = {} if arm == "engine" else {"sql": sql}
        if arm == "fallback":
            earlier = engine.execute(builder.build_sql(EARLIER_FALLBACK), sql=EARLIER_FALLBACK)
            assert not earlier.partitioned
        engine.push_many("Readings", rows[:15], stamps[:15])
        engine.punctuate(stamps[14])
        coordinator.checkpoint(stamps[14])
        engine.push_many("Readings", rows[15:30], stamps[15:30])
        handle = engine.execute(builder.build_sql(sql), **extra)
        segments = []

        def segment(lo, hi, watermark):
            seen = len(handle.sink.elements)
            if lo < hi:
                engine.push_many("Readings", rows[lo:hi], stamps[lo:hi])
            engine.punctuate(watermark)
            segments.append(sorted(
                (e.timestamp, repr(e.row.values)) for e in handle.sink.elements[seen:]
            ))

        segment(30, 45, stamps[44])
        victim = None
        if kill and arm == "engine":
            engine.fail()
            assert handle in coordinator.recover()
        elif kill:
            victim = "fb"
            if handle.partitioned:
                victim = stable_hash(rows[15].values[1]) % engine.shard_count
                kill_shard(engine, victim)
            else:
                kill_fallback(engine)
        segment(45, 60, stamps[59])
        segment(60, 60, stamps[59] + 100.0)
        if victim is not None:
            assert coordinator.last_replay["target"] == victim
        return segments
    finally:
        if arm == "framed":
            engine.shutdown()


@pytest.mark.usefixtures("no_fallbacks")
class TestAdmittedSinceBarrierFailover:
    """A query admitted after the latest barrier, with rows ingested
    between the barrier and its admission, then its host dies. The
    recovery replays the log suffix from the barrier; the query starts
    again where the replay reaches its admission, so it neither sees
    the rows from before it nor delivers a result twice — on a plain
    engine and on every pool host alike."""

    @pytest.mark.parametrize("shape", list(SINCE_BARRIER))
    @pytest.mark.parametrize("arm", SINCE_BARRIER_ARMS)
    def test_results_equal_the_failure_free_run(self, arm, shape):
        sql = SINCE_BARRIER[shape]
        expected = _run_admitted_since_barrier(arm, sql, kill=False)
        assert any(expected), "the query must emit, or the comparison is vacuous"
        assert _run_admitted_since_barrier(arm, sql, kill=True) == expected
