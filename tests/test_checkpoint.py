"""Checkpoint/restore: the recovery spine of standing queries.

Covers the :mod:`repro.stream.checkpoint` primitives (replay log,
stores, coordinator barriers) and the engine-level contract: a failed
:class:`StreamEngine` restored from the latest punctuation-aligned
barrier plus the log suffix emits *exactly* what the failure-free run
would have — no duplicated and no dropped window emissions — and the
replay touches only the suffix since the barrier, never the full
history.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from conftest import unfused
from repro.api import connect
from repro.api.sources import StreamSource
from repro.catalog import Catalog
from repro.data import DataType, Row, Schema
from repro.errors import ExecutionError, SchemaError
from repro.plan import PlanBuilder
from repro.plan.logical import RemoteSource
from repro.runtime.faults import kill_fallback, kill_shard
from repro.stream.checkpoint import (
    CheckpointCoordinator,
    FileCheckpointStore,
    MemoryCheckpointStore,
    ReplayLog,
)
from repro.stream.engine import StreamEngine
from repro.stream.sharded import ShardedStreamEngine

READINGS = Schema.of(
    ("host", DataType.STRING),
    ("temp", DataType.FLOAT),
    ("load", DataType.FLOAT),
)

QUERIES = [
    # Windowed aggregation (buffer + groups cross the barrier).
    "select r.host, count(*) as n, avg(r.temp) as mean from Readings r "
    "[range 10 seconds slide 10 seconds] group by r.host",
    # DISTINCT (seen-set state).
    "select distinct r.host from Readings r where r.temp > 10.0",
    # Stateless chain (only counters).
    "select r.host, r.temp * 2.0 as t2 from Readings r where r.load > 0.2",
]


def _catalog() -> Catalog:
    catalog = Catalog()
    catalog.register_stream("Readings", READINGS, rate=10.0)
    return catalog


def _rows(count: int):
    rows, stamps = [], []
    for i in range(count):
        rows.append(
            Row(
                READINGS,
                (f"ws{i % 4}", float(i % 13), round((i % 10) / 10.0, 1)),
                validate=False,
            )
        )
        stamps.append(float(i))
    return rows, stamps


def _segments(handle, marks, index, out):
    elements = handle.sink.elements
    fresh = elements[marks[index]:]
    marks[index] = len(elements)
    out[index].append(sorted((e.timestamp, repr(e.row.values)) for e in fresh))


def _drive(engine, handles, rows, stamps, fail_at=None, coordinator=None):
    """Push in chunks of 10 with punctuation between; optionally fail and
    recover the engine right before chunk ``fail_at``."""
    segments = [[] for _ in handles]
    marks = [0 for _ in handles]
    chunk = 0
    for offset in range(0, len(rows), 10):
        if fail_at is not None and chunk == fail_at:
            engine.fail()
            handles[:] = coordinator.recover()
        engine.push_many(
            "Readings", rows[offset : offset + 10], stamps[offset : offset + 10]
        )
        engine.punctuate(stamps[min(offset + 9, len(stamps) - 1)])
        chunk += 1
        for index in range(len(handles)):
            _segments(handles[index], marks, index, segments)
    engine.punctuate(stamps[-1] + 100.0)
    for index in range(len(handles)):
        _segments(handles[index], marks, index, segments)
    return segments


def _build(interval):
    catalog = _catalog()
    engine = StreamEngine(catalog)
    coordinator = CheckpointCoordinator(engine, interval=interval)
    builder = PlanBuilder(catalog)
    handles = [engine.execute(builder.build_sql(sql)) for sql in QUERIES]
    return engine, coordinator, handles


class TestReplayLog:
    def test_append_prune_suffix(self):
        log = ReplayLog()
        for i in range(10):
            log.append(("push", None, "s", i, float(i)))
        assert log.next_seq == 10 and log.base_seq == 0
        log.prune_through(4)
        assert log.base_seq == 4 and len(log) == 6
        suffix = log.suffix(7)
        assert [entry[3] for entry in suffix] == [7, 8, 9]
        assert log.suffix(10) == []

    def test_truncated_suffix_raises(self):
        log = ReplayLog()
        for i in range(5):
            log.append(("push", None, "s", i, float(i)))
        log.prune_through(3)
        with pytest.raises(ExecutionError, match="replay log truncated"):
            log.suffix(1)

    def test_hard_limit_evicts_oldest(self):
        log = ReplayLog(limit=3)
        for i in range(5):
            log.append(("push", None, "s", i, float(i)))
        assert len(log) == 3 and log.base_seq == 2 and log.next_seq == 5
        assert [entry[3] for entry in log.suffix(2)] == [2, 3, 4]


class TestStores:
    def test_memory_store_keeps_last_n(self):
        store = MemoryCheckpointStore(keep=2)
        for i in range(5):
            store.save(i)
        assert store.checkpoints == [3, 4] and store.latest() == 4

    def test_file_store_roundtrip_and_restart(self, tmp_path):
        engine, coordinator, _ = _build(interval=None)
        coordinator.store = FileCheckpointStore(tmp_path, keep=2)
        rows, stamps = _rows(30)
        engine.push_many("Readings", rows, stamps)
        engine.punctuate(stamps[-1])
        for _ in range(3):
            coordinator.checkpoint(stamps[-1])
        files = sorted(tmp_path.glob("checkpoint-*.pkl"))
        assert len(files) == 2  # pruned to keep
        # A fresh store over the same directory serves the survivor.
        reopened = FileCheckpointStore(tmp_path, keep=2)
        latest = reopened.latest()
        assert latest.checkpoint_id == 3
        assert len(latest.queries) == len(QUERIES)

    def test_row_buffer_layout_file_is_refused_by_name(self, tmp_path):
        """A checkpoint file written while windowed aggregates buffered
        rows (``buffer`` / ``next_boundary``) fails recovery with an
        ``ExecutionError`` naming that layout, not a ``KeyError``."""
        import pickle

        engine, coordinator, _ = _build(interval=None)
        coordinator.store = FileCheckpointStore(tmp_path)
        rows, stamps = _rows(15)
        engine.push_many("Readings", rows, stamps)
        engine.punctuate(stamps[-1])
        coordinator.checkpoint(stamps[-1])
        (path,) = tmp_path.glob("checkpoint-*.pkl")
        checkpoint = pickle.loads(path.read_bytes())
        states = [s for q in checkpoint.queries for s in q.operators]
        states += [s for chain in checkpoint.chains.values() for s in chain]
        aggregates = [s for s in states if s["type"] == "AggregateOp"]
        assert aggregates
        for state in aggregates:
            state.update(buffer=state.pop("pending"), next_boundary=state.pop("closed"))
            del state["windows"]
        path.write_bytes(pickle.dumps(checkpoint))
        coordinator.store = FileCheckpointStore(tmp_path)
        engine.fail()
        with pytest.raises(ExecutionError, match="row-buffer window layout"):
            coordinator.recover()

    def test_row_buffer_stage1_file_is_refused_by_name(self, tmp_path):
        """A pool checkpoint file written while the stage-1 partial
        aggregate buffered rows (``buffer`` + ``closed``, no
        ``next_boundary``) fails shard failover with an
        ``ExecutionError`` naming that layout, not a ``KeyError``."""
        import dataclasses
        import pickle

        def partial_states(node):
            if dataclasses.is_dataclass(node):
                node = vars(node)
            if isinstance(node, dict):
                if node.get("type") == "PartialAggregateOp":
                    yield node
                    return
                node = list(node.values())
            if isinstance(node, (list, tuple)):
                for child in node:
                    yield from partial_states(child)

        catalog = _catalog()
        pool = ShardedStreamEngine(catalog, shards=2)
        pool.set_partition_key("Readings", "host")
        coordinator = CheckpointCoordinator(
            pool, store=FileCheckpointStore(tmp_path), interval=None
        )
        sql = (
            "select count(*) as n, avg(r.temp) as mean from Readings r "
            "[range 10 seconds slide 10 seconds]"
        )
        handle = pool.execute(PlanBuilder(catalog).build_sql(sql), sql=sql)
        assert handle.exchanged
        rows, stamps = _rows(15)
        pool.push_many("Readings", rows, stamps)
        pool.punctuate(stamps[-1])
        coordinator.checkpoint(stamps[-1])
        (path,) = tmp_path.glob("checkpoint-*.pkl")
        checkpoint = pickle.loads(path.read_bytes())
        stage1 = list(partial_states(checkpoint))
        assert stage1
        for state in stage1:
            buffered = state.pop("pending")
            del state["windows"], state["generated"]
            state.update(buffer=buffered, pgroups={}, touched=[])
        path.write_bytes(pickle.dumps(checkpoint))
        coordinator.store = FileCheckpointStore(tmp_path)
        kill_shard(pool, 0)
        with pytest.raises(ExecutionError, match="row-buffer window layout"):
            pool.punctuate(stamps[-1] + 100.0)

    def test_sink_length_fallback_file_is_refused_by_name(self, tmp_path):
        """A pool checkpoint file written while the fallback replica
        wrote straight into its sink (``sink_len`` / ``sink_punct_len``,
        ``merge_counts`` None) fails fallback failover with an
        ``ExecutionError`` naming that layout, not a ``TypeError``."""
        import pickle

        catalog = _catalog()
        pool = ShardedStreamEngine(catalog, shards=2)
        pool.set_partition_key("Readings", "host")
        coordinator = CheckpointCoordinator(
            pool, store=FileCheckpointStore(tmp_path), interval=None
        )
        sql = "select r.host, r.temp from Readings r order by r.temp"
        handle = pool.execute(PlanBuilder(catalog).build_sql(sql), sql=sql)
        assert not handle.partitioned
        rows, stamps = _rows(15)
        pool.push_many("Readings", rows, stamps)
        pool.punctuate(stamps[-1])
        coordinator.checkpoint(stamps[-1])
        (path,) = tmp_path.glob("checkpoint-*.pkl")
        checkpoint = pickle.loads(path.read_bytes())
        old = checkpoint.handles[handle.query_id]
        assert old.merge_counts == [len(handle.sink.elements)]
        old.merge_counts = None
        old.sink_len = len(handle.sink.elements)
        old.sink_punct_len = len(handle.sink.punctuations)
        path.write_bytes(pickle.dumps(checkpoint))
        coordinator.store = FileCheckpointStore(tmp_path)
        kill_fallback(pool)
        with pytest.raises(ExecutionError, match="sink-length fallback layout"):
            pool.punctuate(stamps[-1] + 100.0)


    def test_sink_content_layout_file_is_refused_by_name(self, tmp_path):
        """A single-engine checkpoint file that carries every query's
        sink contents (``sink``, no ``received`` count) fails recovery
        with an ``ExecutionError`` naming that layout, before the
        engine drops anything."""
        import pickle

        engine, coordinator, handles = _build(interval=None)
        coordinator.store = FileCheckpointStore(tmp_path)
        rows, stamps = _rows(15)
        engine.push_many("Readings", rows, stamps)
        engine.punctuate(stamps[-1])
        coordinator.checkpoint(stamps[-1])
        (path,) = tmp_path.glob("checkpoint-*.pkl")
        checkpoint = pickle.loads(path.read_bytes())
        for query in checkpoint.queries:
            state = vars(query)
            del state["query_id"], state["received"]
            state["sink"] = {"elements": [], "punctuations": [], "clears": 0}
        path.write_bytes(pickle.dumps(checkpoint))
        coordinator.store = FileCheckpointStore(tmp_path)
        with pytest.raises(ExecutionError, match="sink-content layout"):
            coordinator.recover()
        assert engine.running_queries == handles


class TestDamagedFiles:
    """A file store's newest checkpoint is whole or absent: a save
    writes a temporary name and renames it into place, and a file that
    does not unpickle fails recovery with an ``ExecutionError`` naming
    it."""

    WINDOWED_COUNT = (
        "select r.host, count(*) as n from Readings r "
        "[range 10 seconds slide 10 seconds] group by r.host"
    )

    def _open(self, directory):
        catalog = _catalog()
        engine = StreamEngine(catalog)
        coordinator = CheckpointCoordinator(engine, store=FileCheckpointStore(directory))
        handle = engine.execute(PlanBuilder(catalog).build_sql(self.WINDOWED_COUNT))
        return engine, coordinator, handle

    def test_a_truncated_newest_file_fails_recovery_by_name(self, tmp_path):
        engine, coordinator, _ = self._open(tmp_path)
        rows, stamps = _rows(5)
        engine.push_many("Readings", rows, stamps)
        engine.punctuate(5.0)
        coordinator.checkpoint(5.0)
        (path,) = tmp_path.glob("checkpoint-*.pkl")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        engine.fail()
        with pytest.raises(ExecutionError, match=re.escape(str(path))):
            coordinator.recover()

    def test_a_save_that_dies_mid_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        rows, stamps = _rows(30)

        def dying_write(path, data):
            with open(path, "wb") as handle:
                handle.write(data[: len(data) // 2])
            raise OSError("no space left on device")

        def run(directory, dies):
            engine, coordinator, handle = self._open(directory)
            engine.push_many("Readings", rows[:10], stamps[:10])
            engine.punctuate(stamps[9])
            first = coordinator.checkpoint(stamps[9])
            engine.push_many("Readings", rows[10:20], stamps[10:20])
            engine.punctuate(stamps[19])
            if dies:
                with monkeypatch.context() as patch:
                    patch.setattr(Path, "write_bytes", dying_write)
                    with pytest.raises(OSError, match="no space"):
                        coordinator.checkpoint(stamps[19])
                # Only the first file is left, under its own name.
                assert [p.name for p in directory.iterdir()] == [
                    f"checkpoint-{first.checkpoint_id:08d}.pkl"
                ]
                assert coordinator.latest().checkpoint_id == first.checkpoint_id
                engine.fail()
                (handle,) = coordinator.recover()
            engine.push_many("Readings", rows[20:], stamps[20:])
            engine.punctuate(100.0)
            return [(e.timestamp, e.row.values) for e in handle.sink.elements]

        expected = run(tmp_path / "clean", dies=False)
        assert expected and run(tmp_path / "dies", dies=True) == expected


class TestCoordinator:
    def test_interval_zero_checkpoints_every_punctuation(self):
        engine, coordinator, _ = _build(interval=0.0)
        rows, stamps = _rows(30)
        _drive(engine, list(range(0)), rows, stamps)  # no handles: just ingest
        assert coordinator.checkpoints_taken == 4  # 3 chunks + flush

    def test_interval_none_never_auto_checkpoints(self):
        engine, coordinator, _ = _build(interval=None)
        rows, stamps = _rows(30)
        engine.push_many("Readings", rows, stamps)
        engine.punctuate(stamps[-1])
        assert coordinator.checkpoints_taken == 0
        assert len(coordinator.log) > 0  # the log still accumulates

    def test_barrier_prunes_log(self):
        engine, coordinator, _ = _build(interval=None)
        rows, stamps = _rows(20)
        engine.push_many("Readings", rows, stamps)
        engine.punctuate(stamps[-1])
        seq_before = coordinator.log.next_seq
        checkpoint = coordinator.checkpoint(stamps[-1])
        assert checkpoint.log_seq == seq_before
        assert coordinator.log.base_seq == seq_before
        assert len(coordinator.log) == 0

    def test_recover_without_checkpoint_raises(self):
        engine, coordinator, _ = _build(interval=None)
        engine.fail()
        with pytest.raises(ExecutionError, match="no checkpoint to recover"):
            coordinator.recover()

    def test_pool_recover_is_per_shard(self):
        pool = ShardedStreamEngine(_catalog(), shards=2)
        coordinator = CheckpointCoordinator(pool, interval=10.0)
        with pytest.raises(ExecutionError, match="per-shard"):
            coordinator.recover()

    def test_negative_interval_rejected(self):
        with pytest.raises(ExecutionError, match="interval"):
            CheckpointCoordinator(StreamEngine(_catalog()), interval=-1.0)


@pytest.mark.usefixtures("no_fallbacks")
class TestEngineRestore:
    def test_failed_engine_rejects_work_until_restore(self):
        engine, coordinator, handles = _build(interval=10.0)
        rows, stamps = _rows(10)
        engine.push_many("Readings", rows, stamps)
        engine.punctuate(stamps[-1])
        engine.fail()
        assert engine.failed and not engine.running_queries
        assert engine.push("Readings", rows[0], 99.0) is None  # swallowed
        with pytest.raises(ExecutionError, match="restore"):
            engine.execute(handles[0].plan)
        coordinator.recover()
        assert not engine.failed and len(engine.running_queries) == len(QUERIES)

    @pytest.mark.parametrize("fail_at", [1, 2, 3])
    def test_restore_identity_mid_corpus(self, fail_at):
        """Post-recovery emissions — including the window that straddles
        the failure — match the failure-free run exactly."""
        rows, stamps = _rows(60)
        engine, _, handles = _build(interval=15.0)
        expected = _drive(engine, handles, rows, stamps)

        engine2, coordinator2, handles2 = _build(interval=15.0)
        got = _drive(
            engine2, handles2, rows, stamps, fail_at=fail_at, coordinator=coordinator2
        )
        assert got == expected

    def test_recovery_replays_only_the_suffix(self):
        rows, stamps = _rows(60)
        engine, coordinator, handles = _build(interval=15.0)
        engine.push_many("Readings", rows[:40], stamps[:40])
        engine.punctuate(stamps[39])
        barrier = coordinator.latest()
        assert barrier is not None
        # Post-barrier traffic, then failure.
        engine.push_many("Readings", rows[40:50], stamps[40:50])
        suffix_len = len(coordinator.log.suffix(barrier.log_seq))
        engine.fail()
        coordinator.recover()
        replay = coordinator.last_replay
        assert replay["target"] == "engine"
        assert replay["from_seq"] == barrier.log_seq  # suffix, not history
        assert replay["entries"] == suffix_len
        # The barrier pruned everything before it out of the log.
        assert coordinator.log.base_seq >= barrier.log_seq > 0

    def test_suffix_of_push_remote_table_and_drop_replays(self):
        """Every single-engine ingest verb in the log suffix: a per-row
        ``push``, a ``push_remote`` and a ``load_table`` followed by a
        ``drop_table``. ``recover`` plans the suffix (the dropped load
        never replays); emissions match the failure-free run and the
        table stays dropped."""
        machines = Schema.of(("host", DataType.STRING), ("room", DataType.STRING))
        remote = RemoteSource("upstream", Schema.of(("u.host", DataType.STRING)), 1.0)
        rows, stamps = _rows(30)

        def run(fail):
            catalog = _catalog()
            catalog.register_table("Machines", machines, cardinality=2)
            engine = StreamEngine(catalog)
            coordinator = CheckpointCoordinator(engine, interval=None)
            handles = [
                engine.execute(PlanBuilder(catalog).build_sql(QUERIES[0])),
                engine.execute(remote),
            ]
            engine.push_many("Readings", rows[:10], stamps[:10])
            engine.punctuate(stamps[9])
            barrier = coordinator.checkpoint(stamps[9])
            for row, stamp in zip(rows[10:20], stamps[10:20]):
                engine.push("Readings", row, stamp)
            engine.push_remote("upstream", {"host": "ws9"}, 12.0)
            engine.load_table("Machines", [{"host": "ws0", "room": "lab1"}])
            engine.drop_table("Machines")
            if fail:
                suffix = coordinator.log.suffix(barrier.log_seq)
                assert [entry[0] for entry in suffix] == ["push"] * 10 + [
                    "remote", "table", "drop",
                ]
                engine.fail()
                handles = coordinator.recover()
            engine.push_many("Readings", rows[20:], stamps[20:])
            engine.punctuate(stamps[-1] + 100.0)
            assert engine.table_rows("Machines") == []
            return [
                [(e.timestamp, e.row.values) for e in handle.sink.elements]
                for handle in handles
            ]

        expected = run(fail=False)
        assert all(expected)
        assert run(fail=True) == expected

    @pytest.mark.parametrize(
        "entry, message",
        [
            (("bogus", None, "Readings"), "unknown replay-log entry kind 'bogus'"),
            (("xdeliver", 0, []), "names shard 0 on a plain engine"),
            (("xpunct", 0, 1.0, ["x"]), "names shard 0 on a plain engine"),
        ],
        ids=["unknown-kind", "xdeliver", "xpunct"],
    )
    def test_recovery_rejects_a_corrupt_log_entry(self, entry, message):
        """A log entry of a kind no verb logs, or one keyed to a shard
        (a pool's exchange record) on a plain engine, is a corrupt log:
        the recovery refuses it rather than skip input."""
        engine, coordinator, _ = _build(interval=None)
        coordinator.checkpoint()
        coordinator.record(entry)
        engine.fail()
        with pytest.raises(ExecutionError, match=message):
            coordinator.recover()

    def test_restore_rejects_mismatched_operator_state(self):
        engine, coordinator, handles = _build(interval=None)
        rows, stamps = _rows(10)
        engine.push_many("Readings", rows, stamps)
        engine.punctuate(stamps[-1])
        checkpoint = coordinator.checkpoint(stamps[-1])
        # Swap two queries' operator states: recompiling query 0's plan
        # must refuse query 1's snapshot.
        checkpoint.queries[0].operators, checkpoint.queries[1].operators = (
            checkpoint.queries[1].operators,
            checkpoint.queries[0].operators,
        )
        engine.fail()
        with pytest.raises(ExecutionError):
            coordinator.recover()

    def test_restore_preserves_sink_contents(self):
        engine, coordinator, handles = _build(interval=None)
        rows, stamps = _rows(30)
        engine.push_many("Readings", rows, stamps)
        engine.punctuate(stamps[-1])
        before = [list(h.sink.elements) for h in handles]
        coordinator.checkpoint(stamps[-1])
        engine.fail()
        restored = coordinator.recover()
        after = [list(h.sink.elements) for h in restored]
        assert after == before


@pytest.mark.usefixtures("no_fallbacks")
class TestStatelessCutsAcrossRecovery:
    """Where a stateless cut falls depends on admission history (a
    prefix becomes a chain when a second consumer asks, and stays one
    after that consumer leaves); a restore regrows the DAG from the
    surviving queries alone. Checkpoints therefore carry stateful
    chains only, and recovery is indifferent to the difference."""

    FILTERED = "select r.host, r.temp from Readings r where r.load > 0.2"

    def _run(self, fail):
        catalog = _catalog()
        engine = StreamEngine(catalog, share_plans=True)
        coordinator = CheckpointCoordinator(engine, interval=None)
        build = PlanBuilder(catalog).build_sql
        # A windowed aggregate (state crosses the barrier) beside the
        # stateless tenant whose prefix gets split.
        handles = [engine.execute(build(QUERIES[0])), engine.execute(build(self.FILTERED))]
        rows, stamps = _rows(60)
        registry = engine.subplans

        def shapes():
            return sorted(
                [type(op).__name__ for op in chain.compiled.operators]
                for chain in registry.live_chains
                if chain.stateless
            )

        def feed(lo, hi):
            engine.push_many("Readings", rows[lo:hi], stamps[lo:hi])
            engine.punctuate(stamps[hi - 1])

        feed(0, 10)
        assert shapes() == [["FusedOp"], ["ProjectOp"]]
        second = engine.execute(build(QUERIES[2]))  # same filter: the split
        feed(10, 20)
        engine.stop(second)  # no merge-back: the cut stays
        assert shapes() == [["FilterOp"], ["ProjectOp"], ["ProjectOp"]]
        feed(20, 30)
        barrier = coordinator.checkpoint(stamps[29])
        stateful = [states for states in barrier.chains.values()]
        assert [[op["type"] for op in chain] for chains in stateful for chain in chains] == [
            ["AggregateOp"]
        ]
        feed(30, 40)
        if fail:
            engine.fail()
            handles = coordinator.recover()
            # Regrown from the two surviving queries: fused again.
            assert shapes() == [["FusedOp"], ["ProjectOp"]]
        feed(40, 60)
        engine.punctuate(stamps[-1] + 100.0)
        return [
            [(e.timestamp, e.row.values) for e in handle.sink.elements]
            for handle in handles
        ]

    def test_split_then_close_then_barrier_then_fail(self):
        expected = self._run(fail=False)
        assert all(expected)
        assert self._run(fail=True) == expected


class TestLogViewsAcrossRecovery:
    """Three queries read one shared chain's result log through views:
    one admitted late, one cleared, one closed before the barrier. The
    barrier records one count per view — its log's received elements,
    the same for every view of one log — and no results; the views and
    their log outlive the failure, the regrown chain writes into that
    log again and skips what the replay re-derives, so each query reads
    after fail → recover() → replay exactly what it reads in the
    failure-free run, through the handles it held."""

    SQL = QUERIES[2]

    def _run(self, fail):
        catalog = _catalog()
        engine = StreamEngine(catalog, share_plans=True)
        coordinator = CheckpointCoordinator(engine, interval=None)
        build = PlanBuilder(catalog).build_sql
        rows, stamps = _rows(60)

        def feed(lo, hi):
            engine.push_many("Readings", rows[lo:hi], stamps[lo:hi])
            engine.punctuate(stamps[hi - 1] - 0.5)

        aggregate = engine.execute(build(QUERIES[0]))
        cleared, closed = engine.execute(build(self.SQL)), engine.execute(build(self.SQL))
        feed(0, 10)
        late = engine.execute(build(self.SQL))
        feed(10, 20)
        cleared.sink.clear()
        feed(20, 25)
        engine.stop(closed)
        feed(25, 30)
        barrier = coordinator.checkpoint(stamps[29])
        log = late.sink.log
        assert [query.received for query in barrier.queries[1:]] == [len(log)] * 2
        assert len(cleared.sink) < len(late.sink)  # a clear moves the view, not the count
        feed(30, 40)
        if fail:
            engine.fail()
            restored = coordinator.recover()
            assert [id(h) for h in restored] == [id(h) for h in (aggregate, cleared, late)]
            assert cleared.sink.log is late.sink.log is log and cleared.sink.clears == 1
        feed(40, 60)
        engine.punctuate(stamps[-1] + 100.0)
        return [
            ([(e.timestamp, e.row.values) for e in handle.sink.elements], handle.latest_batch())
            for handle in (aggregate, cleared, late, closed)
        ]

    def test_every_view_reads_as_if_nothing_failed(self):
        expected = self._run(fail=False)
        assert all(elements for elements, _ in expected)
        assert self._run(fail=True) == expected


class TestProjectAboveJoinLayout:
    """A barrier whose join still had a ProjectOp above it (as when the
    run's fused code declines, and in every checkpoint written before the
    run lowered into the join) cannot restore into a pipeline where the
    join emits the projection itself: recovery raises ``ExecutionError``
    on the operator count — never a ``KeyError``, and no state poured
    into the wrong operator."""

    JOIN = (
        "select r.host, r.temp, s.load from Readings r [range 10 seconds], "
        "Readings s [range 10 seconds] where r.host = s.host"
    )

    @pytest.mark.parametrize("share", [False, True], ids=["private", "shared"])
    def test_single_engine(self, share):
        catalog = _catalog()
        engine = StreamEngine(catalog, share_plans=share)
        coordinator = CheckpointCoordinator(engine, interval=None)
        with unfused():
            handle = engine.execute(PlanBuilder(catalog).build_sql(self.JOIN))
        pipelines = [handle.compiled] + [c.compiled for c in engine.subplans.live_chains]
        layout = [type(op).__name__ for p in pipelines for op in p.operators]
        assert layout == ["ProjectOp", "SymmetricHashJoin"]
        rows, stamps = _rows(20)
        engine.push_many("Readings", rows, stamps)
        engine.punctuate(stamps[-1])
        coordinator.checkpoint(stamps[-1])
        engine.fail()
        with pytest.raises(ExecutionError, match="operator count"):
            coordinator.recover()

    def test_pool_file_on_shard_failover(self, tmp_path):
        import pickle

        catalog = _catalog()
        pool = ShardedStreamEngine(catalog, shards=2)
        pool.set_partition_key("Readings", "load")  # not the join key: shuffle
        coordinator = CheckpointCoordinator(
            pool, store=FileCheckpointStore(tmp_path), interval=None
        )
        handle = pool.execute(PlanBuilder(catalog).build_sql(self.JOIN), sql=self.JOIN)
        assert handle.exchanged
        rows, stamps = _rows(20)
        pool.push_many("Readings", rows, stamps)
        pool.punctuate(stamps[-1])
        coordinator.checkpoint(stamps[-1])
        (path,) = tmp_path.glob("checkpoint-*.pkl")
        checkpoint = pickle.loads(path.read_bytes())
        rewritten = 0
        for replica in checkpoint.handles[handle.query_id].replicas:
            stage2 = replica["s2"]
            if stage2 is None:
                continue
            assert [state["type"] for state in stage2] == ["SymmetricHashJoin"]
            join = stage2[0]
            stage2.insert(0, {
                "type": "ProjectOp", "rows_in": join["rows_out"], "rows_out": join["rows_out"],
            })
            rewritten += 1
        assert rewritten == 2
        path.write_bytes(pickle.dumps(checkpoint))
        coordinator.store = FileCheckpointStore(tmp_path)
        kill_shard(pool, 0)
        with pytest.raises(ExecutionError, match="operator count"):
            pool.punctuate(stamps[-1] + 100.0)


class TestRejectedIngestLeavesNoLogRecord:
    """Regression: the replay log recorded a row before coercing it, so
    one malformed row made every later recovery raise from replay."""

    BAD = {"host": "ws9"}  # no temp, no load

    REJECTED = {
        "push": lambda engine, bad: engine.push("Readings", bad, 11.0),
        "push_many": lambda engine, bad: engine.push_many(
            "Readings", [_rows(1)[0][0], bad], [11.0, 12.0]
        ),
        "load_table": lambda engine, bad: engine.load_table(
            "Archive", [_rows(1)[0][0], bad]
        ),
    }

    def _run(self, rejected=None):
        catalog = _catalog()
        catalog.register_table("Archive", READINGS, cardinality=4)
        engine = StreamEngine(catalog)
        coordinator = CheckpointCoordinator(engine, interval=None)
        builder = PlanBuilder(catalog)
        sqls = [QUERIES[0], "select a.host, a.temp from Archive a where a.temp > 0.0"]
        handles = [engine.execute(builder.build_sql(sql)) for sql in sqls]
        rows, stamps = _rows(30)
        engine.load_table("Archive", rows[:3])
        engine.push_many("Readings", rows[:10], stamps[:10])
        engine.punctuate(stamps[9])
        coordinator.checkpoint(stamps[9])
        if rejected is not None:
            logged, ingested = coordinator.log.next_seq, engine.elements_ingested
            with pytest.raises(SchemaError, match="missing field"):
                self.REJECTED[rejected](engine, self.BAD)
            assert coordinator.log.next_seq == logged
            assert engine.elements_ingested == ingested
            assert len(engine.table_rows("Archive")) == 3
        engine.push_many("Readings", rows[10:], stamps[10:])
        engine.load_table("Archive", rows[3:5])
        engine.fail()
        handles = coordinator.recover()
        engine.punctuate(stamps[-1] + 100.0)
        return [
            sorted((e.timestamp, e.row.values) for e in handle.sink.elements)
            for handle in handles
        ]

    @pytest.mark.parametrize("verb", sorted(REJECTED))
    def test_recovery_after_rejected_ingest(self, verb):
        assert self._run(verb) == self._run()


class TestRejectedRemoteTupleLeavesNoLogRecord:
    """Regression: ``push_remote`` logged a tuple before shaping it, so
    one tuple missing a field made every later recovery raise from
    replay, losing the good tuples after it too. The pool also counted
    it and stepped its round-robin before any shard looked at it."""

    UPSTREAM = Schema.of(("u.host", DataType.STRING), ("u.temp", DataType.FLOAT))

    def _run(self, engine, coordinator, rejected, fail):
        handle = engine.execute(RemoteSource("upstream", self.UPSTREAM, 1.0))
        engine.push_remote("upstream", {"host": "ws1", "temp": 20.0}, 1.0)
        engine.push_remote("upstream", {"u.host": "ws2", "u.temp": 21.0}, 2.0)
        engine.punctuate(2.0)
        coordinator.checkpoint(2.0)
        if rejected:
            logged, ingested = coordinator.log.next_seq, engine.elements_ingested
            with pytest.raises(ExecutionError, match="missing field 'u.host'"):
                engine.push_remote("upstream", {"wrong": 1}, 2.5)
            assert coordinator.log.next_seq == logged
            assert engine.elements_ingested == ingested
        engine.push_remote("upstream", {"host": "ws3", "temp": 22.0}, 3.0)
        engine.push_remote("upstream", {"host": "ws4", "temp": 23.0}, 4.0)
        handle = fail(engine, coordinator) or handle
        engine.punctuate(5.0)
        assert all(e.row.schema == self.UPSTREAM for e in handle.sink.elements)
        return sorted((e.timestamp, e.row.values) for e in handle.sink.elements)

    @staticmethod
    def _recover(engine, coordinator):
        engine.fail()
        (handle,) = coordinator.recover()
        return handle

    @staticmethod
    def _kill_both(pool, _):
        for index in range(pool.shard_count):
            kill_shard(pool, index)

    def test_single_engine_recovers_as_if_never_sent(self):
        def run(rejected):
            engine = StreamEngine(_catalog())
            coordinator = CheckpointCoordinator(engine, interval=None)
            return self._run(engine, coordinator, rejected, self._recover)

        expected = run(rejected=False)
        assert len(expected) == 4
        assert run(rejected=True) == expected

    def test_pool_rejects_in_the_parent_and_fails_over(self):
        def run(rejected):
            pool = ShardedStreamEngine(_catalog(), shards=2)
            coordinator = CheckpointCoordinator(pool, interval=None)
            got = self._run(pool, coordinator, rejected, self._kill_both)
            assert coordinator.last_replay is not None  # a shard was replayed
            return got, pool.elements_ingested

        expected = run(rejected=False)
        assert len(expected[0]) == 4
        assert run(rejected=True) == expected


class TestSessionWiring:
    def _session(self, **kwargs):
        session = connect(**kwargs)
        session.attach(
            StreamSource("Readings", READINGS, rate=10.0, partition_by="host")
        )
        return session

    def test_connect_without_interval_has_no_checkpointer(self):
        with self._session() as session:
            assert session.checkpointer is None
            assert session.engine.checkpointer is None

    def test_connect_attaches_coordinator_to_engine(self):
        with self._session(checkpoint_interval=10.0) as session:
            assert session.checkpointer is session.engine.checkpointer
            assert session.checkpointer.interval == 10.0

    def test_connect_attaches_coordinator_to_pool(self):
        with self._session(shards=3, checkpoint_interval=10.0) as session:
            assert session.engine.shard_count == 3
            assert session.checkpointer is session.engine.checkpointer

    def test_session_recovery_end_to_end(self):
        rows, stamps = _rows(40)

        def run(fail):
            with self._session(checkpoint_interval=10.0) as session:
                cursor = session.query(QUERIES[0])
                for offset in range(0, len(rows), 10):
                    if fail and offset == 30:
                        session.engine.fail()
                        (handle,) = session.checkpointer.recover()
                        assert handle is cursor._handle  # no rebinding
                    for row, stamp in zip(
                        rows[offset : offset + 10], stamps[offset : offset + 10]
                    ):
                        session.push("Readings", row, stamp)
                    session.punctuate(stamps[min(offset + 9, len(stamps) - 1)])
                session.punctuate(stamps[-1] + 100.0)
                return [tuple(r.values) for r in cursor.results()]

        assert run(fail=True) == run(fail=False)


def _probe_session(shards):
    """The probe shape: one filter and one tumbling grouped aggregate
    under ``connect(checkpoint_interval=10.0)``."""
    session = connect(shards=shards, checkpoint_interval=10.0)
    session.attach(StreamSource("Readings", READINGS, rate=100.0, partition_by="host"))
    cursors = [
        session.query("select r.host, r.temp from Readings r where r.temp > 5.0"),
        session.query(QUERIES[0]),
    ]
    return session, cursors


class TestCheckpointSize:
    """A checkpoint holds operator state, tables and counts — never the
    results delivered — so its size stays flat however long a standing
    query runs (5,000 rows per 50 s of stream time; a checkpoint that
    carried every sink's contents grew ≈8x from 5,000 to 40,000 rows)."""

    @pytest.mark.parametrize("shards", [1, 2], ids=["engine", "pool2"])
    def test_bytes_flat_from_5k_to_40k_rows(self, shards):
        import pickle

        session, cursors = _probe_session(shards)
        sizes = {}
        for lo in range(0, 40_000, 1_000):
            rows = [
                Row(READINGS, (f"ws{i % 4}", float(i % 13), (i % 10) / 10.0), validate=False)
                for i in range(lo, lo + 1_000)
            ]
            stamps = [i / 100.0 for i in range(lo, lo + 1_000)]
            session.push_many("Readings", rows, stamps)
            session.punctuate(stamps[-1])
            if lo + 1_000 in (5_000, 40_000):
                sizes[lo + 1_000] = len(pickle.dumps(session.checkpointer.latest()))
        assert len(cursors[0]) > 20_000 and len(cursors[1]) > 100  # not vacuous
        session.close()
        assert sizes[40_000] <= 1.10 * sizes[5_000], sizes


@pytest.mark.usefixtures("no_fallbacks")
class TestSinksOutliveTheFailure:
    """The cursor's sink survives ``fail()``: ``recover()`` re-executes
    every query into the handle the caller holds, and the re-derived
    output is skipped by count, so a cursor and its subscriptions read
    through a recovery as if nothing failed."""

    def _run(self, fail, share):
        rows, stamps = _rows(60)
        session = connect(checkpoint_interval=10.0, share_plans=share)
        session.attach(StreamSource("Readings", READINGS, rate=10.0))
        cursors = [session.query(sql) for sql in QUERIES + QUERIES[2:]]
        seen = {}
        for index, cursor in enumerate(cursors):
            for mode in ("direct", "queue"):
                got = seen[index, mode] = []
                cursor.subscribe(
                    lambda element, got=got: got.append((element.timestamp, element.row.values)),
                    elements=True,
                    mode=mode,
                )
        for offset in range(0, len(rows), 10):
            if fail and offset == 30:
                held = [cursor._handle for cursor in cursors]
                session.engine.fail()
                restored = session.checkpointer.recover()
                assert [id(h) for h in restored] == [id(h) for h in held]
            session.push_many("Readings", rows[offset : offset + 10], stamps[offset : offset + 10])
            session.punctuate(stamps[offset + 9])
            if offset == 20:
                cursors[1]._handle.sink.clear()  # the count is cumulative
        session.punctuate(stamps[-1] + 100.0)
        for cursor in cursors:
            cursor.drain()
        results = [
            (
                [(e.timestamp, e.row.values) for e in cursor._handle.sink.elements],
                [p.watermark for p in cursor._handle.sink.punctuations],
                cursor.latest_batch(),
            )
            for cursor in cursors
        ]
        session.close()
        return results, seen

    @pytest.mark.parametrize("share", [False, True], ids=["private", "shared"])
    def test_cursors_and_subscriptions_see_each_result_once(self, share):
        expected, expected_seen = self._run(fail=False, share=share)
        got, seen = self._run(fail=True, share=share)
        assert all(elements for elements, _, _ in expected)
        assert got == expected
        assert seen == expected_seen
        for index, (elements, _, _) in enumerate(expected):
            if index != 1:  # the cleared sink holds only what came after
                assert seen[index, "direct"] == seen[index, "queue"] == elements

    @pytest.mark.parametrize("share", [False, True], ids=["private", "shared"])
    def test_a_punctuation_of_another_source_holds_back_nothing_after(self, share):
        """The suffix punctuates one source far ahead; after the
        recovery a lower punctuation of the other source still reaches
        the sink of the query that reads it, so its watermarks and
        ``latest_batch()`` read as in the failure-free run."""
        rows, stamps = _rows(40)

        def run(fail):
            catalog = _catalog()
            catalog.register_stream("Other", READINGS, rate=10.0)
            engine = StreamEngine(catalog, share_plans=share)
            coordinator = CheckpointCoordinator(engine, interval=None)
            builder = PlanBuilder(catalog)
            handles = [
                engine.execute(builder.build_sql(f"select r.host, r.temp from {name} r"))
                for name in ("Readings", "Other")
            ]
            for name in ("Readings", "Other"):
                engine.push_many(name, rows[:10], stamps[:10])
            engine.punctuate(stamps[9])
            coordinator.checkpoint(stamps[9])
            for name in ("Readings", "Other"):
                engine.push_many(name, rows[10:20], stamps[10:20])
            engine.punctuate(100.0, ["Readings"])
            if fail:
                engine.fail()
                assert [id(h) for h in coordinator.recover()] == [id(h) for h in handles]
            engine.punctuate(stamps[15], ["Other"])
            engine.push_many("Other", rows[20:30], stamps[20:30])
            engine.punctuate(stamps[25], ["Other"])
            return [
                (
                    [(e.timestamp, e.row.values) for e in h.sink.elements],
                    [p.watermark for p in h.sink.punctuations],
                    h.latest_batch(),
                )
                for h in handles
            ]

        expected = run(fail=False)
        assert expected[1][1] == [stamps[9], stamps[15], stamps[25]]
        assert run(fail=True) == expected

    @pytest.mark.parametrize("share", [False, True], ids=["private", "shared"])
    def test_a_cursor_closed_since_the_barrier_stays_closed(self, share):
        """A recovery restores the queries the engine still holds: a
        cursor closed between the barrier and the failure, or while the
        engine is failed, is not run again — its results stop growing
        and it is not in what ``recover()`` returns — and the cursors
        left read as in the failure-free run. On the shared engine the
        closed aggregate was its chain's only reader (that chain's state
        is dropped) and the closed filter shares its log with a kept
        one."""
        rows, stamps = _rows(60)

        def run(fail):
            session = connect(checkpoint_interval=10.0, share_plans=share)
            session.attach(StreamSource("Readings", READINGS, rate=10.0))
            kept = [session.query(QUERIES[1]), session.query(QUERIES[2])]
            closed = [session.query(QUERIES[0]), session.query(QUERIES[2])]
            for offset in range(0, len(rows), 10):
                if offset == 30:
                    closed[0].close()
                    if fail:
                        session.engine.fail()
                    closed[1].close()
                    frozen = [len(cursor) for cursor in closed]
                    if fail:
                        restored = session.checkpointer.recover()
                        assert [id(h) for h in restored] == [id(c._handle) for c in kept]
                session.push_many("Readings", rows[offset : offset + 10], stamps[offset : offset + 10])
                session.punctuate(stamps[offset + 9])
            assert [len(cursor) for cursor in closed] == frozen
            results = [[(e.timestamp, e.row.values) for e in c._handle.sink.elements] for c in kept]
            session.close()
            return results

        expected = run(fail=False)
        assert all(expected)
        assert run(fail=True) == expected

    @pytest.mark.parametrize("share", [False, True], ids=["private", "shared"])
    def test_a_query_admitted_since_the_barrier_comes_back(self, share):
        """A filter admitted between a barrier and the failure is in no
        checkpoint: the replay starts it again at its admission into the
        handle the caller holds, so ``recover()`` lists it (after the
        checkpointed queries) and it reads as in the failure-free run —
        as does a second reader of a checkpointed query's chain admitted
        then. One admitted since the barrier and closed before the
        failure stays closed."""
        rows, stamps = _rows(60)

        def run(fail):
            session = connect(checkpoint_interval=10.0, share_plans=share)
            session.attach(StreamSource("Readings", READINGS, rate=10.0))
            cursors = [session.query(sql) for sql in QUERIES]
            for offset in range(0, 30, 10):  # barriers at 9, 19 and 29
                session.push_many("Readings", rows[offset : offset + 10], stamps[offset : offset + 10])
                session.punctuate(stamps[offset + 9])
            late = [
                session.query("select r.host, r.temp from Readings r where r.temp > 5.0"),
                session.query(QUERIES[2]),
            ]
            closed = session.query(QUERIES[1])
            session.push_many("Readings", rows[30:35], stamps[30:35])
            session.punctuate(stamps[34])  # no barrier: 34 < 29 + 10
            closed.close()
            frozen = len(closed)
            session.push_many("Readings", rows[35:40], stamps[35:40])
            if fail:
                held = [cursor._handle for cursor in cursors + late]
                session.engine.fail()
                restored = session.checkpointer.recover()
                assert session.checkpointer.latest().watermark == stamps[29]
                assert [id(h) for h in restored] == [id(h) for h in held]
            for offset in range(40, 60, 10):
                session.push_many("Readings", rows[offset : offset + 10], stamps[offset : offset + 10])
                session.punctuate(stamps[offset + 9])
            session.punctuate(stamps[-1] + 100.0)
            assert len(closed) == frozen
            results = [
                (
                    [(e.timestamp, e.row.values) for e in c._handle.sink.elements],
                    [p.watermark for p in c._handle.sink.punctuations],
                )
                for c in cursors + late
            ]
            session.close()
            return results

        expected = run(fail=False)
        assert all(elements for elements, _ in expected)
        assert run(fail=True) == expected

    @pytest.mark.parametrize("admitted", [10, 30], ids=["before-barrier", "after-barrier"])
    def test_a_warm_declined_twin_comes_back_as_a_sibling(self, admitted):
        """A second DISTINCT of one template admitted once rows flowed
        declines the warm chain and gets a sibling with a log of its
        own. Every chain a restore regrows is cold, so the twin's view
        names its chain by its log: the sibling comes back (a restore
        used to attach the twin to the first chain and refuse the
        multiplicity, or read nothing into the twin's log), whether the
        twin is in the checkpoint or admitted after it."""
        rows, stamps = _rows(60)
        sql = "select distinct r.host, r.temp from Readings r where r.temp > 3.0"

        def run(fail):
            session = connect(checkpoint_interval=10.0)
            session.attach(StreamSource("Readings", READINGS, rate=10.0))
            cursors = [session.query(sql)]
            for offset in range(0, 60, 10):
                if offset == admitted:
                    cursors.append(session.query(sql))
                    assert session.stats()["sharing"]["chains"] == 2
                session.push_many("Readings", rows[offset : offset + 10], stamps[offset : offset + 10])
                if fail and offset == 30:
                    session.engine.fail()
                    session.checkpointer.recover()
                    assert session.stats()["sharing"]["chains"] == 2
                session.punctuate(stamps[offset + 9])
            results = [[(e.timestamp, e.row.values) for e in c._handle.sink.elements] for c in cursors]
            session.close()
            return results

        expected = run(fail=False)
        assert all(expected)
        assert run(fail=True) == expected

    def test_a_process_restart_reads_from_the_barrier_on(self, tmp_path):
        """A fresh engine restored from a file store has no sink to
        write into: each query comes back under a new handle with a new
        sink that holds what was delivered after the barrier, and none
        of the history before it. The replay log lives in memory, so the
        fresh coordinator replays nothing: the rows after the barrier
        come back only because the caller pushes them again."""
        rows, stamps = _rows(60)
        engine, coordinator, handles = _build(interval=None)
        coordinator.store = FileCheckpointStore(tmp_path)
        engine.push_many("Readings", rows[:30], stamps[:30])
        engine.punctuate(stamps[29])
        coordinator.checkpoint(stamps[29])
        at_barrier = [len(handle.sink) for handle in handles]
        engine.push_many("Readings", rows[30:], stamps[30:])
        engine.punctuate(stamps[-1] + 100.0)

        restarted = StreamEngine(_catalog())
        fresh = CheckpointCoordinator(restarted, store=FileCheckpointStore(tmp_path))
        restored = fresh.recover()
        assert fresh.last_replay["entries"] == 0
        restarted.push_many("Readings", rows[30:], stamps[30:])
        restarted.punctuate(stamps[-1] + 100.0)
        assert not set(map(id, restored)) & set(map(id, handles))
        assert all(at_barrier) and all(len(handle.sink) for handle in restored)
        assert [handle.sink.elements for handle in restored] == [
            handle.sink.elements[count:] for handle, count in zip(handles, at_barrier)
        ]
