"""DISTINCT identity: a DISTINCT that takes the Select/Project run below
it into its own operator emits what the reference emits.

The reference is one engine, private pipelines, rows pushed one at a
time, on the interpreter (``conftest.interpreted``). Seeded templates —
a filter-only, a projecting and a multi-stage run under a DISTINCT,
over rows with NULL keys, ints in a FLOAT column, a LIKE conjunct, a
DISTINCT the pool exchanges (RA322: stage 1 deduplicates per shard) and
a stage that raises — must emit the same rows, per punctuation segment,
across {generated, unfused, interpreted} × {push, push_many} × {shared,
private} × {one engine, two loopback shards, two framed worker
processes}, and raise the same errors at the same verbs in process.
Framed workers generate code whatever the parent's arm, so that
channel runs the generated arm, and its errors reach the parent at a
later verb, so only its emissions are compared. A snapshot → restore
mid-stream on one engine and a shard kill on the pool must not change
the emissions either.

Seed count: ``REPRO_SHARD_SEEDS`` (default 4; framed: at most 2).
"""

from __future__ import annotations

import os
import random

import pytest
from conftest import declining, generated, interpreted, push_elements, unfused

from repro.catalog import Catalog
from repro.data import DataType, Row, Schema
from repro.data.streams import CollectingConsumer, StreamElement
from repro.errors import ExecutionError
from repro.plan import PlanBuilder
from repro.plan.logical import Distinct, Project, ProjectItem, Scan, Select
from repro.runtime.faults import kill_shard, seeded_point
from repro.sql.expressions import BinaryOp, ColumnRef, Literal
from repro.stream.checkpoint import CheckpointCoordinator
from repro.stream.engine import StreamEngine
from repro.stream.operators import DistinctOp
from repro.stream.procshard import ProcessShardEngine, usable_start_method
from repro.stream.sharded import ShardedStreamEngine

SEEDS = int(os.environ.get("REPRO_SHARD_SEEDS", "4"))
FRAMED_SEEDS = min(SEEDS, 2)

READINGS = Schema.of(
    ("room", DataType.STRING),
    ("host", DataType.STRING),
    ("temp", DataType.FLOAT),
    ("load", DataType.FLOAT),
)
#: The host of the rows the raising template's stage raises on.
BAD = "bad"


def _catalog() -> Catalog:
    catalog = Catalog()
    catalog.register_stream("Readings", READINGS, rate=10.0)
    return catalog


def _col(name: str) -> ColumnRef:
    return ColumnRef(f"r.{name}")


def _filter_only(scan, rng):
    return Distinct(Select(scan, BinaryOp(">", _col("temp"), Literal(rng.choice([5.0, 15.0])))))


def _multi_stage(scan, rng):
    """Filter, project, filter, project: four stages under the DISTINCT."""
    low = Select(scan, BinaryOp("<", _col("load"), Literal(rng.choice([0.6, 1.0]))))
    doubled = BinaryOp("*", _col("temp"), Literal(2.0))
    items = [
        ProjectItem(_col("room"), "room"),
        ProjectItem(_col("host"), "host"),
        ProjectItem(doubled, "t2"),
    ]
    hot = BinaryOp(">", ColumnRef("t2"), Literal(rng.choice([20.0, 50.0])))
    upper = Select(Project(low, items), hot)
    kept = [ProjectItem(ColumnRef("room"), "room"), ProjectItem(ColumnRef("t2"), "t2")]
    return Distinct(Project(upper, kept))


def _raising(scan, rng):
    """``temp > 5 AND (host <> 'bad' OR load + room > 1)``: a 'bad' row
    with a room and a load adds a FLOAT to a STRING, which raises on
    every rung; every other row short-circuits past it."""
    adds = BinaryOp(">", BinaryOp("+", _col("load"), _col("room")), Literal(1.0))
    good = BinaryOp("<>", _col("host"), Literal(BAD))
    predicate = BinaryOp(
        "AND", BinaryOp(">", _col("temp"), Literal(5.0)), BinaryOp("OR", good, adds)
    )
    items = [ProjectItem(_col("room"), "room"), ProjectItem(_col("host"), "host")]
    return Distinct(Project(Select(scan, predicate), items))


#: name -> SQL text with placeholders, or ``build(scan, rng)`` of a
#: hand-built plan (no SQL text states a DISTINCT over a bare filter).
TEMPLATES = {
    "filter-only": _filter_only,
    "projecting": "select distinct r.host, r.room from Readings r where r.temp > {t0}",
    "int-in-float": "select distinct r.host, r.temp from Readings r where r.load >= {l0}",
    "like": "select distinct r.room, r.host from Readings r "
    "where r.room like 'lab%' and r.temp > {t0}",
    "null-test": "select distinct r.room from Readings r where r.temp is not null "
    "and r.load is null",
    "multi-stage": _multi_stage,
    "exchanged": "select distinct r.room from Readings r where r.temp > {t0}",
    "raising": _raising,
}


def _queries(rng: random.Random) -> list:
    """Every template once, thresholds drawn from ``rng``: ``(sql or
    None, build(catalog) -> plan)``."""
    queries = []
    for template in TEMPLATES.values():
        if isinstance(template, str):
            sql = template.format(
                t0=rng.choice([5.0, 15.0, 30.0]), l0=rng.choice([0.0, 0.5])
            )
            queries.append((sql, lambda catalog, sql=sql: PlanBuilder(catalog).build_sql(sql)))
        else:
            choices = random.Random(rng.random())
            queries.append(
                (
                    None,
                    lambda catalog, build=template, seed=choices.random(): build(
                        Scan(catalog.source("Readings"), "r"), random.Random(seed)
                    ),
                )
            )
    return queries


def _rows(rng: random.Random, count: int):
    """Few distinct values, so duplicates abound: NULL rooms, temps and
    loads, and ``20`` beside ``20.0`` in the FLOAT column; a few 'bad'
    rows the raising template raises on."""
    rows, stamps, clock = [], [], 0.0
    for _ in range(count):
        if rng.random() < 0.04:
            values = ("lab1", BAD, 30.0, 0.5)
        else:
            values = (
                rng.choice(["lab1", "lab2", "office3", None]),
                f"ws{rng.randrange(5)}",
                rng.choice([None, 10.0, 20, 20.0, 31.5, 45.0, 45]),
                rng.choice([None, 0.1, 0.5, 0.9]),
            )
        rows.append(Row(READINGS, values, validate=False))
        clock += rng.uniform(0.1, 1.5)
        stamps.append(round(clock, 3))
    return rows, stamps


def _chunks(rows, rng: random.Random) -> list[tuple[int, int]]:
    """Chunk bounds, each punctuated at its end; a 'bad' row is a chunk
    of its own, so every arm raises at the same verb and loses nothing
    else to the raise."""
    chunks, lo = [], 0
    while lo < len(rows):
        hi = min(lo + rng.randint(3, 40), len(rows))
        bad = next((i for i in range(lo, hi) if rows[i]["host"] == BAD), None)
        if bad is not None:
            hi = bad if bad > lo else bad + 1
        chunks.append((lo, hi))
        lo = hi
    return chunks


def _corpus(seed: int):
    rng = random.Random(seed)
    queries = _queries(rng)
    rows, stamps = _rows(rng, rng.randint(120, 260))
    return queries, rows, stamps, _chunks(rows, random.Random(seed * 31 + 7))


#: channel -> the engine it builds (shards share a partition key).
CHANNELS = {
    "engine": lambda catalog, share: StreamEngine(catalog, share_plans=share),
    "loopback": lambda catalog, share: ShardedStreamEngine(catalog, shards=2, share_plans=share),
    "framed": lambda catalog, share: ProcessShardEngine(catalog, shards=2, share_plans=share),
}


def _open(channel, share, queries, arm, interval=None):
    catalog = _catalog()
    engine = CHANNELS[channel](catalog, share)
    if channel != "engine":
        engine.set_partition_key("Readings", "host")
    coordinator = CheckpointCoordinator(engine, interval=interval) if interval is not None else None
    with arm():
        if channel == "engine":
            handles = [engine.execute(build(catalog)) for _, build in queries]
        else:  # the framed channel ships SQL text; a hand-built plan stays in the parent
            handles = [engine.execute(build(catalog), sql=sql) for sql, build in queries]
    return engine, coordinator, handles


def _verb(call, errors, *args) -> None:
    try:
        call(*args)
    except ExecutionError as exc:
        errors.append(str(exc))


def _drive(engine, handles, rows, stamps, chunks, verb, on_chunk=None):
    """Each chunk by ``verb``, then a punctuation at its last stamp;
    returns each handle's emissions per punctuation segment, sorted
    (the pool merges shards per segment), and the errors raised, in
    order, by verb."""
    segments = [[] for _ in handles]
    marks = [0] * len(handles)
    errors: list[str] = []

    def cut():
        for index, handle in enumerate(handles):
            elements = handle.sink.elements
            segments[index].append(
                sorted((e.timestamp, repr(e.row.values)) for e in elements[marks[index] :])
            )
            marks[index] = len(elements)

    for number, (lo, hi) in enumerate(chunks):
        if on_chunk is not None:
            on_chunk(number)
        if verb == "push_many":
            _verb(engine.push_many, errors, "Readings", rows[lo:hi], stamps[lo:hi])
        else:
            for row, stamp in zip(rows[lo:hi], stamps[lo:hi]):
                _verb(engine.push, errors, "Readings", row, stamp)
        _verb(engine.punctuate, errors, stamps[hi - 1])
        cut()
    _verb(engine.punctuate, errors, stamps[-1] + 100.0)
    cut()
    return segments, errors


def _run(channel, share, verb, arm, seed):
    queries, rows, stamps, chunks = _corpus(seed)
    engine, _, handles = _open(channel, share, queries, arm)
    try:
        return _drive(engine, handles, rows, stamps, chunks, verb)
    finally:
        if channel == "framed":
            engine.shutdown()


def _reference(seed):
    return _run("engine", False, "push", interpreted, seed)


ARMS = {"generated": generated, "unfused": unfused, "interpreted": interpreted}


class TestDistinctIdentityCorpus:
    @pytest.mark.parametrize("seed", range(SEEDS))
    @pytest.mark.parametrize("channel", ["engine", "loopback"])
    def test_every_arm_matches_the_reference(self, channel, seed):
        expected, raised = _reference(seed)
        assert all(any(segment for segment in query) for query in expected)
        assert raised  # the raising template raised, or nothing is tested
        for arm in ARMS:
            for share in (False, True):
                for verb in ("push", "push_many"):
                    got, errors = _run(channel, share, verb, ARMS[arm], seed)
                    case = f"seed={seed} {channel} {arm} share={share} {verb}"
                    assert got == expected, case
                    assert errors == raised, case

    @pytest.mark.skipif(usable_start_method() is None, reason="no multiprocessing start method")
    @pytest.mark.parametrize("seed", range(FRAMED_SEEDS))
    def test_framed_workers_match_the_reference(self, seed):
        expected, _ = _reference(seed)
        for share in (False, True):
            for verb in ("push", "push_many"):
                got, errors = _run("framed", share, verb, generated, seed)
                assert got == expected, f"seed={seed} framed share={share} {verb}"
                assert errors  # the raise reaches the parent, at some verb

    def test_the_run_lowers_inside_the_distinct(self):
        """On the generated arm every template's DISTINCT over a run is
        one operator holding the run's stages, on each channel's
        engines; the exchanged one deduplicates in stage 1 too."""
        queries, *_ = _corpus(0)
        engine, _, handles = _open("engine", True, queries, generated)
        ops = [op for chain in engine.subplans.live_chains for op in chain.compiled.operators]
        assert [type(op) for op in ops] == [DistinctOp] * len(TEMPLATES)
        assert all(op.stages and op._batch_fn is not None for op in ops)
        pool, _, pool_handles = _open("loopback", False, queries, generated)
        exchanged = pool_handles[list(TEMPLATES).index("exchanged")]
        assert exchanged.exchanged
        stage1 = [
            op
            for host in pool._channels
            for replica in host.stage1[exchanged.query_id]
            for op in replica.compiled.operators
        ]
        assert [type(op) for op in stage1] == [DistinctOp, DistinctOp]
        assert all(op.stages for op in stage1)


class TestDistinctAcrossRecovery:
    @pytest.mark.parametrize("seed", range(SEEDS))
    @pytest.mark.parametrize("share", [False, True], ids=["private", "shared"])
    def test_restore_mid_stream_on_one_engine(self, share, seed):
        expected, _ = _reference(seed)
        queries, rows, stamps, chunks = _corpus(seed)
        engine, coordinator, handles = _open("engine", share, queries, generated, interval=15.0)
        fail_at = seeded_point(seed, len(chunks))

        def fail(number):
            if number == fail_at:
                engine.fail()
                restored = coordinator.recover()
                assert [id(h) for h in restored] == [id(h) for h in handles]

        got, _ = _drive(engine, handles, rows, stamps, chunks, "push_many", fail)
        assert got == expected
        assert coordinator.checkpoints_taken > 0

    @pytest.mark.parametrize("seed", range(SEEDS))
    def test_a_shard_kill_on_the_pool(self, seed):
        expected, raised = _reference(seed)
        queries, rows, stamps, chunks = _corpus(seed)
        pool, coordinator, handles = _open("loopback", False, queries, generated, interval=15.0)
        kill_at = seeded_point(seed, len(chunks))
        victim = seeded_point(seed, 2, salt=1)

        def kill(number):
            if number == kill_at:
                kill_shard(pool, victim)

        got, errors = _drive(pool, handles, rows, stamps, chunks, "push_many", kill)
        assert got == expected
        # The replay of the dead shard's log raises nothing again.
        assert errors == raised
        assert coordinator.last_replay is not None and coordinator.last_replay["target"] == victim


def test_a_run_that_raises_forwards_what_it_found_first():
    """The generated dedup loop and the per-element body it stands for
    agree when a stage raises part way through a run: the first
    occurrences before the raising row are forwarded and seen, the rows
    after it are not reached, and the seen set holds nothing that was
    not forwarded."""
    bare = Schema.of(*((field.bare_name, field.dtype) for field in READINGS))
    good = BinaryOp("<>", ColumnRef("host"), Literal(BAD))
    adds = BinaryOp(">", BinaryOp("+", ColumnRef("load"), ColumnRef("room")), Literal(1.0))
    rooms = Schema.of(("room", DataType.STRING))
    stages = [("filter", BinaryOp("OR", good, adds)), ("project", [ColumnRef("room")], rooms)]
    values = [
        ("lab1", "ws0", 1.0, 0.1),
        ("lab1", "ws1", 2.0, 0.5),
        ("lab2", "ws2", 3.0, 0.9),
        ("lab1", BAD, 4.0, 0.5),
        ("office3", "ws3", 5.0, 0.1),
    ]
    elements = [StreamElement(Row(bare, v), float(i)) for i, v in enumerate(values)]
    outcomes = []
    for arm in (generated, lambda: declining("_codegen_distinct")):
        sink = CollectingConsumer()
        with arm():
            op = DistinctOp(sink, bare, stages, rooms)
        assert (op._batch_fn is not None) == (not outcomes)
        with pytest.raises(ExecutionError, match="cannot apply \\+"):
            push_elements(op, elements)
        outcomes.append(([e.row.values for e in sink.elements], set(op._seen), op.rows_out))
    assert outcomes[0] == outcomes[1] == ([("lab1",), ("lab2",)], {("lab1",), ("lab2",)}, 2)
