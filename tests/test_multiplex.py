"""Standing-query multiplexing: the plan cache + shared-subplan layer.

Acceptance for :mod:`repro.stream.multiplex` through the Session
surface:

* **Identity corpus** — seeded batches of overlapping statements
  (duplicated texts, shared filter prefixes, stateful windows, and
  shared-ineligible table joins) run on ``connect(share_plans=False)``
  and on sharing sessions with 1, 2 and 4 shards; every cursor's sorted
  per-punctuation-segment emissions must match exactly. A second arm
  staggers admission: cursors over one filter literal open and close
  between chunks, so chains are attached to, split and released warm.
* **Lifecycle** — interleaved ``Cursor.close`` / ``Session.close`` over
  cursors sharing one chain: closes are idempotent, siblings keep
  receiving, and the last release tears the chain DAG down exactly once.
* **Plan cache** — repeated text (any case/whitespace) hits; CREATE
  VIEW, attach, detach and drop_table bump the catalog schema epoch and
  a stale plan is evicted, never run.
* **Stats** — ``session.stats()`` exposes the cache and sharing
  counters, summed across shard engines.
* **A row keeps the schema it was built with** — nothing sits between
  a tee and its branches or anywhere in a SQL query's pipeline (two
  cursors of one template hold the very same elements); every result
  and display row carries its plan's schema, on every execution path,
  the hand-built plans that forward source rows included (labelled
  once, on the way out); and ingest relabels nothing on the ledger's
  deployments — counted, so a shim creeping back fails tier-1 without a
  benchmark.
* **Cut where it is shared** — one tenant runs one fused chain on
  source rows as they are (counted on the ledger's deployments: no
  unshared stateless cut); a second distinct consumer splits the prefix
  off warm and the DAG and counters are then the eager cut's; every
  open/close order leaves nothing behind; closing or admitting from a
  subscriber callback reads like private pipelines.
* **One result log per chain** — tenants of one template read views of
  one log (counted on ``tenants1k``: one store per chain per step), and
  each view lifecycle event — admission inside a callback, close, clear
  — is pinned against private sinks.
* **A warm admission is a lookup** — counted on ``tenants1k``: the 980
  plan-cache hits walk no plan node and render no expression, and each
  node computes its fingerprint once; the values a node caches are
  pinned sound (a SharedFeed keys as its subtree, a never-shared leaf
  unkeys its ancestors, explain reports the verdict admission acted on,
  a plan re-admitted after its chain tore down builds a new chain).

Seed count: ``REPRO_MUX_SEEDS`` (default 6).
"""

from __future__ import annotations

import os
import random
from functools import cached_property

import pytest

from repro.api import StreamSource, connect
from repro.catalog import Catalog
from repro.data import DataType, Field, Row, Schema
from repro.data.windows import WindowSpec
from repro.data.streams import CollectingConsumer, Punctuation
from repro.errors import QueryError
from repro.plan import PlanBuilder
from repro.plan.exchange import ExchangeSource
from repro.plan.logical import (
    CteRef,
    Distinct,
    Join,
    Limit,
    LogicalOp,
    OrderBy,
    Output,
    Project,
    ProjectItem,
    RemoteSource,
    Scan,
    Select,
)
from repro.runtime import Simulator
from repro.sensor import Position, SensorNetwork
from repro.sql.ast import OrderItem
from repro.sql.expressions import ColumnRef
from repro.stream import DistributedStreamEngine
from repro.stream.checkpoint import CheckpointCoordinator
from repro.stream.compiler import _ReschemaConsumer
from repro.stream.multiplex import CachedStatement, PlanCache, SharedFeed
from repro.stream.operators import DistinctOp, OutputOp
from repro.stream.partition import partition_safe
from repro.stream.procshard import usable_start_method

SEEDS = int(os.environ.get("REPRO_MUX_SEEDS", "6"))

READINGS = Schema.of(
    ("room", DataType.STRING),
    ("host", DataType.STRING),
    ("temp", DataType.FLOAT),
    ("load", DataType.FLOAT),
)
MACHINES = Schema.of(
    ("name", DataType.STRING),
    ("room", DataType.STRING),
    ("cpu", DataType.FLOAT),
)
MACHINES_ROWS = [
    {"name": f"ws{i}", "room": f"lab{i % 3}", "cpu": float(i % 7)} for i in range(16)
]

TEMPLATES = [
    # Two projections over the same filter: shared Select cut.
    "select r.host, r.temp from Readings r where r.temp > {t0}",
    "select r.host, r.temp * 2.0 as t2 from Readings r where r.temp > {t0}",
    # Stateful chains: keyed windowed aggregation, DISTINCT, row window.
    "select r.room, count(*) as n from Readings r "
    "[range {w} seconds slide {w} seconds] group by r.room",
    "select r.host, min(r.temp) as lo, max(r.temp) as hi from Readings r "
    "[range {w} seconds slide {w} seconds] group by r.host",
    "select distinct r.host, r.room from Readings r where r.temp > {t0}",
    "select r.host, r.temp from Readings r [rows 25] where r.load > {l0}",
    # Fallback-only on a sharded pool.
    "select r.room, r.temp from Readings r order by r.temp",
    # Table scan: shared-ineligible (declined), must still be identical.
    "select r.host, m.room from Readings r [range 30 seconds], Machines m "
    "where r.host = m.name and r.temp > {t0}",
]


def _fill(template: str, rng: random.Random) -> str:
    return template.format(
        t0=round(rng.uniform(5.0, 40.0), 1),
        l0=round(rng.uniform(0.0, 0.5), 2),
        w=rng.choice([10, 20, 30]),
    )


def _shares_everywhere(sql: str) -> bool:
    """Whether two admissions of ``sql`` share a chain on every session
    the corpus runs: sharing must accept the plan, and a pool must not
    exchange it (exchanged stages always run private)."""
    catalog = Catalog()
    catalog.register_stream("Readings", READINGS, rate=10.0)
    catalog.register_table("Machines", MACHINES, cardinality=len(MACHINES_ROWS))
    plan = PlanBuilder(catalog).build_sql(sql)
    shareable, _, _ = plan.sharing
    return shareable and partition_safe(plan, {"readings": "host"}).exchange is None


def _corpus(rng: random.Random) -> list[str]:
    """Overlapping statement batch: every chosen text appears 1-3 times,
    and at least one that shares everywhere is guaranteed duplicated
    (the sharing case)."""
    chosen = [
        _fill(template, rng)
        for template in rng.sample(TEMPLATES, rng.randint(3, 5))
    ]
    queries = [sql for sql in chosen for _ in range(rng.randint(1, 3))]
    queries.append(next(sql for sql in chosen if _shares_everywhere(sql)))
    rng.shuffle(queries)
    return queries


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


def _open_session(*, share: bool, shards: int = 1):
    session = connect(share_plans=share, shards=shards)
    session.attach(StreamSource("Readings", READINGS, rate=10.0, partition_by="host"))
    session.catalog.register_table("Machines", MACHINES, cardinality=len(MACHINES_ROWS))
    session.load("Machines", MACHINES_ROWS)
    return session


def _drive(session, cursors, rows, stamps, plan_rng: random.Random):
    """Feed in seeded chunks (per-element or batched), punctuating
    between chunks; sorted per-segment emissions per cursor."""
    segments = [[] for _ in cursors]
    marks = [0 for _ in cursors]

    def snapshot():
        for index, cursor in enumerate(cursors):
            elements = cursor._handle.sink.elements
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
            session.push_many("Readings", chunk_rows, chunk_stamps)
        else:
            for row, stamp in zip(chunk_rows, chunk_stamps):
                session.push("Readings", row, stamp)
        offset += size
        session.punctuate(chunk_stamps[-1])
        snapshot()
    session.punctuate(stamps[-1] + 200.0)
    snapshot()
    return segments


def _run(queries, rows, stamps, seed, *, share: bool, shards: int = 1):
    session = _open_session(share=share, shards=shards)
    cursors = [session.query(sql) for sql in queries]
    segments = _drive(session, cursors, rows, stamps, random.Random(seed * 31 + 7))
    stats = session.stats()
    session.close()
    return segments, stats


#: One filter literal, five consumers: two projections, a
#: conjunct-extended filter, a DISTINCT and a grouped aggregate over it.
STAGGER_POOL = [
    "select r.host, r.temp from Readings r where r.temp > {t0}",
    "select r.host, r.temp * 2.0 as t2 from Readings r where r.temp > {t0}",
    "select r.host, r.load from Readings r where r.temp > {t0} and r.load > {l0}",
    "select distinct r.host, r.room from Readings r where r.temp > {t0}",
    "select r.room, count(*) as n from Readings r where r.temp > {t0} group by r.room",
]


def _run_staggered(seed, *, share: bool, shards: int = 1):
    """Open and close cursors from ``STAGGER_POOL`` between seeded
    chunks (``push`` or ``push_many``); per cursor, in admission order,
    its sorted per-punctuation segments of ``(timestamp, values,
    names)``. The schedule is a function of the seed alone."""
    rng = random.Random(7000 + seed)
    pool = [_fill(template, random.Random(seed)) for template in STAGGER_POOL]
    rows, stamps = _rows(rng.randint(150, 260), rng)
    session = _open_session(share=share, shards=shards)
    cursors, live, segments, marks = [], [], [], []

    def snapshot():
        for index, cursor in enumerate(cursors):
            elements = cursor._handle.sink.elements
            fresh, marks[index] = elements[marks[index]:], len(elements)
            segments[index].append(
                sorted(
                    (e.timestamp, repr(e.row.values), tuple(e.row.schema.names))
                    for e in fresh
                )
            )

    def admit(sql):
        cursor = session.query(sql)
        cursors.append(cursor)
        live.append(cursor)
        segments.append([])
        marks.append(0)

    offset = 0
    while offset < len(rows):
        if len(cursors) < 2:
            # One tenant alone, then a second projection over its
            # filter: every seed splits a warm chain at least once.
            admit(pool[len(cursors)])
        else:
            for _ in range(rng.randint(0, 2)):
                if live and rng.random() < 0.4:
                    live.pop(rng.randrange(len(live))).close()
                else:
                    admit(rng.choice(pool))
        size = rng.randint(5, 40)
        chunk_rows, chunk_stamps = rows[offset : offset + size], stamps[offset : offset + size]
        if rng.random() < 0.5:
            session.push_many("Readings", chunk_rows, chunk_stamps)
        else:
            for row, stamp in zip(chunk_rows, chunk_stamps):
                session.push("Readings", row, stamp)
        offset += size
        session.punctuate(chunk_stamps[-1])
        snapshot()
    session.punctuate(stamps[-1] + 200.0)
    snapshot()
    stats = session.stats()
    session.close()
    return segments, stats


class TestSharedIdentityCorpus:
    """Sharing must be invisible in every cursor's emissions — same
    rows, same timestamps, same punctuation segments as fully private
    pipelines, at every shard count."""

    @pytest.mark.parametrize("seed", range(SEEDS))
    def test_identity_corpus(self, seed):
        rng = random.Random(seed)
        queries = _corpus(rng)
        rows, stamps = _rows(rng.randint(120, 300), rng)
        expected, baseline = _run(queries, rows, stamps, seed, share=False)
        assert baseline["sharing"]["chains"] == 0  # share_plans=False is private
        assert baseline["compile"]["fallbacks"] == 0
        for shards in (1, 2, 4):
            got, stats = _run(queries, rows, stamps, seed, share=True, shards=shards)
            assert got == expected, (
                f"seed={seed} shards={shards}: emissions diverged under sharing"
            )
            # The duplicated statements really were multiplexed. (Tee
            # fan-out counts distinct consumers: duplicates read one log.)
            assert stats["sharing"]["attached"] > 0
            # Every plan of the corpus runs generated code on every shard.
            assert stats["compile"]["generated"] > 0
            assert stats["compile"]["fallbacks"] == 0

    @pytest.mark.parametrize("seed", range(SEEDS))
    def test_staggered_admission(self, seed):
        """Cursors open and close *between* chunks, so chains are
        attached to, split and released warm; every cursor — values,
        timestamps and field names — reads as it does on private
        pipelines under the same schedule."""
        expected, _ = _run_staggered(seed, share=False)
        assert any(segment for cursor in expected for segment in cursor)  # not vacuous
        for shards in (1, 2):
            got, stats = _run_staggered(seed, share=True, shards=shards)
            assert got == expected, f"seed={seed} shards={shards}"
            assert stats["sharing"]["attached"] > 0
            assert stats["compile"]["fallbacks"] == 0

    def test_table_join_is_declined_but_correct(self):
        session = _open_session(share=True)
        sql = (
            "select r.host, m.cpu from Readings r [range 30 seconds], Machines m "
            "where r.host = m.name and r.temp > 10.0"
        )
        c1 = session.query(sql)
        c2 = session.query(sql)
        session.push("Readings", {"room": "lab1", "host": "ws3", "temp": 20.0, "load": 0.5}, 1.0)
        session.punctuate(5.0)
        assert [r.values for r in c1.results()] == [r.values for r in c2.results()]
        assert len(c1.results()) == 1
        # Table scans cannot be shared (late tee attachment cannot
        # reproduce execute-time table replay): both admissions declined.
        assert session.stats()["sharing"]["declined"] == 2
        assert session.stats()["sharing"]["chains"] == 0
        session.close()


class TestSharedCursorLifecycle:
    SQL = "select r.host, r.temp from Readings r where r.temp > 20.0"

    def _push(self, session, temp: float, stamp: float):
        session.push(
            "Readings", {"room": "lab1", "host": "ws1", "temp": temp, "load": 0.5}, stamp
        )

    def test_interleaved_close_is_idempotent(self):
        session = _open_session(share=True)
        registry = session.engine.subplans
        c1 = session.query(self.SQL)
        c2 = session.query(self.SQL)
        c3 = session.query(self.SQL)
        # Three views of one log: one tee branch, three references.
        (chain,) = registry.live_chains
        assert (chain.tee.fan_out, chain.refs, chain.views) == (1, 3, 3)
        self._push(session, 25.0, 1.0)
        assert [len(c.results()) for c in (c1, c2, c3)] == [1, 1, 1]

        c1.close()
        c1.close()  # idempotent: the chain ref is released exactly once
        self._push(session, 30.0, 2.0)
        assert len(c1.results()) == 1  # frozen at close
        assert len(c2.results()) == 2 and len(c3.results()) == 2

        c2.close()
        self._push(session, 35.0, 3.0)
        assert len(c3.results()) == 3  # last subscriber still live
        c3.close()
        stats = registry.stats()
        assert stats["chains"] == 0 and stats["fan_out"] == 0
        assert stats["detached"] == stats["created"] + stats["attached"]
        session.close()
        c3.close()  # close after session close stays a no-op

    def test_session_close_releases_remaining_references(self):
        session = _open_session(share=True)
        registry = session.engine.subplans
        c1 = session.query(self.SQL)
        session.query(self.SQL)  # left open: Session.close must release it
        c1.close()
        session.close()
        stats = registry.stats()
        assert stats["chains"] == 0 and stats["fan_out"] == 0
        assert stats["detached"] == stats["created"] + stats["attached"]
        c1.close()  # still a no-op after everything is gone

    def test_prepared_executions_share_one_chain(self):
        session = _open_session(share=True)
        prepared = session.prepare(
            "select r.host, r.temp from Readings r where r.temp > :limit"
        )
        c1 = prepared.execute(limit=20.0)
        c2 = prepared.execute(limit=20.0)  # identical binding: shares
        c3 = prepared.execute(limit=40.0)  # different literal: own chain
        self._push(session, 30.0, 1.0)
        assert len(c1.results()) == 1 and len(c2.results()) == 1
        assert len(c3.results()) == 0
        assert session.stats()["sharing"]["attached"] >= 1
        for cursor in (c1, c2, c3):
            cursor.close()
        session.close()


class TestPlanCache:
    SQL = "select r.host, r.temp from Readings r where r.temp > 20.0"

    def test_normalized_text_hits(self):
        session = _open_session(share=True)
        session.query(self.SQL)
        session.query("SELECT  r.host, r.temp  FROM  readings r  WHERE r.temp > 20.0")
        stats = session.stats()["plan_cache"]
        assert stats["hits"] == 1 and stats["misses"] == 1
        session.prepare(self.SQL)  # prepared statements use the same cache
        assert session.stats()["plan_cache"]["hits"] == 2
        session.close()

    def test_cache_survives_but_reflects_table_updates(self):
        """A batch-routed cached plan re-evaluates current rows: the
        cache memoizes compilation, never results."""
        session = _open_session(share=True)
        sql = "select m.name from Machines m where m.cpu > 5.0"
        first = len(session.query(sql).results())
        session.load("Machines", [{"name": "new1", "room": "lab9", "cpu": 6.5}])
        second = len(session.query(sql).results())
        assert second == first + 1
        # load() refreshed catalog statistics without an epoch bump for
        # the *same* registration; the repeat was still served cached.
        assert session.stats()["plan_cache"]["hits"] >= 1
        session.close()

    def test_create_view_invalidates(self):
        session = _open_session(share=True)
        session.query(self.SQL)
        session.query(self.SQL)
        assert session.stats()["plan_cache"]["hits"] == 1
        epoch = session.stats()["schema_epoch"]
        session.query("create view hot as select r.host from Readings r where r.temp > 50.0")
        assert session.stats()["schema_epoch"] > epoch
        session.query(self.SQL)  # stale entry evicted, recompiled
        stats = session.stats()["plan_cache"]
        assert stats["invalidations"] == 1
        session.close()

    def test_detach_reattach_never_runs_stale_plan(self):
        session = _open_session(share=True)
        cursor = session.query(self.SQL)
        cursor.close()
        session.detach("Readings")
        # Same name, different shape: the old plan reads r.temp which no
        # longer exists — serving the cached plan would silently emit
        # rows of a dead schema.
        session.attach(
            StreamSource(
                "Readings",
                Schema.of(("room", DataType.STRING), ("celsius", DataType.FLOAT)),
                rate=10.0,
            )
        )
        with pytest.raises(QueryError):
            session.query(self.SQL)
        assert session.stats()["plan_cache"]["invalidations"] >= 1
        session.close()

    def test_drop_table_bumps_epoch(self):
        session = _open_session(share=True)
        sql = "select m.name from Machines m where m.cpu > 1.0"
        session.query(sql)
        epoch = session.stats()["schema_epoch"]
        session.engine.drop_table("Machines")
        assert session.catalog.schema_epoch == epoch + 1
        session.query(sql)  # recompiles against the (empty) table
        assert session.stats()["plan_cache"]["invalidations"] == 1
        session.close()

    def test_unshared_session_still_caches(self):
        session = _open_session(share=False)
        c1 = session.query(self.SQL)
        c2 = session.query(self.SQL)
        stats = session.stats()
        assert stats["plan_cache"]["hits"] == 1
        assert stats["sharing"]["chains"] == 0 and stats["sharing"]["created"] == 0
        session.push(
            "Readings", {"room": "lab1", "host": "ws1", "temp": 30.0, "load": 0.1}, 1.0
        )
        assert len(c1.results()) == len(c2.results()) == 1
        session.close()

    def test_capacity_evicts_lru(self):
        cache = PlanCache(capacity=2)
        for key in ("a", "b"):
            cache.store(key, CachedStatement(None, None, None, "stream", (), 0))
        assert cache.lookup("a", 0) is not None  # "b" is now the LRU entry
        cache.store("c", CachedStatement(None, None, None, "stream", (), 0))
        assert len(cache) == 2 and cache.evictions == 1
        assert cache.lookup("b", 0) is None
        assert cache.lookup("a", 0) is not None and cache.lookup("c", 0) is not None
        # A session's cache holds PlanCache.CAPACITY statements: one
        # distinct statement more evicts exactly one.
        session = connect()
        session.attach(StreamSource("Readings", READINGS, rate=10.0))
        for threshold in range(PlanCache.CAPACITY + 1):
            session.query(
                f"select r.host from Readings r where r.temp > {threshold}.5"
            ).close()
        stats = session.stats()["plan_cache"]
        assert stats["size"] == PlanCache.CAPACITY and stats["evictions"] == 1
        session.close()


class TestStats:
    def test_stats_shape_and_sharded_aggregation(self):
        sql = "select r.host, r.temp from Readings r where r.temp > 20.0"

        def run(shards):
            session = _open_session(share=True, shards=shards)
            cursors = [session.query(sql), session.query(sql)]
            stats = session.stats()
            for cursor in cursors:
                cursor.close()
            emptied = session.stats()["sharing"]
            session.close()
            return stats, emptied

        single, _ = run(1)
        sharded, emptied = run(2)
        assert set(single) == {
            "plan_cache", "sharing", "compile", "analysis", "schema_epoch",
        }
        # A sharded session adds the pool's own counters, nothing else.
        assert set(sharded) == set(single) | {"pool"}
        # A sensor-capable one adds its deployments' radio records.
        network = SensorNetwork(Simulator(1))
        network.add_basestation(Position(0.0, 0.0))
        with connect(network=network, simulator=network.simulator) as session:
            sensing = session.stats()
        assert set(sensing) == set(single) | {"sensor"}
        assert sensing["sensor"] == {"records_sent": 0, "records_lost": 0}
        assert set(sharded["pool"]["exchange"]) == {
            "queries", "rows_deposited", "rows_delivered", "runs_delivered",
            "barrier_rounds",
        }
        assert set(sharded["sharing"]) == {
            "chains", "fan_out", "created", "attached",
            "detached", "torn_down", "declined",
        }
        assert single["sharing"]["attached"] > 0
        # Partition-parallel replicas: every shard engine hosts the same
        # chain structure, and stats() sums them.
        for key in ("chains", "created", "attached"):
            assert sharded["sharing"][key] == 2 * single["sharing"][key]
        # On one engine both cursors read the chain's one log; a shard's
        # replicas feed the pool's merge sinks, one tee branch each.
        assert single["sharing"]["fan_out"] == 1
        assert sharded["sharing"]["fan_out"] == 2 * 2
        # One shared chain per engine: its filter compiles once however
        # many queries attach, and nothing fell back to the interpreter.
        # The shards' chains share the kernels one admission generated,
        # the stream's ingest loop included: the shards ingest through
        # the pool's.
        assert single["compile"]["generated"] > 0
        assert sharded["compile"]["generated"] == single["compile"]["generated"]
        assert single["compile"]["fallbacks"] == sharded["compile"]["fallbacks"] == 0
        assert emptied["chains"] == 0 and emptied["fan_out"] == 0

    def test_stats_raises_after_close(self):
        session = connect()
        session.close()
        with pytest.raises(Exception):
            session.stats()


# ----------------------------------------------------------------------
# A row keeps the schema it was built with: no shim, right labels on
# every path, a counted budget
# ----------------------------------------------------------------------
def _ledger():
    """The ledger's deployments, so the budget below is counted on what
    the benchmark times: generator, 7 standing texts, 20 tenant
    templates, tenant count."""
    from benchmarks.ledger import gen
    from benchmarks.ledger.workloads import STANDING7, TENANT_TEMPLATES, TENANTS

    return gen, STANDING7, TENANT_TEMPLATES, TENANTS


def _ledger_rows(count: int):
    gen = _ledger()[0]
    values, stamps = gen.readings(7, count)
    return [dict(zip(READINGS.names, row)) for row in values], stamps


def _count_calls(monkeypatch, owners, name: str) -> list[int]:
    """A one-slot counter of calls to method ``name`` of every class in
    ``owners`` that defines it, live until ``monkeypatch.undo()``."""
    calls = [0]
    for owner in owners:
        if name not in owner.__dict__:
            continue

        def counting(self, *args, _method=owner.__dict__[name], **kwargs):
            calls[0] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


def _count_relabels(monkeypatch) -> list[int]:
    """A one-slot counter of ``Row.with_schema`` calls."""
    return _count_calls(monkeypatch, [Row], "with_schema")


def _labels_in(engine):
    """Every exit label in ``engine``: after an operator or at a port of
    a private pipeline or a shared chain, or on a chain's tee."""
    chains = engine.subplans.live_chains
    pipelines = [h.compiled for h in engine.running_queries]
    pipelines += [chain.compiled for chain in chains]
    consumers = [op.downstream for p in pipelines for op in p.operators]
    consumers += [port.consumer for p in pipelines for port in p.ports]
    consumers += [branch for chain in chains for branch in chain.tee.branches]
    return [c for c in consumers if isinstance(c, _ReschemaConsumer)]


class TestNoShimAtTheTee:
    @pytest.mark.parametrize("share", [True, False], ids=["shared", "private"])
    def test_no_label_on_a_sql_deployment(self, share):
        """The front end tops every SELECT with a Project, so no SQL
        query of the ledger's deployments is labelled on the way out; a
        hand-built bare filter is, exactly once."""
        _, standing7, templates, _ = _ledger()
        session = _open_session(share=share)
        for sql in (*standing7, *templates):
            session.query(sql)
        assert _labels_in(session.engine) == []
        select = PlanBuilder(session.catalog).build_sql(TestSharedLabels.FILTER).child
        session.engine.execute(select)
        assert len(_labels_in(session.engine)) == 1
        session.close()

    def test_branches_are_sinks_and_twins_hold_the_same_elements(self):
        _, standing7, templates, _ = _ledger()
        session = _open_session(share=True)
        for sql in standing7:
            session.query(sql)
        firsts = [session.query(sql) for sql in templates]
        twins = [session.query(sql) for sql in templates]
        assert session.engine.subplans.live_chains
        assert _labels_in(session.engine) == []
        rows, stamps = _ledger_rows(600)
        session.push_many("Readings", rows[:300], stamps[:300])
        for row, stamp in zip(rows[300:], stamps[300:]):
            session.push("Readings", row, stamp)
        session.punctuate(stamps[-1] + 100.0)
        for sql, first, twin in zip(templates, firsts, twins):
            ours, theirs = first._handle.sink, twin._handle.sink
            assert ours.rows and len(ours.rows) == len(theirs.rows), sql
            assert all(a is b for a, b in zip(ours.rows, theirs.rows)), sql
            assert ours.elements == theirs.elements, sql
        session.close()

    def test_close_mid_stream_closes_exactly_its_own_view(self):
        """The three cursors read one result log, the chain's one tee
        branch; closing one freezes its view and leaves the log and its
        siblings as they were."""
        sql = "select r.host, r.temp from Readings r where r.temp > 20.0"
        session = _open_session(share=True)
        c1, c2, c3 = (session.query(sql) for _ in range(3))
        (chain,) = session.engine.subplans.live_chains
        log = chain.log
        assert chain.tee.branches == [log]
        assert all(c._handle.sink.log is log for c in (c1, c2, c3))
        row = {"room": "lab1", "host": "ws1", "temp": 30.0, "load": 0.5}
        session.push("Readings", row, 1.0)
        c2.close()
        assert chain.tee.branches == [log] and chain.views == 2
        session.push_many("Readings", [row, row], [2.0, 3.0])
        assert [len(c.results()) for c in (c1, c2, c3)] == [3, 1, 3]
        assert len(log) == 3  # stored once, whatever the reader count
        session.close()


def _labels(elements):
    """Sorted ``(timestamp, values, (name, type, doc) per field)``."""
    return sorted(
        (
            element.timestamp,
            repr(element.row.values),
            tuple((f.name, f.dtype.value, f.doc) for f in element.row.schema),
        )
        for element in elements
    )


def _labelled(handle):
    """:func:`_labels` of every result of ``handle``."""
    return _labels(handle.sink.elements)


class TestSharedLabels:
    """Every result row and every display row carries its plan's schema
    — names, types and docs, what the private run (and the engine
    before rows kept their ingest schema) gives it — on every execution
    path: built under it by the chain (projection, aggregate, join) or a
    source row labelled once, on the way out (a hand-built plan)."""

    FILTER = "select * from Readings r where r.temp > 20.0"
    JOIN = (
        "select * from Readings r [range 5 seconds], Readings q [range 5 seconds] "
        "where r.host = q.host and r.temp > q.temp"
    )
    PROJECT = "select r.host, r.temp * 2.0 as t2 from Readings r where r.temp > 20.0"
    AGGREGATE = (
        "select r.room, count(*) as n, avg(r.temp) as mean from Readings r "
        "[range 10 seconds slide 10 seconds] group by r.room"
    )
    #: A doc on every column, so a label that loses them is caught.
    DOCUMENTED = Schema([Field(f.name, f.dtype, f"the {f.name}") for f in READINGS])
    CONFIGS = {
        "loopback1": {"shards": 1},
        "loopback2": {"shards": 2},
        "framed2": {"shards": 2, "workers": "process"},
    }

    @classmethod
    def _plans(cls, catalog):
        """``(plan, sql)`` pairs. Hand-cut plans (the SQL front end
        always tops a SELECT with a Project; ``sql`` is None): a bare
        filter, then DISTINCT, ORDER BY, LIMIT and OUTPUT TO over it, a
        bare windowed join. Then a projected and an aggregated plan as
        built, admitted by their text so the framed channel ships them."""
        build = PlanBuilder(catalog).build_sql
        select = build(cls.FILTER).child
        hand_cut = [
            select,
            Distinct(select),
            OrderBy(select, [OrderItem(ColumnRef("r.temp"), ascending=False)]),
            Limit(select, 3),
            Output(select, "wall"),
            build(cls.JOIN).child,
        ]
        built = [(build(sql), sql) for sql in (cls.PROJECT, cls.AGGREGATE)]
        return [(plan, None) for plan in hand_cut] + built

    def _open(self, share, **options):
        """A session running every plan twice (the second attaches),
        its handles, and the display rows it delivers."""
        displays = []
        session = connect(
            share_plans=share,
            deliver=lambda _, element: displays.append(element),
            **options,
        )
        session.attach(StreamSource("Readings", self.DOCUMENTED, rate=10.0, partition_by="host"))
        handles = [
            session.engine.execute(plan) if sql is None else session.query(sql)._handle
            for plan, sql in self._plans(session.catalog)
            for _ in range(2)
        ]
        return session, handles, displays

    @staticmethod
    def _feed(session, rows, stamps, batched):
        """Chunks of 60, punctuated after each."""
        for lo in range(0, len(rows), 60):
            chunk_rows, chunk_stamps = rows[lo : lo + 60], stamps[lo : lo + 60]
            if batched:
                session.push_many("Readings", chunk_rows, chunk_stamps)
            else:
                for row, stamp in zip(chunk_rows, chunk_stamps):
                    session.push("Readings", row, stamp)
            session.punctuate(chunk_stamps[-1])

    def _checked(self, handles, displays):
        """Assert every row carries its plan's schema; the sorted labels
        per handle, and of the display rows."""
        for handle in handles:
            elements = handle.sink.elements
            assert all(e.row.schema == handle.plan.schema for e in elements), (
                handle.plan.describe()
            )
        wall = self.DOCUMENTED.qualified("r")
        assert displays and all(e.row.schema == wall for e in displays)
        return [_labelled(handle) for handle in handles], _labels(displays)

    @pytest.mark.parametrize(
        "config",
        [
            "loopback1",
            "loopback2",
            pytest.param(
                "framed2",
                marks=pytest.mark.skipif(
                    usable_start_method() is None, reason="no multiprocessing start method"
                ),
            ),
        ],
    )
    @pytest.mark.parametrize("batched", [False, True], ids=["push", "push_many"])
    def test_labels_equal_private_run(self, batched, config):
        rows, stamps = _ledger_rows(240)
        runs = {}
        for share in (False, True):
            session, handles, displays = self._open(share, **self.CONFIGS[config])
            self._feed(session, rows, stamps, batched)
            session.punctuate(stamps[-1] + 100.0)
            runs[share] = self._checked(handles, displays)
            if share:
                assert session.stats()["sharing"]["attached"] > 0
            session.close()
        assert all(runs[False][0])  # not vacuous: every plan emitted
        assert runs[True] == runs[False]  # displays too: Output never shares

    @pytest.mark.parametrize("share", [False, True], ids=["private", "shared"])
    def test_labels_survive_fail_restore_replay(self, share):
        """A restore re-executes every plan, so the exit labels are
        rebuilt with the pipelines; results equal the failure-free run
        and the replayed display rows are labelled too."""
        rows, stamps = _ledger_rows(240)
        runs = {}
        for fail in (False, True):
            session, handles, displays = self._open(share)
            coordinator = CheckpointCoordinator(session.engine, interval=None)
            self._feed(session, rows[:120], stamps[:120], batched=True)
            coordinator.checkpoint(stamps[119])
            self._feed(session, rows[120:180], stamps[120:180], batched=False)
            if fail:
                session.engine.fail()
                handles = coordinator.recover()
            self._feed(session, rows[180:], stamps[180:], batched=True)
            session.punctuate(stamps[-1] + 100.0)
            runs[fail] = self._checked(handles, displays)[0]
            session.close()
        assert all(runs[False])
        assert runs[True] == runs[False]

    def test_distributed_engine_labels_like_a_private_run(self):
        rows, stamps = _ledger_rows(240)
        session, handles, _ = self._open(share=False)
        self._feed(session, rows, stamps, batched=False)
        session.punctuate(stamps[-1] + 100.0)
        expected = [_labelled(handle) for handle in handles[::2]]
        simulator = Simulator(seed=1)
        engine = DistributedStreamEngine(session.catalog, simulator, ["coord", "w1", "w2"])
        displays = []
        queries = [engine.execute(plan) for plan, _ in self._plans(session.catalog)]
        for query in queries:
            for op in query.compiled.operators:
                if isinstance(op, OutputOp):  # this engine has no display hook
                    op.deliver = lambda _, element: displays.append(element)

        def punctuate(watermark):
            for query in queries:
                query.punctuate(watermark)
            simulator.run_for(1.0)

        for lo in range(0, len(rows), 60):
            for row, stamp in zip(rows[lo : lo + 60], stamps[lo : lo + 60]):
                for query in queries:
                    query.push("Readings", row, stamp)
                simulator.run_for(1.0)  # delivered before the next row
            punctuate(stamps[lo + 59])
        punctuate(stamps[-1] + 100.0)
        assert engine.total_network_elements() > 0  # rows crossed the LAN
        got = self._checked(queries, displays)[0]
        session.close()
        assert all(expected)
        assert got == expected


class TestReattachedSource:
    """A source detached and attached again under the same name with
    another column layout is another scan: a query admitted afterwards
    must not join a chain compiled for the old layout."""

    SQL = "select x.a from S x where x.a > 0"

    def _second_cursor(self, share, first, second, rows):
        session = connect(share_plans=share)
        session.attach(StreamSource("S", first))
        session.query(self.SQL)  # stays open: its chain is live
        session.detach("S")
        session.attach(StreamSource("S", second))
        before = session.stats()["sharing"]
        cursor = session.query(self.SQL)
        after = session.stats()["sharing"]
        session.push_many("S", rows, [2.0] * len(rows))
        session.punctuate(3.0)
        results = [(row.values, row.schema) for row in cursor.results()]
        session.close()
        return results, before, after

    @pytest.mark.parametrize(
        "second, rows",
        [
            (
                Schema.of(("b", DataType.INT), ("a", DataType.INT)),
                [{"a": 5, "b": -1}, {"a": -7, "b": 9}],
            ),
            (
                Schema.of(("a", DataType.FLOAT), ("b", DataType.INT)),
                [{"a": 5.5, "b": -1}, {"a": -7.0, "b": 9}],
            ),
        ],
        ids=["reordered", "retyped"],
    )
    def test_new_layout_builds_its_own_chain(self, second, rows):
        first = Schema.of(("a", DataType.INT), ("b", DataType.INT))
        private, _, _ = self._second_cursor(False, first, second, rows)
        shared, before, after = self._second_cursor(True, first, second, rows)
        assert shared == private and len(shared) == 1
        assert after["created"] > before["created"]
        assert after["attached"] == before["attached"]

    def test_equal_fingerprint_unequal_schema_gets_a_sibling_chain(self):
        """The attach-time check: same names and types (one fingerprint)
        but another ``doc`` is another schema, so a plan whose results
        keep the scan's label gets a sibling chain, never rows under
        the old label."""

        def documented(doc):
            return Schema([Field("a", DataType.INT, doc), Field("b", DataType.INT)])

        def admit(session):
            plan = PlanBuilder(session.catalog).build_sql("select * from S x where x.a > 0")
            return session.engine.execute(plan.child)  # the bare filter

        session = connect()
        session.attach(StreamSource("S", documented("old")))
        admit(session)
        session.detach("S")
        session.attach(StreamSource("S", documented("new")))
        handle = admit(session)
        stats = session.stats()["sharing"]
        assert stats["created"] == 2 and stats["attached"] == 0
        session.push("S", {"a": 5, "b": -1}, 1.0)
        assert [row.schema.fields[0].doc for row in handle.results] == ["new"]
        session.close()


class TestRelabelBudget:
    """No relabel while the ledger's deployments ingest — a count, not a
    timing. The one label left is a hand-built plan's, on the way out,
    and the only hand-built plans there are ``xchg_pool4``'s exchanged
    join sides (each a stage-1 ``Select(Scan)`` replica): their
    survivors are deposited by value, so they leave unlabelled too."""

    UNITS = 1024

    @pytest.mark.parametrize("batched", [True, False], ids=["push_many", "push"])
    @pytest.mark.parametrize(
        "workload", ["one_query", "standing7", "tenants1k", "xchg_pool4"]
    )
    def test_relabels(self, workload, batched, monkeypatch):
        from benchmarks.ledger.workloads import BY_NAME

        spec = BY_NAME[workload]
        feeds = spec.build_input(7, self.UNITS)
        deployment = spec.open(feeds)
        deliver = spec._deliverer(deployment.session, feeds, per_row=not batched)
        relabels = _count_relabels(monkeypatch)
        for lo in range(0, self.UNITS, 256):
            deliver(lo, lo + 256)
        deployment.finish()
        monkeypatch.undo()
        assert sum(len(cursor.results()) for cursor in deployment.cursors) > 0
        deployment.close()
        assert relabels[0] == 0


class TestSinkBudget:
    """Results are stored once per shared chain, not once per tenant —
    a count, not a timing. On the ``tenants1k`` deployment (1,000
    tenants over 20 templates, so 20 whole-plan chains) one
    ``push_many`` step stores into at most one log per chain, and one
    punctuation is appended to at most one list per chain, where every
    tenant's own sink used to take both (≈1,000 each)."""

    UNITS, STEP = 512, 64

    def test_one_store_per_chain_log(self, monkeypatch):
        from benchmarks.ledger.workloads import BY_NAME

        spec = BY_NAME["tenants1k"]
        feeds = spec.build_input(7, self.UNITS)
        rows, stamps = feeds["Readings"]
        deployment = spec.open(feeds)
        session = deployment.session
        logs = sum(chain.log is not None for chain in session.engine.subplans.live_chains)
        assert logs == len(set(spec.queries)) == 20
        stores, appends = [0], [0]
        push_batch, push = CollectingConsumer.push_batch, CollectingConsumer.push

        def counting_batch(sink, rows, stamps, source):
            stores[0] += 1
            push_batch(sink, rows, stamps, source)

        def counting_push(sink, item):
            appends[0] += isinstance(item, Punctuation)
            push(sink, item)

        monkeypatch.setattr(CollectingConsumer, "push_batch", counting_batch)
        monkeypatch.setattr(CollectingConsumer, "push", counting_push)
        most_stores = most_appends = 0
        for lo in range(0, self.UNITS, self.STEP):
            stores[0] = appends[0] = 0
            session.push_many("Readings", rows[lo : lo + self.STEP], stamps[lo : lo + self.STEP])
            most_stores = max(most_stores, stores[0])
            session.punctuate(stamps[lo + self.STEP - 1])
            most_appends = max(most_appends, appends[0])
        monkeypatch.undo()
        assert 0 < most_stores <= logs and 0 < most_appends <= logs
        assert sum(len(cursor) for cursor in deployment.cursors) > 0
        deployment.close()

    def test_a_distinct_chain_is_one_operator(self):
        """On ``standing7`` each DISTINCT chain is its one DistinctOp,
        fed by its route with the run below it inside, and no stateless
        chain has a DistinctOp branch: a duplicate crosses no tee and
        builds no row (the eager cut ran ``FusedOp → tee → DistinctOp``
        three times, 14 chains)."""
        from benchmarks.ledger.workloads import BY_NAME

        spec = BY_NAME["standing7"]
        deployment = spec.open(spec.build_input(7, self.UNITS))
        registry = deployment.session.engine.subplans
        chains = registry.live_chains
        distinct = [c for c in chains if any(isinstance(op, DistinctOp) for op in c.compiled.operators)]
        assert len(distinct) == 3 and len(chains) == 11
        for chain in distinct:
            (op,) = chain.compiled.operators
            assert op.stages and chain.parents == [] and not chain.stateless
            assert [port.consumer for port in chain.compiled.ports] == [op]
        for chain in chains:
            if chain.stateless:
                assert not any(isinstance(branch, DistinctOp) for branch in chain.tee.branches)
        deployment.deliver(0, self.UNITS)
        assert all(len(cursor) for cursor in deployment.cursors)
        deployment.close()


def _plan_classes(cls=LogicalOp):
    yield cls
    for sub in cls.__subclasses__():
        yield from _plan_classes(sub)


def _count_fingerprints(monkeypatch) -> dict[int, list]:
    """``id(node) -> [node, computations]`` for every plan node whose
    fingerprint is computed, live until ``monkeypatch.undo()`` (the node
    is held, so no id is reused meanwhile)."""
    computed: dict[int, list] = {}
    for cls in set(_plan_classes()):
        cached = cls.__dict__.get("fingerprint")
        if not isinstance(cached, cached_property):
            continue

        def counting(node, _func=cached.func):
            computed.setdefault(id(node), [node, 0])[1] += 1
            return _func(node)

        counted = cached_property(counting)
        counted.__set_name__(cls, "fingerprint")
        monkeypatch.setattr(cls, "fingerprint", counted)
    return computed


def _ledger_session():
    session = connect()
    session.attach(StreamSource("Readings", _ledger()[0].READINGS, rate=100.0))
    return session


def _expression_classes():
    from repro.sql import expressions

    return [
        cls
        for cls in vars(expressions).values()
        if isinstance(cls, type) and issubclass(cls, expressions.Expr)
    ]


def _nodes(plan):
    """Every node of ``plan``, its SharedFeed leaves included (``walk``
    steps through them into the subtree they stand for)."""
    yield plan
    for child in plan.children:
        yield from _nodes(child)


class TestAdmissionBudget:
    """A warm admission is a lookup — a count, not a timing. On a fresh
    ``tenants1k`` deployment (1,000 tenants over 20 templates) the 980
    plan-cache hits walk no plan node, render no expression and compare
    no two schemas field by field: the cached plan carries its
    fingerprint and sharing verdict from its template's first admission
    (≈3,100 visits and ≈11,200 renders when both were derived per
    admission), and a chain is matched on the schema of the node it was
    planned from, which the hit returns by identity (343 field-by-field
    comparisons against the compiled root's rebuilt schema). Over a
    whole admission a node computes its fingerprint at most once, shared
    sub-chains included."""

    def test_warm_admissions_walk_and_render_nothing(self, monkeypatch):
        _, _, templates, tenants = _ledger()
        queries = [templates[i % len(templates)] for i in range(tenants)]
        session = _ledger_session()
        for sql in queries[: len(templates)]:
            session.query(sql)
        walks = _count_calls(monkeypatch, [LogicalOp], "walk")
        renders = _count_calls(monkeypatch, _expression_classes(), "render")
        compared = [0]

        def counting_eq(schema, other, _eq=Schema.__eq__):
            compared[0] += schema is not other
            return _eq(schema, other)

        monkeypatch.setattr(Schema, "__eq__", counting_eq)
        for sql in queries[len(templates) :]:
            session.query(sql)
        monkeypatch.undo()
        stats = session.stats()
        assert stats["plan_cache"]["hits"] == tenants - len(templates) == 980
        assert stats["sharing"]["attached"] >= 980
        assert (walks[0], renders[0], compared[0]) == (0, 0, 0)
        session.close()

    @pytest.mark.parametrize("workload", ["one_query", "standing7"])
    def test_a_cold_admission_scans_once_and_lowers_each_chain_once(self, workload, monkeypatch):
        """Each text is scanned once — the parse reads the tokens its
        normalization scanned — and malformed text re-raises on every
        call; each operator's Filter/Project chain is lowered once
        however many functions splice it: ``one_query``'s one chain
        feeds its operator's per-element function, its batch loop and
        the engine's fused-ingest loop (three lowerings before chains
        were held)."""
        from repro.sql import compiled, lexer, normalize, parser

        _, standing7, _, _ = _ledger()
        queries = standing7[:1] if workload == "one_query" else standing7
        session = _ledger_session()
        normalize._scanned.cache_clear()
        scans: list[str] = []
        lowerings: dict[int, int] = {}
        splices: dict[int, int] = {}

        def scanning(text):
            scans.append(text)
            return lexer.tokenize(text)

        def lowered(chain, _lowered=compiled.Chain.lowered):
            splices[id(chain)] = splices.get(id(chain), 0) + 1
            if chain._lowered is None and chain.stages:
                lowerings[id(chain)] = lowerings.get(id(chain), 0) + 1
            return _lowered(chain)

        monkeypatch.setattr(parser, "tokenize", scanning)
        monkeypatch.setattr(normalize, "tokenize", scanning)
        monkeypatch.setattr(compiled.Chain, "lowered", lowered)
        emitted = [0]
        raw_emit = compiled._emit_stages

        def emitting(gen, stages, *args):
            emitted[0] += bool(stages)
            return raw_emit(gen, stages, *args)

        monkeypatch.setattr(compiled, "_emit_stages", emitting)
        for sql in queries:
            session.query(sql)
        monkeypatch.undo()
        assert sorted(scans) == sorted(queries)
        assert emitted[0] == len(lowerings) and set(lowerings.values()) == {1}
        # Text that does not scan, or scans and does not parse, fails on
        # every call: a failed scan is not memoized, and a failed parse
        # leaves no tokens behind for the next call to trust.
        for malformed in ("select r.host from Readings r where r.room = 'lab", "select from"):
            for _ in range(2):
                with pytest.raises(QueryError):
                    session.query(malformed)
        if workload == "one_query":
            (op,) = [op for chain in session.engine.subplans.live_chains for op in chain.compiled.operators]
            assert list(lowerings) == [id(op.chain)] and splices[id(op.chain)] == 3
            assert session.engine._fused_ingest["readings"][1] is op
        session.close()

    @pytest.mark.parametrize("workload", ["standing7", "tenants1k"])
    def test_a_chain_emits_its_subtrees_schema(self, workload):
        """``_live`` matches a consumer on the schema of the subtree a
        chain was planned from; the chain builds its rows under its
        compiled root's schema. The two are equal on every chain."""
        _, standing7, templates, tenants = _ledger()
        queries = (
            standing7
            if workload == "standing7"
            else [templates[i % len(templates)] for i in range(tenants)]
        )
        session = _ledger_session()
        for sql in queries:
            session.query(sql)
        chains = session.engine.subplans.live_chains
        assert chains
        assert all(chain.subtree.schema == chain.plan.schema for chain in chains)
        assert any(chain.subtree is not chain.plan for chain in chains)  # some were rewritten
        session.close()

    @pytest.mark.parametrize("workload", ["standing7", "tenants1k"])
    def test_each_fingerprint_computed_once(self, workload, monkeypatch):
        _, standing7, templates, tenants = _ledger()
        queries = (
            standing7
            if workload == "standing7"
            else [templates[i % len(templates)] for i in range(tenants)]
        )
        session = _ledger_session()
        computed = _count_fingerprints(monkeypatch)
        for sql in queries:
            session.query(sql)
        monkeypatch.undo()
        assert computed and max(count for _, count in computed.values()) == 1
        session.close()


class TestCachedPlanValues:
    """The values a plan node caches are sound: nodes are write-once
    (RA908), so a value computed once describes its subtree for good."""

    SQL = "select r.host, r.temp from Readings r where r.temp > 20.0"
    STATEFUL = (
        "select r.room, count(*) as n from Readings r "
        "[range 10 seconds slide 10 seconds] where r.temp > 20.0 group by r.room"
    )

    def test_shared_feed_keys_as_its_subtree(self):
        session = _open_session(share=True)
        session.query(self.STATEFUL)
        feeds = [
            node
            for chain in session.engine.subplans.live_chains
            for node in _nodes(chain.plan)
            if isinstance(node, SharedFeed)
        ]
        assert feeds
        rebuilt = {type(node): node for node in session.plan(self.STATEFUL).walk()}
        for feed in feeds:
            assert feed.fingerprint is feed.wrapped.fingerprint is not None
            assert feed.fingerprint == rebuilt[type(feed.wrapped)].fingerprint
        session.close()

    @pytest.mark.parametrize("leaf", ["remote", "exchange", "cte"])
    def test_a_never_shared_leaf_unkeys_every_ancestor(self, leaf):
        catalog = Catalog()
        catalog.register_stream("Readings", READINGS, rate=10.0)
        build = PlanBuilder(catalog).build_sql
        scan = build(self.SQL).child.child
        predicate = build("select q.host from Readings q where q.temp > 20.0").child.predicate
        schema = READINGS.qualified("q")
        never = {
            "remote": lambda: RemoteSource("remote_1", schema),
            "exchange": lambda: ExchangeSource("#x1:0", schema, WindowSpec.unbounded()),
            "cte": lambda: CteRef("c", "q", READINGS),
        }[leaf]()
        assert isinstance(scan, Scan) and scan.fingerprint is not None
        ancestors = [never]
        ancestors.append(Select(ancestors[-1], predicate))
        ancestors.append(Join(scan, ancestors[-1]))
        ancestors.append(Project(ancestors[-1], [ProjectItem(ColumnRef("q.host"), "host")]))
        ancestors.append(Distinct(ancestors[-1]))
        ancestors.append(OrderBy(ancestors[-1], [OrderItem(ColumnRef("host"))]))
        ancestors.append(Limit(ancestors[-1], 5))
        ancestors.append(Output(ancestors[-1], "display"))
        assert [node.fingerprint for node in ancestors] == [None] * len(ancestors)
        assert not ancestors[-2].sharing[0]

    @pytest.mark.parametrize(
        "sql, code",
        [
            (SQL, "RA400"),
            (
                "select r.host, m.room from Readings r [range 30 seconds], Machines m "
                "where r.host = m.name and r.temp > 20.0",
                "RA404",
            ),
        ],
        ids=["shared", "declined"],
    )
    def test_explain_reports_the_verdict_admission_acted_on(self, sql, code):
        session = _open_session(share=True)
        session.query(sql)
        cursor = session.query(sql)  # a plan-cache hit
        assert session.stats()["plan_cache"]["hits"] == 1
        registry = session.engine.subplans
        plan = cursor._handle.plan
        shareable, acted, reason = plan.sharing
        assert acted == code and cursor._handle.shared == shareable
        if not shareable:
            assert registry.last_decline == (acted, reason)
        explained = [
            d.code for d in session.explain(sql).diagnostics if d.code.startswith("RA4")
        ]
        assert explained == [acted]
        session.close()

    def test_readmitted_after_teardown_builds_a_new_chain(self):
        rows, stamps = _rows(200, random.Random(3))

        def run(session, cursor):
            session.push_many("Readings", rows, stamps)
            session.punctuate(stamps[-1])
            return sorted(row.values for row in cursor.results())

        private = _open_session(share=False)
        expected = run(private, private.query(self.SQL))
        private.close()

        session = _open_session(share=True)
        registry = session.engine.subplans
        first = session.query(self.SQL)
        (chain,) = registry.live_chains
        plan, fingerprint = first._handle.plan, first._handle.plan.fingerprint
        first.close()
        assert registry.live_chains == []
        again = session.query(self.SQL)
        (rebuilt,) = registry.live_chains
        assert again._handle.plan is plan
        assert again._handle.plan.fingerprint is fingerprint
        assert rebuilt is not chain and rebuilt.chain_id != chain.chain_id
        assert registry.stats()["created"] == 2
        assert run(session, again) == expected
        session.close()


def _fusion_violations(registry):
    """Unshared cuts: a stateless chain whose tee feeds exactly one
    branch, that branch being the operator of another stateless chain —
    two generated loops and a tee hop where one loop would do."""
    return [
        (parent.chain_id, chain.chain_id)
        for chain in registry.live_chains
        if chain.stateless
        for parent, _ in chain.parents
        if parent.stateless and parent.tee.fan_out == 1
    ]


class TestFusionBudget:
    """No unshared stateless cut on the deployments the ledger times —
    a count, not a timing: a Select/Project prefix with one consumer is
    lowered inside that consumer, so ``one_query`` is one generated loop
    over source rows as they arrive."""

    @pytest.mark.parametrize(
        "deployment, chains, fan_out",
        # tenants1k: 20 whole-plan chains, each with one log whatever its
        # 50 tenants (not 1,000 sink branches), plus the 8 operator
        # branches of its cut chains. A DISTINCT's run is never cut (it
        # lowers inside the DistinctOp): standing7 read 14 and tenants1k
        # 30 while each DISTINCT fed from a cut of fan-out 1.
        [("one_query", 1, 1), ("standing7", 11, 11), ("tenants1k", 28, 28)],
    )
    def test_no_unshared_stateless_cut(self, deployment, chains, fan_out):
        _, standing7, templates, tenants = _ledger()
        queries = {
            "one_query": standing7[:1],
            "standing7": standing7,
            "tenants1k": [templates[i % len(templates)] for i in range(tenants)],
        }[deployment]
        session = _open_session(share=True)
        for sql in queries:
            session.query(sql)
        registry = session.engine.subplans
        assert _fusion_violations(registry) == []
        stats = registry.stats()
        assert (stats["chains"], stats["fan_out"]) == (chains, fan_out)
        session.close()

    @pytest.mark.parametrize("batched", [True, False], ids=["push_many", "push"])
    def test_one_query_is_one_loop_over_source_rows(self, batched, monkeypatch):
        _, standing7, _, _ = _ledger()
        session = _open_session(share=True)
        cursor = session.query(standing7[0])
        (chain,) = session.engine.subplans.live_chains
        (fused,) = chain.compiled.operators
        assert type(fused).__name__ == "FusedOp"
        reschemas = 0
        push_batch = _ReschemaConsumer.push_batch

        def counting(shim, elements):
            nonlocal reschemas
            reschemas += 1
            push_batch(shim, elements)

        monkeypatch.setattr(_ReschemaConsumer, "push_batch", counting)
        rows, stamps = _ledger_rows(2048)
        rows = [Row(READINGS, tuple(row.values()), validate=False) for row in rows]
        relabels = _count_relabels(monkeypatch)
        for lo in range(0, len(rows), 256):
            if batched:
                session.push_many("Readings", rows[lo : lo + 256], stamps[lo : lo + 256])
            else:
                for row, stamp in zip(rows[lo : lo + 256], stamps[lo : lo + 256]):
                    session.push("Readings", row, stamp)
            session.punctuate(stamps[lo + 255])
        monkeypatch.undo()
        assert fused.rows_in == len(rows)
        assert fused.rows_out == len(cursor.results()) > 0
        assert reschemas == 0 and relabels == [0]
        session.close()


# ----------------------------------------------------------------------
# A cut is made where it is shared: the split, its lifecycle, callbacks
# ----------------------------------------------------------------------
def _dag(registry):
    """The chain DAG, order-free: per chain its operators, fan-out,
    references and the operator lists of the chains it feeds from."""
    return sorted(
        (
            [type(op).__name__ for op in chain.compiled.operators],
            chain.tee.fan_out,
            chain.refs,
            sorted(
                [type(op).__name__ for op in parent.compiled.operators]
                for parent, _ in chain.parents
            ),
        )
        for chain in registry.live_chains
    )


_HOT = {"room": "lab1", "host": "ws1", "temp": 30.0, "load": 0.5}


class TestSplitLifecycle:
    """One tenant runs one fused chain; the prefix becomes a chain of
    its own when a second distinct consumer asks, and from then on the
    DAG and the counters are the ones the eager cut used to build for
    the same admission sequence (numbers below are copied from a run of
    that sequence at the commit before the lazy cut, except that a tee
    now counts one branch for a chain's result log however many
    tenants read it)."""

    A = "select r.host, r.temp from Readings r where r.temp > 20.0"
    B = "select r.host, r.temp * 2.0 as t2 from Readings r where r.temp > 20.0"
    D = "select distinct r.host, r.room from Readings r where r.temp > 20.0"
    G = "select r.room, count(*) as n from Readings r where r.temp > 20.0 group by r.room"
    COUNTERS = ("chains", "fan_out", "created", "attached", "detached", "torn_down")

    def _admit_warm(self, session, sequence):
        cursors, stamp = [], 0.0
        for sql in sequence:
            cursors.append(session.query(sql))
            stamp += 1.0
            session.push("Readings", _HOT, stamp)
            session.push_many("Readings", [_HOT, _HOT], [stamp + 0.1, stamp + 0.2])
        return cursors

    def _counters(self, session):
        stats = session.engine.subplans.stats()
        return tuple(stats[key] for key in self.COUNTERS)

    def test_one_tenant_is_one_fused_chain_on_source_rows(self, monkeypatch):
        session = _open_session(share=True)
        relabels = _count_relabels(monkeypatch)
        self._admit_warm(session, [self.A, self.A])
        monkeypatch.undo()
        registry = session.engine.subplans
        # Two views of one log: one tee branch, two references.
        assert _dag(registry) == [(["FusedOp"], 1, 2, [])]
        (route,) = session.engine._routes["readings"]
        assert route.query_id == registry.live_chains[0].chain_id
        assert relabels == [0]  # source rows as they are
        assert list(registry._inliners) == registry.live_chains[0].inlined != []
        session.close()

    def test_second_distinct_consumer_splits_warm(self, monkeypatch):
        session = _open_session(share=True)
        relabels = _count_relabels(monkeypatch)
        first, second = self._admit_warm(session, [self.A, self.B])
        monkeypatch.undo()
        registry = session.engine.subplans
        assert _dag(registry) == [
            (["FilterOp"], 2, 2, []),
            (["ProjectOp"], 1, 1, [["FilterOp"]]),
            (["ProjectOp"], 1, 1, [["FilterOp"]]),
        ]
        assert self._counters(session) == (3, 4, 3, 1, 0, 0)
        assert registry._inliners == {}
        # The first tenant never noticed: 3 rows before the split, 3 after.
        assert len(first.results()) == 6 and len(second.results()) == 3
        # The filter-only chain forwards source rows as they are too.
        assert len(session.engine._routes["readings"]) == 1 and relabels == [0]
        session.close()

    def test_a_distinct_takes_its_run_and_splits_nothing(self, monkeypatch):
        """The run below a DISTINCT lowers inside its DistinctOp, so it
        is nobody's second consumer: A stays one fused chain with its
        prefix inlined. (The eager cut read four chains here: the
        DISTINCT over a ProjectOp chain over a FilterOp chain, and A
        split onto the filter.)"""
        session = _open_session(share=True)
        relabels = _count_relabels(monkeypatch)
        first, distinct = self._admit_warm(session, [self.A, self.D])
        monkeypatch.undo()
        registry = session.engine.subplans
        assert _dag(registry) == [(["DistinctOp"], 1, 1, []), (["FusedOp"], 1, 1, [])]
        assert self._counters(session) == (2, 2, 2, 0, 0, 0)
        (fused,) = [chain for chain in registry.live_chains if chain.stateless]
        assert list(registry._inliners) == fused.inlined != []
        (op,) = [chain for chain in registry.live_chains if not chain.stateless][0].compiled.operators
        assert [stage[0] for stage in op.stages] == ["filter", "project"]
        assert len(first.results()) == 6 and len(distinct.results()) == 1
        assert len(session.engine._routes["readings"]) == 2 and relabels == [0]
        session.close()

    @pytest.mark.parametrize(
        "sequence, dag, counters",
        [
            (
                ["A", "G"],
                [
                    (["AggregateOp"], 1, 1, [["FilterOp"]]),
                    (["FilterOp"], 2, 2, []),
                    (["ProjectOp"], 1, 1, [["AggregateOp"]]),
                    (["ProjectOp"], 1, 1, [["FilterOp"]]),
                ],
                (4, 5, 4, 1, 0, 0),
            ),
            (
                ["A", "A", "B", "D", "G"],
                [
                    (["AggregateOp"], 1, 1, [["FilterOp"]]),
                    # D's run lowers inside it (the eager cut read a
                    # DistinctOp over a ProjectOp chain over the filter:
                    # 7 chains, fan-out 10, 7 created, 4 attached).
                    (["DistinctOp"], 1, 1, []),
                    (["FilterOp"], 3, 3, []),
                    (["ProjectOp"], 1, 1, [["AggregateOp"]]),
                    (["ProjectOp"], 1, 1, [["FilterOp"]]),
                    # A's two tenants: two views of one log, one branch.
                    (["ProjectOp"], 1, 2, [["FilterOp"]]),
                ],
                (6, 8, 6, 3, 0, 0),
            ),
        ],
        ids=["aggregate", "all"],
    )
    def test_stateful_consumers_split_too_and_never_inline(self, sequence, dag, counters):
        session = _open_session(share=True)
        self._admit_warm(session, [getattr(self, name) for name in sequence])
        registry = session.engine.subplans
        assert _dag(registry) == dag
        assert self._counters(session) == counters
        assert all(chain.stateless or not chain.inlined for chain in registry.live_chains)
        assert registry._inliners == {}
        session.close()

    def test_no_merge_back_until_the_last_reference_drops(self):
        session = _open_session(share=True)
        first, second = self._admit_warm(session, [self.A, self.B])
        registry = session.engine.subplans
        second.close()
        assert _dag(registry) == [
            (["FilterOp"], 1, 1, []),
            (["ProjectOp"], 1, 1, [["FilterOp"]]),
        ]
        session.push("Readings", _HOT, 9.0)
        assert len(first.results()) == 7
        # The same template again attaches to what is there.
        third = session.query(self.B)
        assert registry.stats()["chains"] == 3
        for cursor in (first, third):
            cursor.close()
        assert registry.stats()["chains"] == 0
        session.close()

    def test_a_deeper_prefix_is_inlined_by_the_new_chain(self):
        """Project(Select(Select(Scan))) alone inlines both prefixes; a
        second consumer of the upper Select makes *that* a chain, which
        in turn inlines the lower Select — it is its only consumer."""
        session = _open_session(share=True)
        build = PlanBuilder(session.catalog).build_sql
        inner = build("select * from Readings r where r.temp > 20.0").child
        upper = Select(inner, build("select * from Readings r where r.load < 0.9").child.predicate)
        items = build(self.A).items
        engine = session.engine
        registry = engine.subplans
        whole = engine.execute(Project(upper, items))
        assert _dag(registry) == [(["FusedOp"], 1, 1, [])]
        assert len(registry._inliners) == 2
        # A DISTINCT over the upper Select takes the run into its own
        # operator: nobody's second consumer, so nothing splits (the
        # eager cut made the upper Select a chain here).
        other = engine.execute(Distinct(upper))
        assert _dag(registry) == [(["DistinctOp"], 1, 1, []), (["FusedOp"], 1, 1, [])]
        assert len(registry._inliners) == 2
        # A second projection of the upper Select is: it becomes a chain.
        twin = engine.execute(Project(upper, build(self.B).items))
        assert _dag(registry) == [
            (["DistinctOp"], 1, 1, []),
            (["FusedOp"], 2, 2, []),  # Select over Select, filter-only
            (["ProjectOp"], 1, 1, [["FusedOp"]]),
            (["ProjectOp"], 1, 1, [["FusedOp"]]),
        ]
        assert list(registry._inliners) == [inner.fingerprint]
        session.push_many("Readings", [_HOT, _HOT], [1.0, 2.0])
        assert len(whole.results) == 2 and len(other.results) == 1 and len(twin.results) == 2
        # Now the lower Select is wanted as well: split again.
        engine.execute(inner)
        assert _dag(registry) == [
            (["DistinctOp"], 1, 1, []),
            (["FilterOp"], 2, 2, []),
            (["FilterOp"], 2, 2, [["FilterOp"]]),
            (["ProjectOp"], 1, 1, [["FilterOp"]]),
            (["ProjectOp"], 1, 1, [["FilterOp"]]),
        ]
        assert registry._inliners == {}
        session.push("Readings", _HOT, 3.0)
        assert len(whole.results) == 3 and len(other.results) == 1 and len(twin.results) == 3
        session.close()

    @pytest.mark.parametrize("seed", range(30))
    def test_any_open_close_schedule_leaves_nothing_behind(self, seed):
        rng = random.Random(seed)
        session = _open_session(share=True)
        engine = session.engine
        registry = engine.subplans
        pool = [self.A, self.B, self.D, self.G]
        opened, stamp = [], 0.0
        for _ in range(rng.randint(6, 14)):
            if opened and rng.random() < 0.4:
                opened.pop(rng.randrange(len(opened))).close()
            else:
                opened.append(session.query(rng.choice(pool)))
            stamp += 1.0
            session.push("Readings", _HOT, stamp)
            assert sorted(registry._inliners) == sorted(
                fingerprint for chain in registry.live_chains for fingerprint in chain.inlined
            )
        rng.shuffle(opened)
        for cursor in opened:
            cursor.close()
        stats = registry.stats()
        assert stats["chains"] == 0 and stats["fan_out"] == 0
        assert stats["detached"] == stats["created"] + stats["attached"]
        assert stats["torn_down"] == stats["created"]
        assert engine._routes == {} and registry._inliners == {}
        session.close()


class TestCursorLifecycleFromACallback:
    """Closing or opening a cursor from inside a subscriber callback —
    while a tee is half way through its branches — reads like private
    pipelines for every cursor that was already there."""

    SQL = TestSplitLifecycle.A

    @staticmethod
    def _feed(session, order):
        if order == "push_many first":
            session.push_many("Readings", [_HOT, _HOT], [1.0, 2.0])
            session.push("Readings", _HOT, 3.0)
        else:
            session.push("Readings", _HOT, 1.0)
            session.push_many("Readings", [_HOT, _HOT], [2.0, 3.0])

    @pytest.mark.parametrize("order", ["push_many first", "push first"])
    def test_closing_itself_starves_no_tee_sibling(self, order):
        counts = {}
        for share in (False, True):
            session = _open_session(share=share)
            c1, c2, c3 = (session.query(self.SQL) for _ in range(3))
            c1.subscribe(lambda *_: c1.close())
            self._feed(session, order)
            counts[share] = [len(c.results()) for c in (c1, c2, c3)]
            session.close()
        assert counts[True] == counts[False]
        assert counts[True][1:] == [3, 3]

    @pytest.mark.parametrize("order", ["push_many first", "push first"])
    @pytest.mark.parametrize("newcomer", ["twin", "split"])
    def test_admitting_from_a_callback_never_doubles_a_row(self, newcomer, order):
        """``twin`` attaches to the tee in flight (appended in place, so
        it reads the run like a private newcomer does); ``split`` makes
        the running chain's prefix a chain: the old pipeline finishes
        its run, which never reaches the new chain."""
        sql = self.SQL if newcomer == "twin" else TestSplitLifecycle.B
        seen = {}
        for share in (False, True):
            session = _open_session(share=share)
            c1, c2 = session.query(self.SQL), session.query(self.SQL)
            late = []
            c1.subscribe(lambda *_: late or late.append(session.query(sql)))
            self._feed(session, order)
            session.push_many("Readings", [_HOT, _HOT], [4.0, 5.0])
            seen[share] = [_labelled(c._handle) for c in (c1, c2)], [
                item for item in _labelled(late[0]._handle) if item[0] > 3.0
            ]
            if share and newcomer == "split":
                assert session.stats()["sharing"]["chains"] == 3
            session.close()
        assert seen[True] == seen[False]
        assert len(seen[True][0][0]) == 5 and len(seen[True][1]) == 2

    @pytest.mark.parametrize("order", ["push_many first", "push first"])
    def test_split_in_flight_below_a_tee_never_doubles_a_row(self, order):
        """The same, one level down: the running chain is fed by a
        tee (the view's chain), so the run in flight would reach the new
        prefix chain through that tee's branch list, not a route. (The
        second consumers are projections: a DISTINCT takes the run below
        it into its own operator and splits nothing.)"""
        seen = {}
        for share in (False, True):
            session = _open_session(share=share)
            session.query(
                "create view hot as select r.host, r.temp, r.load "
                "from Readings r where r.temp > 20.0"
            )
            session.query("select h.host, h.temp * 2.0 as t2 from hot h")
            c1 = session.query("select h.host from hot h where h.load < 0.9")
            if share:
                # The view is a chain (two consumers); c1 runs fused on
                # its tee, inlining the filter over the view.
                # (c1 reads its chain's log through a view, so the chain
                # is found by the log, not by a per-cursor tee branch.)
                (chain,) = [
                    chain
                    for chain in session.engine.subplans.live_chains
                    if c1._handle.sink.log in chain.tee.branches
                ]
                assert chain.parents and chain.inlined
            late = []
            c1.subscribe(
                lambda *_: late
                or late.append(
                    session.query("select h.temp from hot h where h.load < 0.9")
                )
            )
            self._feed(session, order)
            session.push_many("Readings", [_HOT, _HOT], [4.0, 5.0])
            seen[share] = _labelled(c1._handle)
            if share:
                assert not chain.inlined  # split: fed by the filter's chain now
            session.close()
        assert seen[True] == seen[False] and len(seen[True]) == 5


class TestLogViews:
    """One rule per lifecycle event of a view over a chain's result log,
    each pinned against the ``share_plans=False`` arm (private sinks)."""

    SQL = TestSplitLifecycle.A

    @staticmethod
    def _values(cursor):
        return [row.values for row in cursor.results()]

    @pytest.mark.parametrize("order", ["push_many first", "push first"])
    def test_admitted_in_a_callback_starts_with_the_next_run(self, order):
        """A view starts at the log's length at admission; the run in
        flight is already stored, so the newcomer starts with the next
        run. A private newcomer's route is appended to the route list in
        flight, so it reads that run too — the one difference, and it is
        exactly the run in flight."""
        got = {}
        for share in (False, True):
            session = _open_session(share=share)
            c1 = session.query(self.SQL)
            late, mark = [], []

            def admit(*_):
                if not late:
                    late.append(session.query(self.SQL))
                    mark.append(len(c1))

            c1.subscribe(admit)
            TestCursorLifecycleFromACallback._feed(session, order)
            session.push_many("Readings", [_HOT, _HOT], [4.0, 5.0])
            got[share] = self._values(c1), self._values(late[0]), mark[0]
            session.close()
        (everything, private, mark), (shared_all, shared, shared_mark) = got[False], got[True]
        assert everything == shared_all and mark == shared_mark
        assert shared == everything[mark:] and len(shared) == 5 - mark
        assert private == everything  # the run in flight came first

    def test_closing_one_of_fifty_views_leaves_the_log_and_siblings(self):
        got = {}
        for share in (False, True):
            session = _open_session(share=share)
            cursors = [session.query(self.SQL) for _ in range(50)]
            session.push_many("Readings", [_HOT] * 3, [1.0, 2.0, 3.0])
            session.punctuate(3.0)
            cursors[17].close()
            frozen = self._values(cursors[17])
            session.push("Readings", _HOT, 4.0)
            session.push_many("Readings", [_HOT, _HOT], [5.0, 6.0])
            session.punctuate(6.0)
            assert self._values(cursors[17]) == frozen and len(frozen) == 3
            if share:
                (chain,) = session.engine.subplans.live_chains
                assert chain.views == 49 and chain.tee.branches == [chain.log]
                assert cursors[17]._handle.sink.log is chain.log
                assert len(chain.log) == 6
            got[share] = [
                (self._values(c), c._handle.sink.punctuations, c.latest_batch())
                for c in cursors
            ]
            for cursor in cursors:
                cursor.close()
            if share:
                assert session.engine.subplans.stats()["chains"] == 0
            session.close()
        assert got[True] == got[False]

    def test_clearing_one_view_leaves_its_siblings(self):
        got = {}
        for share in (False, True):
            session = _open_session(share=share)
            cursors = [session.query(self.SQL) for _ in range(3)]
            session.push_many("Readings", [_HOT] * 3, [1.0, 2.0, 3.0])
            session.punctuate(2.5)
            cursors[1].latest_batch()
            cursors[1]._handle.sink.clear()
            session.push("Readings", _HOT, 4.0)
            got[share] = [
                (self._values(c), len(c), c._handle.sink.clears, c.latest_batch())
                for c in cursors
            ]
            session.close()
        assert got[True] == got[False]
        assert [entry[1] for entry in got[True]] == [4, 1, 4]
