"""The FederatedBackend: one planner from SQL text to in-network +
stream + sharded execution, plus this PR's satellites.

Covers: ``partition_plan`` fragment/residual boundaries, Session
routing of sensor-touching SELECTs onto the federated backend, the
seeded federated-vs-all-stream identity corpus (mixed sensor+stream
SELECTs through ``FederatedBackend`` and through a forced
``engine="stream"`` run must emit identical per-punctuation rows),
composition with ``connect(shards=N)``, the QueryError funnel and
``Session.close`` stopping in-flight federated executions.

Every corpus template runs; ``REPRO_FED_SEEDS`` (default 6) scales the
literal draws per template.
"""

from __future__ import annotations

import math
import os
import random

import pytest

from conftest import generated, interpreted
from repro.api import (
    FederatedBackend,
    SensorSource,
    StreamSource,
    TableSource,
    connect,
)
from repro.catalog import Catalog, DeviceInfo, EngineLocation
from repro.data import DataType, Schema
from repro.errors import QueryError
from repro.plan.logical import Aggregate, OrderBy, RemoteSource, Scan
from repro.runtime import Simulator
from repro.sensor import (
    JoinPair,
    Mote,
    MoteRole,
    Position,
    SensorNetwork,
    SensorRelation,
    partition_plan,
)
from repro.stream.sharded import ShardedQueryHandle

SEEDS = int(os.environ.get("REPRO_FED_SEEDS", "6"))

TEMPS = Schema.of(("room", DataType.STRING), ("temp", DataType.FLOAT))
LOAD = Schema.of(("room", DataType.STRING), ("load", DataType.FLOAT))
ROOMS = Schema.of(("room", DataType.STRING), ("floor", DataType.INT))


# ----------------------------------------------------------------------
# A small deterministic world: motes in the basestation's reliable disc
# (loss-free links) sampling a pure function of mote id and sim time,
# so a federated run and an all-stream run of the same seed see
# byte-identical sensor data. At the default range every mote is one
# hop from the base; ``radio_range=14.0`` makes a loss-free chain (motes
# 8 ft apart inside an 8.4 ft reliable disc), a tree 4 deep.
# ----------------------------------------------------------------------
def _build_world(
    seed: int,
    motes: int = 4,
    shards: int = 1,
    radio_range: float = 100.0,
    period: float = 5.0,
):
    simulator = Simulator(seed)
    network = SensorNetwork(simulator)
    network.add_basestation(Position(0.0, 0.0))
    for i in range(1, motes + 1):
        mote = Mote(i, Position(i * 8.0, 0.0), MoteRole.ROOM, radio_range=radio_range)
        mote.attach_sensor(
            "temp", lambda i=i, sim=simulator: 12.0 + 3.0 * i + (sim.now * 1.7) % 11.0
        )
        network.add_mote(mote)
    network.rebuild_topology()
    session = connect(network=network, simulator=simulator, shards=shards)
    relation = SensorRelation(
        "RoomTemps",
        TEMPS,
        list(range(1, motes + 1)),
        lambda mote: {
            "room": f"room{mote.mote_id % 3}",
            "temp": round(mote.sample("temp"), 2),
        },
        period=period,
    )
    session.attach(SensorSource(relation))
    session.attach(StreamSource("RoomLoad", LOAD, rate=1.0))
    session.attach(
        TableSource(
            "Rooms",
            ROOMS,
            rows=[{"room": f"room{i}", "floor": i} for i in range(3)],
        )
    )
    return session, simulator


def _drive(session, simulator, cursor, steps: int = 6):
    """Run epochs, interleave deterministic stream pushes, snapshot the
    emissions between consecutive punctuations (sorted)."""
    segments = []
    mark = 0
    for step in range(steps):
        simulator.run_for(5.0)
        for i in range(3):
            session.push(
                "RoomLoad",
                {"room": f"room{i}", "load": round(0.1 * ((step + i) % 7), 2)},
                simulator.now,
            )
        simulator.run_for(1.0)  # drain in-flight radio deliveries
        session.punctuate(simulator.now)
        elements = cursor._handle.sink.elements
        segments.append(
            sorted((round(e.timestamp, 3), repr(e.row.values)) for e in elements[mark:])
        )
        mark = len(elements)
    return segments


#: Mixed sensor+stream SELECTs: the sensor side partitions into
#: filtered/raw collections, the residual (stream joins, windows,
#: ORDER BY / LIMIT) stays on the stream backend.
CORPUS = [
    "select t.room, t.temp, l.load from RoomTemps t, RoomLoad l "
    "where t.room = l.room and t.temp > {x}",
    "select t.temp as celsius, l.load from RoomTemps t, RoomLoad l "
    "where t.room = l.room and t.temp > {x} and l.load < {y}",
    "select t.room, t.temp from RoomTemps t where t.temp > {x}",
    "select t.room, t.temp * 2.0 as double_temp from RoomTemps t "
    "where t.temp > {x} and t.room = 'room1'",
    "select t.room, l.load from RoomTemps t, RoomLoad l "
    "where t.room = l.room order by l.load",
    "select t.room, r.floor, t.temp from RoomTemps t, Rooms r "
    "where t.room = r.room and t.temp > {x}",
]

#: Windowed sensor scans: the fragment feed replacing the sensor scan
#: must keep the window the scan declared, or the residual join buffers
#: it under the 60 s default (both sides windowed; the sensor side only).
WINDOWED = [
    "select t.room, t.temp, l.load from RoomTemps t [RANGE 5 SECONDS], "
    "RoomLoad l [RANGE 5 SECONDS] where t.room = l.room and t.temp > {x}",
    "select t.room, t.temp, l.load from RoomTemps t [RANGE 5 SECONDS], "
    "RoomLoad l where t.room = l.room and t.temp > {x}",
]
CORPUS += WINDOWED

#: Global aggregates over the sensor stream, run on the chain world: the
#: motes ship one epoch record and the residual's own Aggregate finishes
#: it under the query's running, tumbling or sliding semantics. A ROWS
#: window counts readings, which a record does not keep, so that one is
#: collected raw. The world's readings are multiples of 0.5, so float
#: sums are exact in any order and the comparison is exact.
AGGREGATES = [
    ("select count(t.temp) from RoomTemps t", "aggregation"),
    ("select count(t.temp) from RoomTemps t where t.temp > 25.0", "aggregation"),
    ("select count(*) from RoomTemps t", "aggregation"),
    ("select count(*), max(t.temp) from RoomTemps t", "aggregation"),
    ("select sum(t.temp) from RoomTemps t where t.temp > 20.0", "aggregation"),
    ("select sum(t.temp * 2.0) from RoomTemps t", "aggregation"),
    ("select avg(t.temp) from RoomTemps t", "aggregation"),
    (
        "select max(t.temp) from RoomTemps t [RANGE 10 SECONDS SLIDE 10 SECONDS]",
        "aggregation",
    ),
    (
        "select min(t.temp) from RoomTemps t [RANGE 20 SECONDS SLIDE 10 SECONDS]",
        "aggregation",
    ),
    ("select max(t.temp) from RoomTemps t [ROWS 2]", "collection"),
]
CHAIN = {"radio_range": 14.0}


def _run_both(seed: int, sql: str, shards: int = 1, **world):
    """``sql`` federated, then with ``engine="stream"`` forced, on a
    fresh world each: ``(kind, deployment kinds, segments)`` per run."""

    def run(engine):
        session, simulator = _build_world(seed, shards=shards, **world)
        cursor = (
            session.query(sql) if engine is None else session.query(sql, engine=engine)
        )
        segments = _drive(session, simulator, cursor)
        kind = cursor.kind
        plan = cursor.federated_plan
        kinds = [f.deployment.kind for f in plan.pushed] if plan is not None else []
        session.close()
        return kind, kinds, segments

    return run(None), run("stream")


class TestFederatedIdentityCorpus:
    """Federated execution must emit exactly what the all-stream run
    emits, per punctuation segment."""

    @pytest.mark.parametrize("seed", range(SEEDS))
    @pytest.mark.parametrize("template", range(len(CORPUS)))
    def test_identity_corpus(self, template, seed):
        rng = random.Random(seed)
        sql = CORPUS[template].format(
            x=round(rng.uniform(14.0, 24.0), 1), y=round(rng.uniform(0.2, 0.7), 2)
        )
        (fed_kind, fragments, federated), (stream_kind, _, streamed) = _run_both(
            seed, sql
        )
        assert fed_kind == "federated" and fragments
        assert stream_kind == "stream"
        assert federated == streamed, f"seed={seed} sql={sql!r}: emissions diverged"

    @pytest.mark.parametrize(
        "sql,world",
        [
            (CORPUS[1].format(x=18.0, y=0.5), {}),
            (CORPUS[3].format(x=16.0), {}),
            (AGGREGATES[1][0], CHAIN),
            ("select sum(t.temp * 2.0) from RoomTemps t", CHAIN),
        ],
        ids=["filtered_join", "double_temp", "count_where", "sum_double"],
    )
    def test_interpreted_arm(self, sql, world):
        """The motes' and the basestation's evaluators, and the
        residual's, all on the interpreter's fallback: the same
        emissions as generated code."""

        def run(arm):
            session, simulator = _build_world(2, **world)
            with arm():
                cursor = session.query(sql)
            segments = _drive(session, simulator, cursor)
            kind = cursor.kind
            session.close()
            return kind, segments

        kind, reference = run(interpreted)
        assert kind == "federated" and any(reference)
        assert run(generated) == (kind, reference)

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("sql,deployment", AGGREGATES)
    def test_aggregate_corpus(self, sql, deployment, shards):
        (fed_kind, kinds, federated), (_, _, streamed) = _run_both(
            1, sql, shards=shards, **CHAIN
        )
        assert fed_kind == "federated" and kinds == [deployment]
        assert federated == streamed, f"shards={shards} sql={sql!r}: emissions diverged"

    def test_aggregate_on_inexact_readings_agrees_to_rounding(self):
        """On readings that are not dyadic, TAG adds in tree order — each
        epoch's readings first, combined child by child up the tree, then
        epoch by epoch in the residual — while the stream fold adds every
        reading in arrival order. Float addition does not associate, so
        SUM and AVG may differ in the last bits; COUNT, MIN and MAX must
        not differ at all."""
        sql = (
            "select count(t.temp), min(t.temp), max(t.temp), sum(t.temp), "
            "avg(t.temp) from RoomTemps t"
        )

        def run(engine):
            session, simulator = _build_world(1, period=3.0, **CHAIN)
            cursor = session.query(sql, engine=engine)
            _drive(session, simulator, cursor)
            plan = cursor.federated_plan
            kinds = [f.deployment.kind for f in plan.pushed] if plan is not None else []
            rows = [(e.timestamp, e.row.values) for e in cursor._handle.sink.elements]
            session.close()
            return kinds, rows

        kinds, federated = run("federated")
        _, streamed = run("stream")
        assert kinds == ["aggregation"]
        assert len(federated) == len(streamed) > 0
        for (fed_ts, fed), (stream_ts, stream) in zip(federated, streamed):
            assert fed_ts == stream_ts
            assert fed[:3] == stream[:3]
            assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(fed[3:], stream[3:]))

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize(
        "template", WINDOWED, ids=["both_windowed", "sensor_windowed"]
    )
    def test_windowed_sensor_scan_keeps_its_window(self, template, shards):
        sql = template.format(x=20.0)
        (fed_kind, fragments, federated), (_, _, streamed) = _run_both(
            1, sql, shards=shards
        )
        assert fed_kind == "federated" and fragments
        assert federated == streamed, f"shards={shards} sql={sql!r}: emissions diverged"

    @pytest.mark.parametrize("shards", [2, 3])
    def test_federated_composes_with_sharding(self, shards):
        sql = "select t.room, t.temp from RoomTemps t where t.temp > 14.0"

        def run(n):
            session, simulator = _build_world(11, shards=n)
            cursor = session.query(sql)
            segments = _drive(session, simulator, cursor)
            handle = cursor._handle
            kind = cursor.kind
            session.close()
            return kind, handle, segments

        kind, handle, unsharded = run(1)
        assert kind == "federated"
        kind, handle, sharded = run(shards)
        assert kind == "federated"
        # The row-local residue over the fragment feed runs one replica
        # per shard (remote rows round-robin across the pool).
        assert isinstance(handle, ShardedQueryHandle) and handle.partitioned
        assert sharded == unsharded

    def test_sharded_join_residual_exchanges_identically(self):
        sql = (
            "select t.room, t.temp, l.load from RoomTemps t, RoomLoad l "
            "where t.room = l.room and t.temp > 15.0"
        )

        def run(n):
            session, simulator = _build_world(4, shards=n)
            cursor = session.query(sql)
            segments = _drive(session, simulator, cursor)
            handle = cursor._handle
            session.close()
            return handle, segments

        _, unsharded = run(1)
        handle, sharded = run(3)
        # A join over the unkeyed fragment feeds cannot partition in
        # place, but the pool hash-shuffles both sides on the join key
        # (t.room = l.room) and runs it on every shard — same emissions.
        assert isinstance(handle, ShardedQueryHandle) and handle.exchanged
        assert sharded == unsharded


# ----------------------------------------------------------------------
# partition_plan: the reusable fragment/residual boundary
# ----------------------------------------------------------------------
class TestPartitionPlan:
    def test_mixed_plan_splits_at_the_sensor_boundary(self, catalog, line_network, builder):
        plan = builder.build_sql(
            "select sa.room from AreaSensors sa, Person p "
            "where sa.room = p.room and sa.status = 'open'"
        )
        federated = partition_plan(plan, catalog, line_network)
        assert [f.deployment.kind for f in federated.pushed] == ["collection"]
        assert federated.pushed[0].deployment.relations == ["AreaSensors"]
        # The residual scans no sensor source; the fragment arrives as a
        # RemoteSource feed instead.
        for node in federated.stream_plan.walk():
            if isinstance(node, Scan):
                assert node.entry.location is not EngineLocation.SENSOR
        remotes = [
            n for n in federated.stream_plan.walk() if isinstance(n, RemoteSource)
        ]
        assert [r.name for r in remotes] == [federated.pushed[0].name]

    def test_residual_keeps_order_by_out_of_network(self, catalog, line_network, builder):
        plan = builder.build_sql(
            "select sa.room from AreaSensors sa, Person p "
            "where sa.room = p.room order by sa.room"
        )
        federated = partition_plan(plan, catalog, line_network)
        for fragment in federated.pushed:
            assert not any(
                isinstance(node, OrderBy) for node in fragment.fragment.walk()
            )
        assert any(
            isinstance(node, OrderBy) for node in federated.stream_plan.walk()
        )

    def test_pure_stream_plan_passes_through_whole(self, catalog, line_network, builder):
        plan = builder.build_sql("select p.id from Person p where p.id > 3")
        federated = partition_plan(plan, catalog, line_network)
        assert federated.pushed == []
        assert len(federated.alternatives) == 1

    def test_pairing_provider_reaches_join_fragments(self, catalog, line_network, builder):
        pairs = [JoinPair(1, 3), JoinPair(2, 4)]
        plan = builder.build_sql(
            "select sa.room from AreaSensors sa, SeatSensors ss "
            "where sa.room = ss.room and sa.status = 'open' and ss.status = 'free'"
        )
        federated = partition_plan(
            plan, catalog, line_network, pairing_provider=lambda left, right: pairs
        )
        assert [f.deployment.kind for f in federated.pushed] == ["join"]
        assert [
            (p.left_mote, p.right_mote) for p in federated.pushed[0].deployment.pairs
        ] == [(1, 3), (2, 4)]

    def test_aggregate_over_an_in_network_join_stays_in_the_residual(
        self, catalog, line_network, builder
    ):
        plan = builder.build_sql(
            "select count(*) from AreaSensors sa, SeatSensors ss "
            "where sa.room = ss.room and sa.status = 'open'"
        )
        federated = partition_plan(plan, catalog, line_network)
        assert [f.deployment.kind for f in federated.pushed] == ["join"]
        assert any(isinstance(n, Aggregate) for n in federated.stream_plan.walk())
        assert not any(isinstance(n, Aggregate) for n in federated.pushed[0].fragment.walk())

    def test_every_alternative_clears_sensor_scans(self, catalog, line_network, builder):
        plan = builder.build_sql(
            "select sa.room from AreaSensors sa, SeatSensors ss, Person p "
            "where sa.room = ss.room and ss.room = p.room"
        )
        federated = partition_plan(plan, catalog, line_network)
        for alternative in federated.alternatives:
            for node in alternative.stream_plan.walk():
                if isinstance(node, Scan):
                    assert node.entry.location is not EngineLocation.SENSOR


# ----------------------------------------------------------------------
# Backend layer + error funnel + lifecycle
# ----------------------------------------------------------------------
class TestFederatedBackendLayer:
    def test_session_installs_the_federated_peer(self):
        with connect() as session:
            backend = session.backend("federated")
            assert isinstance(backend, FederatedBackend)
            assert backend.name == "federated"
            assert backend.delegate is session.backend("stream")

    def test_sensor_scans_route_federated_only_with_capability(self):
        catalog = Catalog()
        catalog.register_sensor_stream(
            "RoomTemps", TEMPS, DeviceInfo((1, 2), 5.0, "temp")
        )
        # No network, no sensor engine: the stream engine serves the
        # sensor stream as a plain feed, exactly as before this layer.
        with connect(catalog=catalog) as session:
            cursor = session.query("select t.room from RoomTemps t")
            assert cursor.kind == "stream"

    def test_forced_federated_without_capability_raises(self):
        catalog = Catalog()
        catalog.register_sensor_stream(
            "RoomTemps", TEMPS, DeviceInfo((1, 2), 5.0, "temp")
        )
        with connect(catalog=catalog) as session:
            with pytest.raises(QueryError, match="network"):
                session.query("select t.room from RoomTemps t", engine="federated")

    def test_forced_federated_on_pure_stream_plan_degenerates(self):
        with connect() as session:
            session.attach(StreamSource("RoomLoad", LOAD))
            cursor = session.query(
                "select l.room from RoomLoad l", engine="federated"
            )
            # No fragments to deploy: the delegate's plain stream cursor
            # is the whole execution.
            assert cursor.kind == "stream" and cursor.fragments == []
            session.push("RoomLoad", {"room": "a", "load": 0.5}, 1.0)
            assert len(cursor.results()) == 1

    def test_placement_cannot_combine_with_federated(self):
        session, _ = _build_world(1)
        try:
            with pytest.raises(QueryError, match="placement"):
                session.query(
                    "select t.room from RoomTemps t",
                    engine="federated",
                    placement="auto",
                )
        finally:
            session.close()

    def test_explain_funnels_non_select_to_query_error(self):
        with connect() as session:
            with pytest.raises(QueryError, match="SELECT"):
                session.explain("create view V as (select 1 as one from X x)")

    def test_explain_carries_parse_position(self):
        with connect() as session:
            with pytest.raises(QueryError) as excinfo:
                session.explain("select t.room frum RoomTemps t")
            assert excinfo.value.line == 1 and excinfo.value.column > 0

    def test_explain_partitions_without_executing(self):
        session, _ = _build_world(2)
        try:
            # One deployment exists already: the SensorSource's own
            # collection. EXPLAIN must not add any.
            before = list(session.sensor_engine.deployed)
            federated = session.explain(
                "select t.room from RoomTemps t where t.temp > 20.0"
            )
            assert federated.pushed and federated.alternatives
            assert session.sensor_engine.deployed == before  # nothing ran
        finally:
            session.close()

    def test_explain_names_raw_collection_and_pushed_aggregate(self):
        def diagnostics(sql, **world):
            session, _ = _build_world(1, **world)
            try:
                return {d.code: d.render() for d in session.explain(sql).diagnostics}
            finally:
                session.close()

        # One hop from the base, shipping every sample costs what the
        # epoch record does: the scan is collected raw.
        raw = diagnostics("select count(*) from RoomTemps t")
        assert "RA502" in raw and "RA501" not in raw
        assert "'RoomTemps' was not pushed" in raw["RA502"]
        pushed = diagnostics(
            "select count(*), avg(t.temp) from RoomTemps t where t.temp > 20.0",
            **CHAIN,
        )
        assert "RA502" not in pushed
        assert "aggregation over RoomTemps" in pushed["RA501"]
        assert "fold (*, t.temp) where (t.temp > 20)" in pushed["RA501"]
        assert "SUM(a0_count), SUM(a1_sum), SUM(a1_count)" in pushed["RA501"]

    def test_cursor_close_stops_fragment_deployments(self):
        session, simulator = _build_world(3)
        try:
            cursor = session.query("select t.room from RoomTemps t where t.temp > 0.0")
            assert cursor.kind == "federated" and cursor.fragments
            deployments = cursor.fragments
            cursor.close()
            assert all(d.stopped for d in deployments)
            for deployment in deployments:
                assert deployment not in session.sensor_engine.deployed
        finally:
            session.close()

    def test_session_close_stops_inflight_federated_executions(self):
        session, simulator = _build_world(3)
        cursor = session.query("select t.room, t.temp from RoomTemps t")
        simulator.run_for(6.0)
        assert cursor.results()
        deployments = cursor.fragments
        session.close()
        assert all(d.stopped for d in deployments)
        before = len(cursor.results())
        simulator.run_for(10.0)  # epochs tick, but deployments are dead
        assert len(cursor.results()) == before

    def test_failed_deployment_funnels_and_cleans_up(self):
        # Catalog knows the sensor stream, but the engine has no such
        # relation: deployment fails after partitioning succeeded.
        simulator = Simulator(5)
        network = SensorNetwork(simulator)
        network.add_basestation(Position(0.0, 0.0))
        network.add_mote(Mote(1, Position(5.0, 0.0), MoteRole.ROOM, radio_range=50.0))
        network.rebuild_topology()
        catalog = Catalog()
        catalog.register_sensor_stream(
            "Ghost", TEMPS, DeviceInfo((1,), 5.0, "temp")
        )
        session = connect(catalog=catalog, network=network, simulator=simulator)
        try:
            with pytest.raises(QueryError, match="Ghost"):
                session.query("select g.room from Ghost g")
            assert session.engine.running_queries == []
            assert session.sensor_engine.deployed == []
        finally:
            session.close()
