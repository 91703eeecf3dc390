"""Quickstart: the unified Session API in ~60 lines.

One ``connect()`` call opens a :class:`~repro.api.Session`; SQL text
goes in, live results come out — the session compiles each statement
(lex/parse/analyze/plan) and routes it to the right backend:

* continuous SELECTs        -> the stream engine,
* table-only / WITH RECURSIVE -> one-shot evaluation: the same operator
  pipelines, fed the stored tables as a stream that ends,
* ``placement=...``         -> the distributed stream engine,
* SELECTs over sensor-hosted sources -> the federated optimizer:
  filters deploy *on the motes*, and only passing samples cross the
  radio to join the stream side.

No caller ever touches a parser, analyzer or plan builder. For the
full SmartCIS building demo, see ``examples/visitor_guide.py``.

Run:  python examples/quickstart.py
"""

from repro.api import StreamSource, TableSource, connect
from repro.data import DataType, Schema
from repro.errors import QueryError

READINGS = Schema.of(("room", DataType.STRING), ("temp", DataType.FLOAT))
MACHINES = Schema.of(("host", DataType.STRING), ("room", DataType.STRING))
EDGES = Schema.of(("src", DataType.STRING), ("dst", DataType.STRING))


def main() -> None:
    with connect() as session:
        # Attach sources: catalog registration, engine routing and
        # lifecycle ownership in one call each.
        session.attach(StreamSource("Readings", READINGS, rate=2.0))
        session.attach(
            TableSource(
                "Machines",
                MACHINES,
                rows=[
                    {"host": "ws1", "room": "lab1"},
                    {"host": "ws2", "room": "lab2"},
                ],
            )
        )
        session.attach(
            TableSource(
                "Edges",
                EDGES,
                rows=[
                    {"src": "lobby", "dst": "hall"},
                    {"src": "hall", "dst": "lab1"},
                    {"src": "lab1", "dst": "lab2"},
                ],
            )
        )

        # 1. A continuous query: SQL text in, cursor out; results
        #    accumulate as elements are pushed.
        with session.query(
            "select r.room, m.host, r.temp from Readings r, Machines m "
            "where r.room = m.room and r.temp > 24.0"
        ) as hot:
            for i, (room, temp) in enumerate(
                [("lab1", 22.0), ("lab1", 27.5), ("lab2", 25.1), ("lab2", 23.9)]
            ):
                session.push("Readings", {"room": room, "temp": temp}, float(i))
            print("hot machines (continuous):")
            for row in hot:
                print(f"  {row['m.host']}: {row['r.temp']:.1f} C in {row['r.room']}")

        # 2. A prepared statement: compiled once, re-bound per execution.
        warm = session.prepare(
            "select r.room from Readings r where r.temp > :limit"
        )
        print("prepared route:", warm.route, "params:", warm.parameters)

        # 3. One-shot: a table-only query runs on the operator pipelines
        #    over the stored tables, which end, and returns its rows.
        cursor = session.query("select m.host from Machines m where m.room = 'lab1'")
        print("batch:", [row["m.host"] for row in cursor], f"(kind={cursor.kind})")

        # 4. WITH RECURSIVE: the transitive closure, materialised now.
        reach = session.query(
            "with recursive Reach(src, dst) as ("
            "  select e.src, e.dst from Edges e"
            "  union"
            "  select r.src, e.dst from Reach r, Edges e where r.dst = e.src"
            ") select t.dst from Reach t where t.src = 'lobby'"
        )
        print("reachable from lobby:", sorted(row["t.dst"] for row in reach))

        # 5. CREATE VIEW registers in the catalog; queries fold it in.
        session.query(
            "create view Lab1Machines as "
            "(select m.host from Machines m where m.room = 'lab1')"
        )
        print(
            "via view:",
            [row["v.host"] for row in session.query("select v.host from Lab1Machines v")],
        )
    # Leaving the with-block closed the session: every query stopped,
    # every attached source detached — nothing leaks.

    # 6. Scale out: the same surface over a sharded engine pool. Rows
    #    hash-partition by the declared key; partition-safe queries
    #    (keyed windows, key-aligned joins, filter/project chains) run
    #    one replica per shard with merged results, shapes a shuffle
    #    can fix are exchanged mid-plan (section 12), and anything else
    #    transparently falls back to one designated engine. There is
    #    one pool; how it reaches its shards is a channel: direct calls
    #    into engines in this process here, worker processes in
    #    section 11.
    with connect(shards=4) as session:
        session.attach(
            StreamSource("Readings", READINGS, rate=2.0, partition_by="room")
        )
        with session.query(
            "select r.room, count(*) as n, avg(r.temp) as mean "
            "from Readings r [range 10 seconds slide 10 seconds] "
            "group by r.room"
        ) as per_room:
            session.push_many(
                "Readings",
                [{"room": f"lab{i % 3}", "temp": 20.0 + i} for i in range(30)],
                [float(i) for i in range(30)],
            )
            session.punctuate(40.0)
            print("sharded keyed windows:")
            for row in sorted(per_room, key=lambda r: r["r.room"]):
                print(f"  {row['r.room']}: n={row['n']} mean={row['mean']:.1f}")

    # 7. Federated: attach a sensor-hosted relation and one mixed query
    #    partitions itself — the filter runs in-network on the motes,
    #    the join against the stream side runs on the stream engine.
    from repro.runtime import Simulator
    from repro.sensor import Mote, MoteRole, Position, SensorNetwork, SensorRelation
    from repro.api import SensorSource

    simulator = Simulator(seed=7)
    network = SensorNetwork(simulator)
    network.add_basestation(Position(0, 0))
    for i in (1, 2, 3):
        mote = Mote(i, Position(i * 10.0, 0.0), MoteRole.ROOM, radio_range=100.0)
        mote.attach_sensor("temp", lambda i=i, sim=simulator: 18.0 + i * 4 + sim.now % 5)
        network.add_mote(mote)
    network.rebuild_topology()

    with connect(network=network, simulator=simulator) as session:
        session.attach(
            SensorSource(
                SensorRelation(
                    "RoomTemps",
                    READINGS,  # (room, temp) — same shape as Readings
                    [1, 2, 3],
                    lambda mote: {
                        "room": f"lab{mote.mote_id}",
                        "temp": round(mote.sample("temp"), 1),
                    },
                    period=5.0,
                ),
                # The federated query deploys its own (filtered)
                # in-network collection; deploy=False keeps a raw
                # ship-everything collection from running beside it.
                deploy=False,
            )
        )
        session.attach(StreamSource("Readings", READINGS, rate=2.0))
        with session.query(
            "select t.room, t.temp, r.temp as indoor from RoomTemps t, Readings r "
            "where t.room = r.room and t.temp > 24.0"
        ) as mixed:
            print(f"mixed sensor+stream query runs {mixed.kind}:")
            for fragment in mixed.federated_plan.pushed:
                print(f"  in-network: {fragment.describe()}")
            simulator.run_for(12.0)  # motes sample; fragments deliver
            session.push("Readings", {"room": "lab3", "temp": 21.5}, simulator.now)
            simulator.run_for(6.0)
            for row in mixed:
                print(f"  {row['t.room']}: mote {row['t.temp']:.1f} C, indoor {row['indoor']:.1f} C")

    # 8. Fault tolerance: checkpoint_interval=... takes punctuation-
    #    aligned snapshots of all operator state, and deployments
    #    self-heal — kill a mote and the federated backend re-plans
    #    against the degraded network and redeploys; kill a shard
    #    engine and the pool restores it from the latest barrier and
    #    replays only the ingest-log suffix.
    simulator = Simulator(seed=7)
    network = SensorNetwork(simulator)
    network.add_basestation(Position(0, 0), radio_range=12.0)
    for i in (1, 2):  # two relays: redundancy to heal over
        network.add_mote(Mote(i, Position((i - 1) * 6.0, 10.0), MoteRole.ROOM, radio_range=12.0))
    sampler = Mote(3, Position(3.0, 20.0), MoteRole.ROOM, radio_range=12.0)
    sampler.attach_sensor("temp", lambda sim=simulator: 20.0 + sim.now % 5)
    network.add_mote(sampler)
    network.rebuild_topology()

    with connect(
        network=network, simulator=simulator, checkpoint_interval=30.0
    ) as session:
        session.attach(
            SensorSource(
                SensorRelation(
                    "RoomTemps",
                    READINGS,
                    [3],
                    lambda mote: {"room": "lab", "temp": round(mote.sample("temp"), 1)},
                    period=5.0,
                ),
                deploy=False,
            )
        )
        with session.query("select t.room, t.temp from RoomTemps t") as temps:
            simulator.run_for(12.0)
            before = len(temps.results())
            network.mote(1).battery.remaining_mj = 0.0  # the routing relay dies
            simulator.run_for(12.0)  # death detected; query redeployed via relay 2
            backend = session.backend("federated")
            print(
                f"mote 1 died; repaired {[r['mode'] for r in backend.repairs]}, "
                f"member now routes via mote {network.parent_of(3)}, "
                f"{len(temps.results()) - before} samples after recovery"
            )

    # 9. Multi-tenancy: many standing queries from a few templates.
    #    Sessions multiplex by default — repeated SQL text hits a
    #    normalized-text plan cache, and structurally identical plans
    #    run ONE shared operator chain fanned out to every cursor
    #    (connect(share_plans=False) restores private pipelines).
    with connect() as session:
        session.attach(StreamSource("Readings", READINGS, rate=2.0))
        templates = [
            "select r.room, r.temp from Readings r where r.temp > 24.0",
            "select r.room, count(*) as n from Readings r "
            "[range 10 seconds slide 10 seconds] group by r.room",
        ]
        tenants = [session.query(templates[i % 2]) for i in range(40)]
        session.push("Readings", {"room": "lab1", "temp": 26.0}, 1.0)
        session.punctuate(10.0)
        stats = session.stats()
        print(
            f"{len(tenants)} standing queries -> "
            f"{stats['sharing']['chains']} shared chains "
            f"(fan-out {stats['sharing']['fan_out']}), "
            f"plan cache {stats['plan_cache']['hits']} hits / "
            f"{stats['plan_cache']['misses']} misses; "
            f"every tenant saw {len(tenants[0].results())} row(s)"
        )

    # 10. Static analysis: every plan is verified at admission and every
    #     engine decision explains itself with stable RA### codes.
    #     connect(analysis="strict") turns unbounded-state findings into
    #     QueryError before the engine sees a row; session.explain
    #     reports why a plan would fall back, decline sharing, or push
    #     fragments in-network.
    with connect(analysis="strict") as session:
        session.attach(
            StreamSource("Readings", READINGS, rate=2.0, partition_by="room")
        )
        try:
            session.query(
                "select r.room from Readings r [unbounded] group by r.room"
            )
        except QueryError as exc:
            print(f"strict mode rejected: {str(exc).split(' at ')[0]}")
        federated = session.explain(
            "select r.room, count(*) as n from Readings r "
            "[range 10 seconds] group by r.room"
        )
        for diagnostic in federated.diagnostics:
            print(f"  {diagnostic.render()}")

    # 11. Process workers: the same pool over the other channel, one
    #     OS process per shard — connect(shards=N, workers="process")
    #     ships each partition-safe or exchanged query to the workers
    #     as SQL text and feeds them value-tuple batches over bounded
    #     queues, so on a multi-core host ingest scales with cores
    #     instead of sharing the GIL. Routing, the shuffle barrier,
    #     checkpoints and failover are the very code section 6 ran: a
    #     dead (or hung) worker is restored from the latest barrier.
    #     On platforms without multiprocessing the session degrades to
    #     the in-process channel and session.explain carries an RA313
    #     diagnostic. session.stats()["pool"] reads the same on both;
    #     ["workers"] adds the transport's own counters.
    with connect(shards=4, workers="process", checkpoint_interval=30.0) as session:
        session.attach(
            StreamSource("Readings", READINGS, rate=2.0, partition_by="room")
        )
        with session.query(
            "select r.room, max(r.temp) as peak "
            "from Readings r [range 10 seconds slide 10 seconds] "
            "group by r.room"
        ) as peaks:
            session.push_many(
                "Readings",
                [{"room": f"lab{i % 3}", "temp": 20.0 + i} for i in range(30)],
                [float(i) for i in range(30)],
            )
            session.punctuate(40.0)
            workers = session.stats()["workers"]
            print(
                f"process pool: {workers['workers']} workers, "
                f"{workers['rows_shipped']} rows shipped in "
                f"{workers['batches_shipped']} batches"
            )
            for row in sorted(peaks, key=lambda r: r["r.room"]):
                print(f"  {row['r.room']}: peak={row['peak']:.1f}")

    # 12. Exchanges: partition-unsafe plans no longer surrender to one
    #     fallback engine. Heartbeats is partitioned by host, but this
    #     GROUP BY is on room — a non-covering key. The pool splits the
    #     aggregate into per-shard partials, hash-shuffles the partial
    #     groups on room at every punctuation, and merges them on the
    #     owning shard, so the whole pool still does the work.
    #     session.explain prints the decision as RA32x diagnostics.
    with connect(shards=4) as session:
        session.attach(
            StreamSource("Heartbeats", MACHINES, rate=2.0, partition_by="host")
        )
        federated = session.explain(
            "select h.room, count(*) as n from Heartbeats h "
            "[range 10 seconds slide 10 seconds] group by h.room"
        )
        for diagnostic in federated.diagnostics:
            if diagnostic.code.startswith("RA3"):
                print(f"  {diagnostic.render()}")
        with session.query(
            "select h.room, count(*) as n from Heartbeats h "
            "[range 10 seconds slide 10 seconds] group by h.room"
        ) as counts:
            session.push_many(
                "Heartbeats",
                [
                    {"host": f"ws{i % 4}", "room": f"lab{i % 2}"}
                    for i in range(12)
                ],
                [float(i) for i in range(12)],
            )
            session.punctuate(20.0)
            for row in sorted(counts, key=lambda r: r["h.room"]):
                print(f"  {row['h.room']}: n={row['n']}")
            shuffle = session.stats()["pool"]["exchange"]
            print(
                f"  shuffle: {shuffle['rows_delivered']} partial rows over "
                f"{shuffle['barrier_rounds']} barrier round(s)"
            )


if __name__ == "__main__":
    main()
