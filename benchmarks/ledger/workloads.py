"""The seven workloads: which deployment, which traffic, and why.

Each workload is cut by which operator class and which layer does the
work, so a later change to one layer has one workload that shows it and
one that must not move (see README.md for the table). Query texts are
copied here, not imported from the legacy ``benchmarks/bench_*.py``
scripts: those scripts will be ported or deleted by later changes, and
this directory must keep measuring the same thing when they are.

A workload's traffic is counted in *units*: one ``Readings`` row (plus
half an ``Events`` row on ``xchg_pool4``), or one sampling epoch on
``federated``. ``rows_per_unit`` converts units to input rows.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.api import SensorSource, StreamSource, connect
from repro.data import DataType, Row, Schema

from benchmarks.ledger import gen

#: The 7 standing queries every legacy number cites: 2 fused
#: filter->project chains, 2 keyed RANGE 40 SLIDE 40 aggregates and 3
#: keyed DISTINCTs, all partition-safe under ``partition_by="host"``.
STANDING7 = (
    """SELECT r.host, r.temp * 1.8 + 32.0 AS fahrenheit, r.load * 100.0 AS pct,
              COALESCE(r.load, 0.0) + r.temp / 10.0 AS score
       FROM Readings r
       WHERE r.temp > 15.0 AND r.temp < 90.0 AND r.room LIKE 'lab%'
             AND r.load >= 0.0 AND r.load <= 1.0""",
    """SELECT r.host, (r.temp - 20.0) * (r.temp - 20.0) AS dev
       FROM Readings r
       WHERE r.load > 0.25 AND r.temp < 70.0""",
    """SELECT r.host, COUNT(*) AS n, SUM(r.temp) AS total, MAX(r.load) AS peak
       FROM Readings r [RANGE 40 SECONDS SLIDE 40 SECONDS]
       WHERE r.temp > 5.0 AND r.load >= 0.0
       GROUP BY r.host""",
    """SELECT r.host, MIN(r.temp) AS lo, AVG(r.load) AS mean
       FROM Readings r [RANGE 40 SECONDS SLIDE 40 SECONDS]
       WHERE r.temp < 85.0
       GROUP BY r.host""",
    """SELECT DISTINCT r.host, r.room FROM Readings r WHERE r.load >= 0.5""",
    """SELECT DISTINCT r.room, r.host FROM Readings r WHERE r.temp > 40.0""",
    """SELECT DISTINCT r.host FROM Readings r WHERE r.temp > 25.0 AND r.load > 0.1""",
)

#: 20 statement templates (filter/project tiers, windowed aggregates,
#: DISTINCT, row windows); 1000 tenants cycle through them.
TENANT_TEMPLATES = (
    "select r.host, r.temp from Readings r where r.temp > 10.0",
    "select r.host, r.temp from Readings r where r.temp > 25.0",
    "select r.host, r.temp from Readings r where r.temp > 40.0",
    "select r.host, r.temp from Readings r where r.temp > 55.0",
    "select r.room, r.host from Readings r where r.load < 0.25",
    "select r.room, r.host from Readings r where r.load < 0.75",
    "select r.host, r.temp * 1.8 + 32.0 as fahrenheit from Readings r "
    "where r.temp > 30.0",
    "select r.host, r.load * 100.0 as pct from Readings r where r.load >= 0.5",
    "select r.room, r.temp from Readings r where r.room like 'lab%'",
    "select r.host from Readings r where r.temp > 20.0 and r.load < 0.9",
    "select r.room, count(*) as n from Readings r "
    "[range 10 seconds slide 10 seconds] group by r.room",
    "select r.room, avg(r.temp) as mean from Readings r "
    "[range 10 seconds slide 10 seconds] group by r.room",
    "select r.host, count(*) as n, sum(r.temp) as total from Readings r "
    "[range 20 seconds slide 20 seconds] group by r.host",
    "select r.host, min(r.temp) as lo, max(r.temp) as hi from Readings r "
    "[range 20 seconds slide 10 seconds] group by r.host",
    "select count(*) as n, avg(r.load) as mean from Readings r "
    "[range 10 seconds slide 10 seconds]",
    "select r.room, count(*) as n from Readings r "
    "[range 20 seconds slide 20 seconds] where r.temp > 15.0 group by r.room",
    "select distinct r.host, r.room from Readings r where r.temp > 35.0",
    "select distinct r.room from Readings r where r.load > 0.1",
    "select r.host, r.temp from Readings r [rows 25] where r.load > 0.3",
    "select r.room, avg(r.temp) as mean from Readings r "
    "[rows 50] group by r.room",
)
TENANTS = 1000

#: Partition-unsafe plans under Readings by room / Events by kind. Each
#: must run exchanged on the whole pool, never on the fallback engine:
#: a shuffled host=host join (RA320; the predicate is tightened so the
#: join emits under 2 results per input row), a global aggregate and a
#: non-covering GROUP BY (RA321), and a non-covering DISTINCT (RA322).
EXCHANGED4 = (
    """SELECT r.host, r.temp, e.load AS eload
       FROM Readings r [RANGE 10 SECONDS], Events e [RANGE 10 SECONDS]
       WHERE r.host = e.host AND e.load > 0.75 AND r.temp > 73.0""",
    """SELECT COUNT(*) AS n, AVG(r.load) AS mean, MIN(r.temp) AS lo
       FROM Readings r [RANGE 40 SECONDS SLIDE 40 SECONDS]""",
    """SELECT r.host, COUNT(*) AS n, SUM(r.temp) AS total, MAX(r.load) AS peak
       FROM Readings r [RANGE 40 SECONDS SLIDE 40 SECONDS]
       WHERE r.temp > 5.0
       GROUP BY r.host""",
    """SELECT DISTINCT r.host FROM Readings r WHERE r.temp > 25.0""",
)
EXCHANGED4_CODES = ("RA320", "RA321", "RA321", "RA322")


@dataclass(frozen=True)
class Phases:
    """Traffic sizes of one round at scale 1.0: ~0.25 s of closed loop,
    ~0.5 s paced. ``--seconds`` sets the number of rounds."""

    closed_units: int  #: units pushed back-to-back per round
    batch: int  #: units per closed-loop step
    rate: float  #: paced units per second — frozen, see README.md
    step: int  #: units per paced step
    paced_seconds: float  #: paced-phase length per round
    #: measured rounds per ten ``--seconds``; fewer where the untimed
    #: part of a round (final flush, digests, collection) outweighs the
    #: timed part
    rounds: int = 12

    def steps(self, scale: float) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """The ``(lo, hi)`` unit ranges of one round's closed-loop and
        paced steps; the paced steps continue where the closed ones end."""
        closed_n = max(2, round(self.closed_units * scale / self.batch))
        paced_n = max(4, round(self.rate * self.paced_seconds * scale / self.step))
        closed = [(i * self.batch, (i + 1) * self.batch) for i in range(closed_n)]
        base = closed_n * self.batch
        paced = [
            (base + i * self.step, base + (i + 1) * self.step) for i in range(paced_n)
        ]
        return closed, paced


@dataclass
class Deployment:
    """One open session with every query admitted."""

    session: Any
    cursors: list
    #: ``deliver(lo, hi)`` pushes units ``[lo, hi)`` and punctuates.
    deliver: Callable[[int, int], None]
    #: Flushes trailing windows / in-flight radio so digests are complete.
    finish: Callable[[], None]
    #: Seconds spent inside the ``session.query`` admission loop.
    admit_s: float
    #: Seconds of each ``session.query`` call, in admission order.
    admit_each: list[float] = field(default_factory=list)
    #: Extra handles a tracer may read counts from (e.g. the network).
    extras: dict = field(default_factory=dict)

    def close(self) -> None:
        self.session.close()


def _admit(session, queries, **options) -> tuple[list, float, list[float]]:
    """Admit every query; returns the cursors, the loop's wall seconds
    and the seconds each ``session.query`` call took."""
    clock = time.perf_counter
    cursors, each = [], []
    start = clock()
    for sql in queries:
        began = clock()
        cursors.append(session.query(sql, **options))
        each.append(clock() - began)
    return cursors, clock() - start, each


@dataclass(frozen=True)
class StreamWorkload:
    """A deployment on the PC-side stream engine (single, pool or
    process pool), fed ``Readings`` (and optionally ``Events``)."""

    name: str
    why: str
    phases: Phases
    queries: tuple[str, ...]
    connect: dict = field(default_factory=dict)
    #: source name -> declared partition column
    partition: dict = field(default_factory=dict)
    #: prebuilt ``Row``s (the wrapper hot path) or ``dict`` mappings
    dict_rows: bool = False
    #: deliver through per-row ``session.push`` instead of ``push_many``
    per_row: bool = False
    with_events: bool = False
    #: diagnostic code ``session.explain`` must report, per query
    explain_codes: tuple[str, ...] = ()
    #: diagnostic code that must *not* appear (a silent degradation)
    forbid_code: str | None = None

    @property
    def rows_per_unit(self) -> float:
        return 1.5 if self.with_events else 1.0

    @property
    def statements(self) -> tuple[str, ...]:
        """Distinct statement texts, in first-admission order."""
        return tuple(dict.fromkeys(self.queries))

    def build_input(self, seed: int, units: int) -> dict:
        def shape(schema: Schema, values: list[tuple]) -> list:
            if self.dict_rows:
                names = schema.names
                return [dict(zip(names, row)) for row in values]
            return [Row.raw(schema, row) for row in values]

        values, stamps = gen.readings(seed, units)
        feeds = {"Readings": (shape(gen.READINGS, values), stamps)}
        if self.with_events:
            values, e_stamps = gen.events(seed, units // 2, rows_per_second=50.0)
            feeds["Events"] = (shape(gen.EVENTS, values), e_stamps)
        return feeds

    def open(self, feeds: dict, reference: bool = False) -> Deployment:
        """Connect, attach, admit. ``reference=True`` opens the simplest
        configuration instead — one engine, private per-query pipelines,
        per-row ``push`` — whose results every measured round must match."""
        session = connect(share_plans=False) if reference else connect(**self.connect)
        session.attach(
            StreamSource(
                "Readings", gen.READINGS, rate=100.0,
                partition_by=self.partition.get("Readings"),
            )
        )
        if self.with_events:
            session.attach(
                StreamSource(
                    "Events", gen.EVENTS, rate=50.0,
                    partition_by=self.partition.get("Events"),
                )
            )
        cursors, admit_s, admit_each = _admit(
            session, self.statements if reference else self.queries
        )
        deliver = self._deliverer(session, feeds, per_row=self.per_row or reference)
        last_stamp = feeds["Readings"][1][-1]
        return Deployment(
            session, cursors, deliver,
            # Past every open RANGE 40 window of the standing queries.
            finish=lambda: session.punctuate(last_stamp + 80.0),
            admit_s=admit_s,
            admit_each=admit_each,
        )

    def check(self, session) -> None:
        """Fail loudly when the deployment would silently run another
        way than the workload claims (fallback engine, in-process pool).
        Called once per process by ``harness.preflight`` — not from
        ``open``, whose time is ``setup_s``."""
        for sql, code in zip(self.queries, self.explain_codes):
            codes = {d.code for d in session.explain(sql).diagnostics}
            if code not in codes:
                raise RuntimeError(
                    f"{self.name}: expected {code} in explain of {' '.join(sql.split())!r}, "
                    f"got {sorted(codes)}"
                )
        if self.forbid_code is not None:
            codes = {d.code for d in session.explain(self.queries[0]).diagnostics}
            if self.forbid_code in codes:
                raise RuntimeError(
                    f"{self.name}: {self.forbid_code} reported — the deployment "
                    "degraded instead of running as configured"
                )

    def _deliverer(self, session, feeds: dict, per_row: bool):
        rows, stamps = feeds["Readings"]
        e_rows, e_stamps = feeds.get("Events", ((), ()))
        push, push_many, punctuate = session.push, session.push_many, session.punctuate

        if per_row:
            def deliver(lo: int, hi: int) -> None:
                for i in range(lo, hi):
                    push("Readings", rows[i], stamps[i])
                watermark = stamps[hi - 1]
                if e_rows:
                    for i in range(lo // 2, hi // 2):
                        push("Events", e_rows[i], e_stamps[i])
                    watermark = min(watermark, e_stamps[hi // 2 - 1])
                punctuate(watermark)
        else:
            def deliver(lo: int, hi: int) -> None:
                push_many("Readings", rows[lo:hi], stamps[lo:hi])
                watermark = stamps[hi - 1]
                if e_rows:
                    e_lo, e_hi = lo // 2, hi // 2
                    push_many("Events", e_rows[e_lo:e_hi], e_stamps[e_lo:e_hi])
                    watermark = min(watermark, e_stamps[e_hi - 1])
                punctuate(watermark)

        return deliver


# ----------------------------------------------------------------------
# The federated deployment: a 24-mote, 4-arm multihop star
# ----------------------------------------------------------------------
_TEMPS = Schema.of(("room", DataType.STRING), ("temp", DataType.FLOAT))
_LOAD = Schema.of(("room", DataType.STRING), ("load", DataType.FLOAT))
_ARMS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_MOTES_PER_ARM = 6
#: With a 50ft radio the reliable disc is 30ft: adjacent chain motes
#: (28ft) are loss-free and the next-nearest (56ft) is out of range, so
#: every collection-tree edge delivers with probability 1 and the
#: in-network and ship-everything runs see identical samples, while
#: every shipped sample still pays one transmission per hop.
_SPACING, _RADIO_RANGE = 28.0, 50.0
_SAMPLE_PERIOD = 5.0
_FEDERATED_QUERY = (
    "select g.room, g.temp, l.load from GridTemps g, GridLoad l "
    "where g.room = l.room and g.temp > 24.0"
)


@dataclass(frozen=True)
class FederatedWorkload:
    """Mixed sensor+stream join with the selective filter in-network.
    One unit is one sampling epoch: 24 mote samples + 4 stream rows."""

    name: str
    why: str
    phases: Phases
    queries: tuple[str, ...] = (_FEDERATED_QUERY,)
    rows_per_unit: float = float(len(_ARMS) * _MOTES_PER_ARM + 4)
    sample_period: float = _SAMPLE_PERIOD

    @property
    def statements(self) -> tuple[str, ...]:
        return self.queries

    def check(self, session) -> None:
        """Nothing beyond what ``open`` asserts on every session (the
        cursor's ``kind``)."""

    def build_input(self, seed: int, units: int) -> dict:
        rng = random.Random(f"federated-{seed}")
        motes = len(_ARMS) * _MOTES_PER_ARM
        return {
            "seed": seed,
            #: per-mote temperature offset; the filter passes about a third
            "offsets": [rng.random() * 3.0 for _ in range(motes + 1)],
            "loads": [
                [round(rng.random(), 3) for _ in range(4)] for _ in range(units)
            ],
        }

    def open(self, world: dict, reference: bool = False) -> Deployment:
        """``reference=True`` is the ship-everything run: a raw
        collection feeds the stream engine, which filters on the PC."""
        from repro.runtime import Simulator
        from repro.sensor import Mote, MoteRole, Position, SensorNetwork, SensorRelation

        simulator = Simulator(world["seed"])
        network = SensorNetwork(simulator)
        network.add_basestation(Position(0.0, 0.0), radio_range=_RADIO_RANGE)
        offsets = world["offsets"]
        mote_ids = []
        for arm, (dx, dy) in enumerate(_ARMS):
            for depth in range(1, _MOTES_PER_ARM + 1):
                mote_id = arm * _MOTES_PER_ARM + depth
                mote = Mote(
                    mote_id,
                    Position(dx * depth * _SPACING, dy * depth * _SPACING),
                    MoteRole.ROOM,
                    radio_range=_RADIO_RANGE,
                )
                mote.attach_sensor(
                    "temp",
                    lambda m=mote_id: 15.0 + (m % 5) * 3.0 + offsets[m]
                    + (simulator.now * 1.3) % 7.0,
                )
                network.add_mote(mote)
                mote_ids.append(mote_id)
        network.rebuild_topology()
        relation = SensorRelation(
            "GridTemps", _TEMPS, mote_ids,
            lambda mote: {
                "room": f"room{mote.mote_id % 4}",
                "temp": round(mote.sample("temp"), 2),
            },
            period=self.sample_period,
        )
        session = connect(network=network, simulator=simulator)
        session.attach(SensorSource(relation, deploy=reference))
        session.attach(StreamSource("GridLoad", _LOAD, rate=1.0))
        cursors, admit_s, admit_each = _admit(
            session, self.queries, engine="stream" if reference else None
        )
        wanted = "stream" if reference else "federated"
        if cursors[0].kind != wanted:
            raise RuntimeError(f"{self.name}: query ran as {cursors[0].kind!r}, not {wanted!r}")
        loads, period, push = world["loads"], self.sample_period, session.push
        punctuate = session.punctuate
        rooms = [f"room{i}" for i in range(4)]

        def deliver(lo: int, hi: int) -> None:
            for epoch in range(lo, hi):
                simulator.run_for(period)
                now = simulator.now
                for room, load in zip(rooms, loads[epoch]):
                    push("GridLoad", {"room": room, "load": load}, now)
                # Without a watermark the residual join never evicts and
                # every epoch costs more than the last.
                punctuate(now)

        def finish() -> None:
            simulator.run_for(2.0)  # drain in-flight radio deliveries
            session.punctuate(simulator.now)

        return Deployment(
            session, cursors, deliver, finish, admit_s, admit_each,
            extras={"network": network},
        )


_TENANT_QUERIES = tuple(
    TENANT_TEMPLATES[i % len(TENANT_TEMPLATES)] for i in range(TENANTS)
)

WORKLOADS = (
    StreamWorkload(
        "one_query",
        "One fused filter->project query over prebuilt Rows: engine routing, the "
        "fused closure and the sink do the work; no state, pool or transport.",
        Phases(closed_units=98_304, batch=4096, rate=150_000.0, step=512, paced_seconds=0.5),
        STANDING7[:1],
    ),
    StreamWorkload(
        "standing7",
        "The canonical 7 standing queries every legacy number cites: window fold, "
        "DISTINCT state and window close dominate.",
        Phases(closed_units=20_480, batch=4096, rate=34_000.0, step=128, paced_seconds=0.5),
        STANDING7,
    ),
    StreamWorkload(
        "standing7_rowpush",
        "Same 7 queries fed dict rows by per-row session.push, as wrapper and "
        "sensor results arrive; a batch-only gain that taxes the row path shows.",
        Phases(closed_units=9_216, batch=256, rate=14_000.0, step=64, paced_seconds=0.5),
        STANDING7,
        dict_rows=True,
        per_row=True,
    ),
    StreamWorkload(
        "tenants1k",
        "1000 standing queries over 20 templates: admission, plan cache, tee "
        "fan-out and cursor sinks dominate; the operator chain is a rounding error.",
        Phases(closed_units=700, batch=100, rate=550.0, step=10, paced_seconds=0.65, rounds=6),
        _TENANT_QUERIES,
        dict_rows=True,
    ),
    StreamWorkload(
        "xchg_pool4",
        "4-shard pool running 4 partition-unsafe plans exchanged: partition hash, "
        "shuffle barrier, merge coordinator and checkpoint barriers do the work.",
        Phases(closed_units=11_264, batch=1024, rate=12_000.0, step=48, paced_seconds=0.5),
        EXCHANGED4,
        connect={"shards": 4, "checkpoint_interval": 40.0},
        partition={"Readings": "room", "Events": "kind"},
        with_events=True,
        explain_codes=EXCHANGED4_CODES,
    ),
    StreamWorkload(
        "standing7_proc2",
        "The 7 queries on 2 worker processes: marshal pack/unpack, bounded queues "
        "and ack wait; on 2 cores a transport-cost number, never a speed-up.",
        Phases(closed_units=24_576, batch=4096, rate=27_000.0, step=128, paced_seconds=0.5, rounds=9),
        STANDING7,
        connect={"shards": 2, "workers": "process"},
        partition={"Readings": "host"},
        forbid_code="RA313",
    ),
    FederatedWorkload(
        "federated",
        "Sensor+stream join with the selective filter pushed onto 24 motes: "
        "optimizer partitioning, in-network execution and the federated residual.",
        Phases(closed_units=150, batch=1, rate=240.0, step=1, paced_seconds=0.5, rounds=9),
    ),
)
BY_NAME = {workload.name: workload for workload in WORKLOADS}
