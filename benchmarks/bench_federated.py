"""Microbenchmark — in-network execution vs ship-everything radio cost.

The federated optimizer's whole reason to exist (paper §3) is that
radio messages, not CPU, dominate a sensor deployment's budget. This
bench runs the same mixed sensor+stream SELECT two ways over identical
simulated worlds and counts actual radio transmissions in the simulated
network:

* **in_network** — ``session.query(sql)`` routes through the
  ``FederatedBackend``: the selective filter deploys *on the motes*, so
  only passing samples climb the multihop collection tree;
* **ship_everything** — ``engine="stream"``: a raw collection ships
  every sample to the basestation and the PC-side stream engine filters
  there (the pre-federation Session behaviour for sensor scans).

The **aggregate** arm runs ``COUNT(*), MAX(temp) WHERE temp > x`` the
same two ways: in-network, every mote folds its filtered reading into
one epoch record and forwards one message per collection-tree edge,
which the residual's own Aggregate finishes; ship-everything collects
every sample raw.

Both runs of each arm must produce identical result rows (asserted),
so the reduction is pure message savings, not dropped answers. The
runs punctuate once per sampling period, so a running aggregate emits
its totals per epoch. Results go to
``BENCH_federated.json`` (directory override: ``REPRO_BENCH_DIR``);
``REPRO_BENCH_SCALE`` shrinks the simulated duration for smoke runs,
where the reduction threshold is skipped.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.api import SensorSource, StreamSource, connect
from repro.data import DataType, Schema
from repro.runtime import Simulator
from repro.sensor import Mote, MoteRole, Position, SensorNetwork, SensorRelation

ARTIFACT_NAME = "BENCH_federated.json"

TEMPS = Schema.of(("room", DataType.STRING), ("temp", DataType.FLOAT))
LOAD = Schema.of(("room", DataType.STRING), ("load", DataType.FLOAT))

#: Motes per chain arm and arms — a multihop tree so every shipped
#: sample costs several transmissions.
ARMS = 4
MOTES_PER_ARM = 6
SAMPLE_PERIOD = 5.0
#: Filter threshold: passes roughly a third of the samples.
THRESHOLD = 24.0

QUERY = (
    "select g.room, g.temp, l.load from GridTemps g, GridLoad l "
    f"where g.room = l.room and g.temp > {THRESHOLD}"
)
AGGREGATE_QUERY = (
    f"select count(*), max(g.temp) from GridTemps g where g.temp > {THRESHOLD}"
)


#: Arm directions (one straight chain per compass direction) and the
#: mote spacing. With a 50ft radio the reliable disc is 30ft: adjacent
#: chain motes (28ft) are loss-free, the next-nearest (56ft) is out of
#: range entirely — so every collection-tree edge delivers with
#: probability 1 and the two runs see byte-identical data, while every
#: sample still pays one transmission per tree hop.
_ARM_DIRECTIONS = [(1, 0), (-1, 0), (0, 1), (0, -1)]
_SPACING = 28.0
_RADIO_RANGE = 50.0


def _build_world(seed: int):
    """A 4-arm star of multihop chains sampling a deterministic
    function of mote id and sim time."""
    simulator = Simulator(seed)
    network = SensorNetwork(simulator)
    network.add_basestation(Position(0.0, 0.0), radio_range=_RADIO_RANGE)
    mote_ids = []
    for arm in range(ARMS):
        dx, dy = _ARM_DIRECTIONS[arm]
        for depth in range(1, MOTES_PER_ARM + 1):
            mote_id = arm * MOTES_PER_ARM + depth
            x, y = dx * depth * _SPACING, dy * depth * _SPACING
            mote = Mote(
                mote_id, Position(x, y), MoteRole.ROOM, radio_range=_RADIO_RANGE
            )
            mote.attach_sensor(
                "temp",
                lambda m=mote_id, sim=simulator: 15.0
                + (m % 5) * 3.0
                + (sim.now * 1.3) % 7.0,
            )
            network.add_mote(mote)
            mote_ids.append(mote_id)
    network.rebuild_topology()
    session = connect(network=network, simulator=simulator)
    relation = SensorRelation(
        "GridTemps",
        TEMPS,
        mote_ids,
        lambda mote: {
            "room": f"room{mote.mote_id % 4}",
            "temp": round(mote.sample("temp"), 2),
        },
        period=SAMPLE_PERIOD,
    )
    return session, simulator, network, relation


def _run(seed: int, duration: float, federated: bool, query: str):
    session, simulator, network, relation = _build_world(seed)
    # The federated run deploys its own (filtered) fragment collection;
    # the ship-everything run needs the raw collection the SensorSource
    # deploys, feeding the stream engine's sensor scan directly.
    session.attach(SensorSource(relation, deploy=not federated))
    session.attach(StreamSource("GridLoad", LOAD, rate=1.0))
    cursor = session.query(query) if federated else session.query(query, engine="stream")
    before = network.stats.snapshot()
    clock = 0.0
    while clock < duration:
        simulator.run_for(SAMPLE_PERIOD)
        clock += SAMPLE_PERIOD
        for room in range(4):
            session.push(
                "GridLoad",
                {"room": f"room{room}", "load": round((clock + room) % 1.0, 3)},
                simulator.now,
            )
        session.punctuate(simulator.now)
    simulator.run_for(2.0)  # drain in-flight radio deliveries
    session.punctuate(simulator.now)
    stats = network.stats.delta(before)
    rows = sorted(
        (round(e.timestamp, 3), repr(e.row.values))
        for e in cursor._handle.sink.elements
    )
    kind = cursor.kind
    deployments = [f.deployment.kind for f in cursor.federated_plan.pushed] if federated else []
    session.close()
    return {
        "kind": kind,
        "deployments": deployments,
        "transmissions": stats.transmissions,
        "bytes": stats.bytes_transmitted,
        "messages_per_second": round(stats.transmissions / duration, 3),
        "rows": rows,
    }


def _compare(query: str, duration: float) -> dict:
    """One arm: ``query`` in-network, then shipping everything."""
    in_network = _run(7, duration, True, query)
    ship = _run(7, duration, False, query)
    assert in_network["kind"] == "federated" and ship["kind"] == "stream"
    reduction = (
        ship["transmissions"] / in_network["transmissions"]
        if in_network["transmissions"]
        else None
    )
    return {
        "query": " ".join(query.split()),
        "in_network": {k: v for k, v in in_network.items() if k != "rows"},
        "ship_everything": {k: v for k, v in ship.items() if k != "rows"},
        "result_rows": len(in_network["rows"]),
        "identical_results": in_network["rows"] == ship["rows"],
        # The acceptance ratio: radio messages the in-network plan saves
        # over pulling every sample to the basestation.
        "radio_message_reduction": round(reduction, 2) if reduction else None,
    }


def run_benchmarks(scale: float | None = None) -> dict:
    if scale is None:
        scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    duration = max(4, int(80 * scale)) * SAMPLE_PERIOD
    return {
        "benchmark": "federated",
        "scale": scale,
        "simulated_seconds": duration,
        "motes": ARMS * MOTES_PER_ARM,
        **_compare(QUERY, duration),
        "aggregate": _compare(AGGREGATE_QUERY, duration),
    }


def write_artifact(results: dict, directory: str | os.PathLike | None = None) -> Path:
    if directory is None:
        directory = os.environ.get(
            "REPRO_BENCH_DIR", Path(__file__).resolve().parent.parent
        )
    path = Path(directory) / ARTIFACT_NAME
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def test_federated_radio_reduction(table_printer):
    results = run_benchmarks()
    path = write_artifact(results)
    aggregate = results["aggregate"]
    table_printer(
        f"in-network vs ship-everything radio cost (artifact: {path})",
        ["arm", "plan", "transmissions", "msgs/s"],
        [
            [arm, name, result[name]["transmissions"], result[name]["messages_per_second"]]
            for arm, result in (("join", results), ("aggregate", aggregate))
            for name in ("in_network", "ship_everything")
        ],
    )
    for arm, result in (("join", results), ("aggregate", aggregate)):
        print(
            f"  {arm} reduction: {result['radio_message_reduction']}x over "
            f"{results['simulated_seconds']:.0f} simulated seconds "
            f"({result['result_rows']} identical result rows)"
        )
        # Correctness first: the savings must not come from lost answers.
        assert result["identical_results"]
        assert result["in_network"]["transmissions"] > 0
    assert aggregate["in_network"]["deployments"] == ["aggregation"]
    # Acceptance threshold of the federated path, full scale only —
    # smoke durations are a handful of epochs.
    if results["scale"] >= 1.0:
        assert results["radio_message_reduction"] >= 1.5


if __name__ == "__main__":
    results = run_benchmarks()
    path = write_artifact(results)
    print(json.dumps(results, indent=2))
    print(f"artifact written to {path}")
