"""Tests for in-network query execution: collection, aggregation, joins."""

import pytest

from conftest import generated, interpreted
from repro.data import DataType, Schema
from repro.runtime import Simulator
from repro.sensor import (
    HEADER_BYTES,
    HOP_LATENCY,
    JoinPair,
    JoinStrategy,
    Mote,
    MoteRole,
    Position,
    SensorEngine,
    SensorNetwork,
    SensorRelation,
)
from repro.sensor.engine import PSR_BYTES
from repro.sql.expressions import BinaryOp, ColumnRef, Literal

TEMPS_SCHEMA = Schema.of(("node", DataType.INT), ("temp", DataType.FLOAT))


@pytest.fixture
def sensor_engine(line_network):
    results = []
    engine = SensorEngine(
        line_network, on_result=lambda n, v, t: results.append((n, v, t))
    )
    engine.results = results  # test-side handle
    engine.register_relation(
        SensorRelation(
            "Temps",
            TEMPS_SCHEMA,
            [1, 2, 3, 4, 5],
            lambda m: {"node": m.mote_id, "temp": m.sample("temp")},
            period=10.0,
        )
    )
    return engine


class TestCollection:
    def test_all_tuples_collected_without_predicate(self, sensor_engine, simulator):
        sensor_engine.deploy_collection("Temps")
        simulator.run_until(11.0)
        nodes = sorted(v["node"] for _, v, _ in sensor_engine.results)
        assert nodes == [1, 2, 3, 4, 5]

    def test_predicate_filters_at_mote(self, sensor_engine, line_network, simulator):
        predicate = BinaryOp(">", ColumnRef("temp"), Literal(23.5))
        before = line_network.stats.snapshot()
        sensor_engine.deploy_collection("Temps", predicate)
        simulator.run_until(11.0)
        nodes = sorted(v["node"] for _, v, _ in sensor_engine.results)
        assert nodes == [4, 5]  # temps 24, 25
        # Filtering happened before transmission: fewer messages than
        # collecting everything (Σ hops = 15 without filter).
        assert line_network.stats.delta(before).transmissions < 15

    def test_key_prefix_qualifies_tuples(self, sensor_engine, simulator):
        sensor_engine.deploy_collection("Temps", key_prefix="t")
        simulator.run_until(11.0)
        _, values, _ = sensor_engine.results[0]
        assert values.schema.names == ["t.node", "t.temp"]

    def test_delivery_timestamp_is_sample_time(self, sensor_engine, simulator):
        sensor_engine.deploy_collection("Temps")
        simulator.run_until(11.0)
        assert all(t == 10.0 for _, _, t in sensor_engine.results)

    def test_stop_halts_epochs(self, sensor_engine, simulator):
        deployed = sensor_engine.deploy_collection("Temps")
        simulator.run_until(11.0)
        first = len(sensor_engine.results)
        deployed.stop()
        simulator.run_until(31.0)
        assert len(sensor_engine.results) == first

    def test_a_reading_its_column_does_not_admit_raises(self, line_network, simulator):
        """A sample is input from outside the program: it becomes a
        checked Row, as a dict pushed into the stream engine does."""
        from repro.errors import TypeMismatchError

        engine = SensorEngine(line_network)
        engine.register_relation(
            SensorRelation(
                "Temps", TEMPS_SCHEMA, [1],
                lambda m: {"node": m.mote_id, "temp": "hot"}, period=10.0,
            )
        )
        engine.deploy_collection("Temps")
        with pytest.raises(TypeMismatchError, match="temp"):
            simulator.run_until(11.0)

    def test_dead_mote_skips_epoch(self, sensor_engine, line_network, simulator):
        mote = line_network.motes[5]
        mote.battery.spend(mote.battery.capacity_mj + 1, "idle")
        sensor_engine.deploy_collection("Temps")
        simulator.run_until(11.0)
        nodes = sorted(v["node"] for _, v, _ in sensor_engine.results)
        assert 5 not in nodes


class TestAggregation:
    """The epoch record: one ``(count, sum, min, max)`` group per folded
    argument, flattened under ``a<i>_<field>`` names."""

    TEMP = ColumnRef("temp")

    def test_record_folds_every_reading(self, sensor_engine, simulator):
        sensor_engine.deploy_aggregation("Temps", [self.TEMP])
        simulator.run_until(10.5)
        _, record, time = sensor_engine.results[-1]
        # Five motes reading 21..25.
        assert record == {"a0_count": 5, "a0_sum": 115.0, "a0_min": 21.0, "a0_max": 25.0}
        assert time == 10.0  # stamped with the sample time

    def test_predicate_row_and_expression_arguments(self, sensor_engine, simulator):
        double = BinaryOp("*", self.TEMP, Literal(2.0))
        sensor_engine.deploy_aggregation(
            "Temps",
            [None, self.TEMP, double],
            BinaryOp(">", self.TEMP, Literal(22.5)),
        )
        simulator.run_until(10.5)
        _, record, _ = sensor_engine.results[-1]
        # None is the row (COUNT(*)): counted, never summed.
        assert [record[f"a0_{f}"] for f in ("count", "sum", "min", "max")] == [
            3, None, None, None
        ]
        assert [record[f"a1_{f}"] for f in ("count", "sum", "min", "max")] == [
            3, 72.0, 23.0, 25.0
        ]
        assert record["a2_sum"] == 144.0

    def test_nothing_passes_nothing_sent(self, sensor_engine, line_network, simulator):
        before = line_network.stats.snapshot()
        sensor_engine.deploy_aggregation(
            "Temps", [self.TEMP], BinaryOp(">", self.TEMP, Literal(99.0))
        )
        simulator.run_until(10.5)
        assert sensor_engine.results == []
        assert line_network.stats.delta(before).transmissions == 0

    def test_record_arrives_one_hop_per_tree_level(self, line_network, simulator):
        arrivals = []
        engine = SensorEngine(
            line_network,
            on_result=lambda n, v, t: arrivals.append((simulator.now, t)),
        )
        engine.register_relation(
            SensorRelation(
                "Temps", TEMPS_SCHEMA, [1, 2, 3, 4, 5],
                lambda m: {"node": m.mote_id, "temp": m.sample("temp")}, period=10.0,
            )
        )
        engine.deploy_aggregation("Temps", [self.TEMP])
        simulator.run_until(10.5)
        # A five-deep chain: no earlier than the deepest collection tuple.
        assert arrivals == [(pytest.approx(10.0 + 5 * HOP_LATENCY), 10.0)]

    def test_message_count_one_per_tree_edge(self, sensor_engine, line_network, simulator):
        sensor_engine.deploy_aggregation("Temps", [None, self.TEMP])
        before = line_network.stats.snapshot()
        simulator.run_until(10.5)
        delta = line_network.stats.delta(before)
        # Line of 5 motes: exactly 5 PSR transmissions (plus possible retries),
        # each carrying 32 bytes per argument.
        assert 5 <= delta.transmissions <= 8
        assert delta.bytes_transmitted == delta.transmissions * (2 * PSR_BYTES + HEADER_BYTES)

    def test_aggregation_cheaper_than_collection(self, sensor_engine, line_network, simulator):
        """TAG's point: tree aggregation sends one PSR per edge; raw
        collection pays full depth per tuple."""
        agg = sensor_engine.deploy_aggregation("Temps", [self.TEMP])
        before = line_network.stats.snapshot()
        simulator.run_until(10.5)
        agg_msgs = line_network.stats.delta(before).transmissions
        agg.stop()
        sensor_engine.deploy_collection("Temps")
        before = line_network.stats.snapshot()
        simulator.run_until(22.0)  # epoch at 20.5 plus multihop relays
        collect_msgs = line_network.stats.delta(before).transmissions
        assert agg_msgs < collect_msgs


class TestJoins:
    def predicate(self):
        # right side's temp below threshold (like the light-level check)
        return BinaryOp("<", ColumnRef("r.temp"), Literal(23.5))

    def deploy(self, sensor_engine, strategy, pairs=None):
        pairs = pairs or [JoinPair(4, 1, strategy), JoinPair(5, 2, strategy)]
        return sensor_engine.deploy_join(
            "Temps",
            "Temps",
            pairs,
            self.predicate(),
            target_name="joined",
            left_prefix="l",
            right_prefix="r",
        )

    @pytest.mark.parametrize(
        "strategy",
        [JoinStrategy.AT_BASE, JoinStrategy.AT_LEFT, JoinStrategy.AT_RIGHT],
    )
    def test_join_semantics_identical_across_strategies(
        self, sensor_engine, simulator, strategy
    ):
        self.deploy(sensor_engine, strategy)
        simulator.run_until(12.0)
        rows = [v for n, v, _ in sensor_engine.results if n == "joined"]
        # Both pairs pass: right temps are 21 and 22 (< 23.5).
        assert len(rows) == 2
        assert {r["l.node"] for r in rows} == {4, 5}
        assert all(r.schema.names == ["l.node", "l.temp", "r.node", "r.temp"] for r in rows)

    def test_local_join_filters_before_uplink(self, sensor_engine, line_network, simulator):
        # Predicate failing for every pair: local strategies send almost
        # nothing to the base.
        predicate = BinaryOp("<", ColumnRef("r.temp"), Literal(0.0))
        sensor_engine.deploy_join(
            "Temps", "Temps",
            [JoinPair(4, 5, JoinStrategy.AT_RIGHT)],
            predicate,
            target_name="never",
            left_prefix="l", right_prefix="r",
        )
        before = line_network.stats.snapshot()
        simulator.run_until(11.0)
        delta = line_network.stats.delta(before)
        # Only the 1-hop ship between neighbors 4→5; no uplink.
        assert delta.transmissions <= 2
        assert not [v for n, v, _ in sensor_engine.results if n == "never"]

    def test_at_base_sends_both_sides_up(self, sensor_engine, line_network, simulator):
        sensor_engine.deploy_join(
            "Temps", "Temps",
            [JoinPair(4, 5, JoinStrategy.AT_BASE)],
            None,
            target_name="allup",
            left_prefix="l", right_prefix="r",
        )
        before = line_network.stats.snapshot()
        simulator.run_until(11.0)
        delta = line_network.stats.delta(before)
        # 4 hops + 5 hops = 9 transmissions minimum.
        assert delta.transmissions >= 9
        assert [v for n, v, _ in sensor_engine.results if n == "allup"]

    def test_unknown_relation_rejected(self, sensor_engine):
        from repro.errors import SensorNetworkError

        with pytest.raises(SensorNetworkError, match="unknown sensor relation"):
            sensor_engine.deploy_collection("Nope")

    def test_duplicate_relation_rejected(self, sensor_engine):
        from repro.errors import SensorNetworkError

        with pytest.raises(SensorNetworkError, match="already registered"):
            sensor_engine.register_relation(
                SensorRelation("Temps", TEMPS_SCHEMA, [1], lambda m: {}, 1.0)
            )


READINGS = Schema.of(("node", DataType.INT), ("temp", DataType.FLOAT), ("room", DataType.STRING))
#: Per mote: a NULL reading (3), an int in the FLOAT column (2).
TEMP = {1: 21.0, 2: 22, 3: None, 4: 24.0, 5: 21.5}
ROOM = {1: "lab1", 2: "lab2", 3: "lab1", 4: "office", 5: "lab2"}


def _column(name, binding=None):
    return ColumnRef(f"{binding}.{name}" if binding else name)


def _collect(binding):
    def deploy(engine):
        # lab1 or at least 22: motes 1-4 pass (3 with a NULL temp), 5 fails.
        predicate = BinaryOp(
            "OR",
            BinaryOp("LIKE", _column("room", binding), Literal("lab1")),
            BinaryOp(">=", _column("temp", binding), Literal(22)),
        )
        engine.deploy_collection("Readings", predicate, key_prefix=binding)

    return deploy


def _aggregate(engine):
    temp = _column("temp", "r")
    engine.deploy_aggregation(
        "Readings",
        [None, temp, BinaryOp("*", temp, Literal(2.0))],
        BinaryOp("LIKE", _column("room", "r"), Literal("lab%")),
        key_prefix="r",
    )


def _join(strategy):
    def deploy(engine):
        # (4, 1) passes on temps; (5, 2) on the right's room, against an
        # int; (3, 1) compares a NULL and fails.
        predicate = BinaryOp(
            "OR",
            BinaryOp(">=", _column("temp", "l"), _column("temp", "r")),
            BinaryOp("LIKE", _column("room", "r"), Literal("%2")),
        )
        engine.deploy_join(
            "Readings", "Readings",
            [JoinPair(4, 1, strategy), JoinPair(5, 2, strategy), JoinPair(3, 1, strategy)],
            predicate,
            target_name="joined", left_prefix="l", right_prefix="r",
        )

    return deploy


MOTE_DEPLOYS = {
    "collection": _collect(None),
    "collection_bound": _collect("r"),
    "aggregation": _aggregate,
    **{f"join_{s.value}": _join(s) for s in JoinStrategy},
}


def _deliveries(arm, deploy) -> list:
    """What ``deploy`` delivers over three epochs on a fresh line world,
    its evaluators compiled inside ``arm``: each tuple as its names and
    the ``repr`` of its values, so an int read as a float shows."""
    simulator = Simulator(seed=42)
    network = SensorNetwork(simulator)
    network.add_basestation(Position(0, 0))
    for i in range(1, 6):
        network.add_mote(Mote(i, Position(i * 80.0, 0.0), MoteRole.WORKSTATION, radio_range=100.0))
    network.rebuild_topology()
    results = []
    engine = SensorEngine(
        network,
        on_result=lambda n, v, t: results.append(
            (n, repr(v) if isinstance(v, dict) else (v.schema.names, repr(v.values)), t)
        ),
    )
    engine.register_relation(
        SensorRelation(
            "Readings",
            READINGS,
            [1, 2, 3, 4, 5],
            lambda m: {"node": m.mote_id, "temp": TEMP[m.mote_id], "room": ROOM[m.mote_id]},
            period=10.0,
        )
    )
    with arm():
        deploy(engine)
    simulator.run_until(31.0)
    return results


class TestMoteEvaluators:
    """Each primitive compiles its predicate and arguments at deploy and
    delivers exactly what the interpreter's fallback delivers."""

    @pytest.mark.parametrize("case", sorted(MOTE_DEPLOYS))
    def test_generated_delivers_what_interpreted_delivers(self, case):
        reference = _deliveries(interpreted, MOTE_DEPLOYS[case])
        assert reference
        assert _deliveries(generated, MOTE_DEPLOYS[case]) == reference

    def test_what_the_readings_deliver(self):
        collected = _deliveries(generated, MOTE_DEPLOYS["collection"])
        assert sorted({values for _, (_, values), _ in collected}) == [
            "(1, 21.0, 'lab1')", "(2, 22, 'lab2')", "(3, None, 'lab1')", "(4, 24.0, 'office')",
        ]
        _, record, _ = _deliveries(generated, MOTE_DEPLOYS["aggregation"])[0]
        # COUNT(*) counts mote 3's row; the NULL folds into no argument.
        assert record == repr({
            "a0_count": 4, "a0_sum": None, "a0_min": None, "a0_max": None,
            "a1_count": 3, "a1_sum": 64.5, "a1_min": 21.0, "a1_max": 22,
            "a2_count": 3, "a2_sum": 129.0, "a2_min": 42.0, "a2_max": 44.0,
        })
        joined = _deliveries(generated, MOTE_DEPLOYS["join_at-left"])
        assert sorted({values for _, (_, values), _ in joined}) == [
            "(4, 24.0, 'office', 1, 21.0, 'lab1')", "(5, 21.5, 'lab2', 2, 22, 'lab2')",
        ]
