"""Energy and network-lifetime behaviour of in-network strategies.

Paper §1: computation is pushed to where it is appropriate "taking into
account capabilities, battery life, and network bandwidth". These tests
check that the energy model makes the optimizer's preferences *actually
pay off in battery terms* in simulation, not just in the cost model.
"""

import pytest

from repro.data import DataType, Schema
from repro.runtime import Simulator
from repro.sensor import (
    JoinPair,
    JoinStrategy,
    Mote,
    MoteRole,
    Position,
    SensorEngine,
    SensorNetwork,
    SensorRelation,
)
from repro.sql.expressions import BinaryOp, ColumnRef, Literal


def line_world(seed=5, battery_mj=600.0):
    """A 5-mote line with tiny batteries so depletion is observable."""
    from repro.sensor.energy import Battery

    simulator = Simulator(seed)
    network = SensorNetwork(simulator)
    network.add_basestation(Position(0, 0))
    for i in range(1, 6):
        mote = Mote(
            i, Position(i * 80.0, 0), MoteRole.WORKSTATION,
            radio_range=100.0, battery=Battery(battery_mj),
        )
        mote.attach_sensor("temp", lambda i=i: 20.0 + i)
        network.add_mote(mote)
    network.rebuild_topology()
    engine = SensorEngine(network)
    engine.register_relation(
        SensorRelation(
            "Temps",
            Schema.of(("node", DataType.INT), ("temp", DataType.FLOAT)),
            [1, 2, 3, 4, 5],
            lambda m: {"node": m.mote_id, "temp": m.sample("temp")},
            period=10.0,
        )
    )
    return simulator, network, engine


class TestEnergyAccounting:
    def test_relays_spend_more_than_leaves(self):
        simulator, network, engine = line_world()
        engine.deploy_collection("Temps")
        simulator.run_until(51.0)
        # Mote 1 relays everyone's traffic; mote 5 only its own.
        assert network.motes[1].battery.spent() > network.motes[5].battery.spent()
        assert network.motes[1].battery.spent("rx") > 0

    def test_aggregation_preserves_battery_vs_collection(self):
        sim_a, net_a, eng_a = line_world()
        eng_a.deploy_aggregation("Temps", [ColumnRef("temp")])
        sim_a.run_until(101.0)

        sim_c, net_c, eng_c = line_world()
        eng_c.deploy_collection("Temps")
        sim_c.run_until(101.0)

        assert net_a.total_energy_spent() < net_c.total_energy_spent()
        # The lifetime proxy (worst battery) is also better for TAG.
        assert net_a.min_battery_fraction() >= net_c.min_battery_fraction()

    def test_local_join_extends_bottleneck_lifetime(self):
        """With a selective predicate, join-at-sensor keeps the relay
        motes alive longer than ship-everything-to-base."""
        predicate = BinaryOp("<", ColumnRef("r.temp"), Literal(0.0))  # nothing passes

        def run(strategy):
            simulator, network, engine = line_world()
            engine.deploy_join(
                "Temps", "Temps",
                [JoinPair(4, 5, strategy), JoinPair(2, 3, strategy)],
                predicate, target_name="j", left_prefix="l", right_prefix="r",
            )
            simulator.run_until(201.0)
            return network.min_battery_fraction()

        assert run(JoinStrategy.AT_LEFT) > run(JoinStrategy.AT_BASE)

    def test_relay_depletion_partitions_the_network(self):
        """Small batteries: the relay motes near the base carry everyone's
        traffic and die first, after which reporting ceases even though
        the far mote still has charge — the classic energy-hole effect
        (and the reason the optimizer prices radio messages so high)."""
        simulator, network, engine = line_world(battery_mj=20.0)
        engine.deploy_collection("Temps")
        delivered = []
        engine.on_result = lambda n, v, t: delivered.append((v["node"], t))
        simulator.run_until(501.0)
        nodes_seen = {node for node, _ in delivered}
        assert nodes_seen == {1, 2, 3, 4, 5}  # everyone reported early on
        last_delivery = max(t for _, t in delivered)
        assert last_delivery < 400.0  # the network went dark mid-run
        # The bottleneck relay is dead; the leaf outlived its own uplink.
        assert not network.motes[1].alive
        assert network.motes[5].battery.fraction_remaining > 0
        # Traffic after the partition is dropped, not silently lost.
        assert network.stats.drops > 0

    def test_energy_categories_sum_to_total(self):
        simulator, network, engine = line_world()
        engine.deploy_collection("Temps")
        simulator.run_until(31.0)
        for mote in network.motes.values():
            total = mote.battery.spent()
            by_category = sum(mote.battery.spent_by_category.values())
            assert total == pytest.approx(by_category)


class TestMediatedFacade:
    def test_app_level_mediated_query(self):
        from repro import SmartCIS

        app = SmartCIS(seed=12, lab_count=2, desks_per_lab=2)
        app.start()
        app.register_mapping(
            "AllTemps",
            [
                "select wt.room as location, wt.temp_c as celsius "
                "from WorkstationTemps wt",
            ],
        )
        execution = app.execute_mediated(
            "select t.location, t.celsius from AllTemps t where t.celsius > 0"
        )
        app.simulator.run_for(25.0)
        assert execution.results
        assert {r["t.location"] for r in execution.results} <= set(app.building.rooms)
        execution.stop()

    def test_mediated_union_of_two_feeds(self):
        from repro import SmartCIS

        app = SmartCIS(seed=12, lab_count=2, desks_per_lab=2)
        app.start()
        app.register_mapping(
            "Activity",
            [
                "select ms.host as who, ms.cpu as level from MachineState ms",
                "select p.host as who, p.watts / 200 as level from Power p",
            ],
        )
        execution = app.execute_mediated("select a.who, a.level from Activity a")
        app.simulator.run_for(25.0)
        assert len(execution.variants) == 2
        assert all(handle.results() for handle in execution.variants)
