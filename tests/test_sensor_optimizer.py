"""Tests for the sensor-engine optimizer: capabilities, join placement, costs."""

import pytest

from repro.errors import UnsupportedQueryError
from repro.sensor import (
    JoinPair,
    JoinStrategy,
    SensorCostModel,
    SensorEngineOptimizer,
)
from repro.sql.expressions import ColumnRef


@pytest.fixture
def optimizer(catalog, line_network):
    return SensorEngineOptimizer(catalog, line_network)


class TestCapabilities:
    def test_sensor_filter_executable(self, optimizer, builder):
        plan = builder.build_sql(
            "select sa.room from AreaSensors sa where sa.status = 'open'"
        )
        # The Project/Select/Scan chain is in-network executable.
        assert optimizer.can_execute(plan)

    def test_stream_source_not_executable(self, optimizer, builder):
        plan = builder.build_sql("select p.id from Person p")
        assert not optimizer.can_execute(plan)

    def test_like_not_supported_on_motes(self, optimizer, builder):
        plan = builder.build_sql(
            "select sa.room from AreaSensors sa where sa.status like '%o%'"
        )
        assert not optimizer.can_execute(plan)

    def test_functions_not_supported(self, optimizer, builder):
        plan = builder.build_sql("select lower(sa.room) from AreaSensors sa")
        assert not optimizer.can_execute(plan)

    def test_aggregate_argument_checked_like_a_predicate(self, optimizer, builder):
        plan = builder.build_sql("select max(lower(sa.room)) from AreaSensors sa")
        assert not optimizer.can_execute(plan)

    def test_rows_windowed_aggregate_stays_in_the_residual(self, optimizer, builder):
        """One epoch record stands for many readings; ROWS counts readings."""
        plan = builder.build_sql("select count(*) from AreaSensors sa [ROWS 2]")
        with pytest.raises(UnsupportedQueryError, match="ROWS"):
            optimizer.plan_fragment(plan)
        ranged = builder.build_sql(
            "select count(*) from AreaSensors sa [RANGE 20 SECONDS SLIDE 10 SECONDS]"
        )
        assert optimizer.can_execute(ranged)

    def test_grouped_aggregate_not_supported(self, optimizer, builder):
        plan = builder.build_sql(
            "select sa.room, count(*) from AreaSensors sa group by sa.room"
        )
        assert not optimizer.can_execute(plan)

    def test_global_aggregate_supported(self, optimizer, builder):
        plan = builder.build_sql("select count(*) from AreaSensors sa")
        assert optimizer.can_execute(plan)

    def test_pairwise_sensor_join_supported(self, optimizer, builder):
        plan = builder.build_sql(
            "select sa.room from AreaSensors sa, SeatSensors ss "
            "where sa.room = ss.room and ss.status = 'free'"
        )
        assert optimizer.can_execute(plan)

    def test_mixed_join_not_supported(self, optimizer, builder):
        plan = builder.build_sql(
            "select sa.room from AreaSensors sa, Machines m where sa.room = m.room"
        )
        assert not optimizer.can_execute(plan)


class TestJoinSiteSelection:
    def test_adjacent_pair_joins_locally_under_selective_predicate(self, optimizer):
        decisions = optimizer.choose_join_sites([JoinPair(4, 5)], selectivity=0.1)
        decision = decisions[0]
        # hops: 4→base=4, 5→base=5, between=1.
        assert decision.cost_at_base == pytest.approx(9.0)
        assert decision.cost_at_left == pytest.approx(1.0 + 0.1 * 4)
        assert decision.cost_at_right == pytest.approx(1.0 + 0.1 * 5)
        assert decision.pair.strategy is JoinStrategy.AT_LEFT

    def test_unselective_predicate_may_prefer_base(self, optimizer):
        # With selectivity 1 and a huge inter-pair distance, shipping to
        # the base wins.
        decisions = optimizer.choose_join_sites([JoinPair(1, 5)], selectivity=1.0)
        decision = decisions[0]
        # base: 1+5=6; left: 4 + 1*1 = 5; right: 4 + 1*5 = 9 → AT_LEFT still.
        assert decision.pair.strategy is JoinStrategy.AT_LEFT
        assert decision.cost_at_base == pytest.approx(6.0)

    def test_per_pair_independence(self, optimizer):
        """The headline behaviour: different pairs get different sites."""
        decisions = optimizer.choose_join_sites(
            [JoinPair(1, 2), JoinPair(5, 4)], selectivity=0.5
        )
        strategies = {
            (d.pair.left_mote, d.pair.right_mote): d.pair.strategy for d in decisions
        }
        # Pair (1,2): left is 1 hop from base → join at left.
        assert strategies[(1, 2)] is JoinStrategy.AT_LEFT
        # Pair (5,4): right (4) is closer to base than left (5).
        assert strategies[(5, 4)] is JoinStrategy.AT_RIGHT

    def test_chosen_cost_is_minimum(self, optimizer):
        for pair in ([JoinPair(2, 3)], [JoinPair(1, 5)], [JoinPair(4, 4)]):
            decision = optimizer.choose_join_sites(pair, 0.3)[0]
            assert decision.chosen_cost == min(
                decision.cost_at_base, decision.cost_at_left, decision.cost_at_right
            )


class TestFragmentPlanning:
    def test_collection_fragment(self, optimizer, builder, catalog):
        plan = builder.build_sql(
            "select sa.room from AreaSensors sa where sa.status = 'open'"
        )
        deployment, cost = optimizer.plan_fragment(plan)
        assert deployment.kind == "collection"
        assert deployment.relations == ["AreaSensors"]
        assert cost.messages_per_epoch > 0
        assert cost.epoch_seconds == 10.0

    def test_selective_collection_cheaper(self, optimizer, builder):
        unfiltered = builder.build_sql("select sa.room from AreaSensors sa")
        filtered = builder.build_sql(
            "select sa.room from AreaSensors sa where sa.status = 'open'"
        )
        _, cost_all = optimizer.plan_fragment(unfiltered)
        _, cost_some = optimizer.plan_fragment(filtered)
        assert cost_some.messages_per_epoch < cost_all.messages_per_epoch

    def test_aggregation_fragment(self, optimizer, builder):
        plan = builder.build_sql("select count(*) from SeatSensors ss")
        deployment, cost = optimizer.plan_fragment(plan)
        assert deployment.kind == "aggregation"
        assert deployment.arguments == [None]  # the row, for COUNT(*)
        # Several calls share one record: one group per distinct argument.
        plan = builder.build_sql(
            "select count(*), count(ss.desk), max(ss.desk) from SeatSensors ss "
            "where ss.status = 'free'"
        )
        deployment, wide = optimizer.plan_fragment(plan)
        assert deployment.arguments == [None, ColumnRef("ss.desk")]
        assert deployment.predicate is not None
        assert wide.messages_per_epoch == cost.messages_per_epoch
        assert wide.bytes_per_epoch == 2 * cost.bytes_per_epoch

    def test_join_fragment_records_decisions(self, optimizer, builder):
        plan = builder.build_sql(
            "select sa.room from AreaSensors sa, SeatSensors ss "
            "where sa.room = ss.room and sa.status = 'open'"
        )
        deployment, cost = optimizer.plan_fragment(plan)
        assert deployment.kind == "join"
        assert len(deployment.decisions) == 3  # zip of (1,2,3)×(4,5,6)
        assert cost.messages_per_epoch == pytest.approx(
            sum(d.chosen_cost for d in deployment.decisions)
        )

    def test_pairing_provider_overrides_zip(self, optimizer, builder):
        optimizer.pairing_provider = lambda left, right: [JoinPair(1, 4), JoinPair(1, 5)]
        plan = builder.build_sql(
            "select sa.room from AreaSensors sa, SeatSensors ss where sa.room = ss.room"
        )
        deployment, _ = optimizer.plan_fragment(plan)
        assert [(p.left_mote, p.right_mote) for p in deployment.pairs] == [(1, 4), (1, 5)]

    def test_unsupported_fragment_raises(self, optimizer, builder):
        plan = builder.build_sql("select p.id from Person p")
        with pytest.raises(UnsupportedQueryError):
            optimizer.plan_fragment(plan)

    def test_messages_per_second(self, optimizer, builder):
        plan = builder.build_sql("select sa.room from AreaSensors sa")
        _, cost = optimizer.plan_fragment(plan)
        assert cost.messages_per_second == pytest.approx(
            cost.messages_per_epoch / cost.epoch_seconds
        )


class TestCostModelFallbacks:
    def test_without_network_uses_catalog_diameter(self, catalog):
        model = SensorCostModel(catalog, network=None)
        catalog.network.diameter = 6
        assert model.hops_to_base(99) == 3.0
        assert model.hop_distance(1, 2) == 1.0

    def test_aggregation_cost_counts_tree_edges(self, catalog, line_network):
        model = SensorCostModel(catalog, line_network)
        messages, _ = model.aggregation_cost((1, 2, 3, 4, 5))
        assert messages == 5.0  # line: one edge per mote

    def test_aggregation_cost_includes_relay_edges(self, catalog, line_network):
        model = SensorCostModel(catalog, line_network)
        messages, _ = model.aggregation_cost((5,))
        assert messages == 5.0  # deep mote drags PSR through every relay
