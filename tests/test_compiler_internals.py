"""Tests for the stream plan compiler and federated optimizer internals."""

import pytest
from conftest import generated, unfused

from repro.data import (
    CollectingConsumer,
    DataType,
    Row,
    Schema,
    StreamElement,
    WindowKind,
    WindowSpec,
)
from repro.data.windows import DEFAULT_STREAM_WINDOW
from repro.plan import Join, PlanBuilder, Scan, scans_of
from repro.plan.logical import RemoteSource, scan_window, side_window
from repro.sql.expressions import BinaryOp, ColumnRef
from repro.stream.compiler import PlanCompiler
from repro.stream.multiplex import SharedFeed


@pytest.fixture
def compiler():
    return PlanCompiler()


class TestPorts:
    def test_each_scan_gets_a_port(self, builder, compiler):
        plan = builder.build_sql(
            "select p.id from Person p, Machines m where p.room = m.room"
        )
        compiled = compiler.compile(plan, CollectingConsumer())
        assert sorted(p.binding for p in compiled.ports) == ["m", "p"]
        assert {p.source_name for p in compiled.ports} == {"Person", "Machines"}

    def test_ports_for_is_case_insensitive(self, builder, compiler):
        plan = builder.build_sql("select p.id from Person p")
        compiled = compiler.compile(plan, CollectingConsumer())
        assert compiled.ports_for("person") == compiled.ports_for("PERSON")

    def test_same_source_twice_two_ports(self, builder, compiler):
        plan = builder.build_sql(
            "select a.temp from Temps a, Temps b where a.room = b.room"
        )
        compiled = compiler.compile(plan, CollectingConsumer())
        assert len(compiled.ports_for("Temps")) == 2

    def test_port_renames_to_plan_schema(self, catalog, builder, compiler):
        plan = builder.build_sql("select p.id, p.room from Person p")
        sink = CollectingConsumer()
        compiled = compiler.compile(plan, sink)
        schema = catalog.source("Person").schema
        compiled.ports[0].consumer.push(
            StreamElement(Row(schema, (1, "lab1", "%")), 0.0)
        )
        assert sink.rows[0].schema.names == ["p.id", "p.room"]

    def test_remote_source_port_has_no_scan(self, compiler):
        remote = RemoteSource("r1", Schema.of(("O.room", DataType.STRING)), 1.0)
        compiled = compiler.compile(remote, CollectingConsumer())
        assert compiled.ports[0].scan is None
        assert compiled.ports[0].source_name == "r1"

    @pytest.mark.parametrize(
        "arm, op_name", [(generated, "FusedOp"), (unfused, "FilterOp")]
    )
    def test_stats_accumulate(self, builder, arm, op_name):
        # With fusion the Filter+Project chain is one FusedOp; unfused,
        # the FilterOp sees both rows and passes one.
        plan = builder.build_sql("select t.temp from Temps t where t.temp > 5")
        sink = CollectingConsumer()
        with arm():
            compiled = PlanCompiler().compile(plan, sink)
        schema_port = compiled.ports[0]

        temps_schema = Schema.of(("room", DataType.STRING), ("temp", DataType.FLOAT))
        for temp in (1.0, 10.0):
            schema_port.consumer.push(
                StreamElement(Row(temps_schema, ("x", temp)), 0.0)
            )
        stats = compiled.stats
        assert stats[f"{op_name}.in"] == 2 and stats[f"{op_name}.out"] == 1


class TestWindowInference:
    """The one window resolver (``scan_window`` / ``side_window``) the
    compiler, the analyses and the optimizers read through the plan."""

    def test_table_side_unbounded(self, builder):
        plan = builder.build_sql(
            "select t.temp from Temps t, Machines m where t.room = m.room"
        )
        scans = {s.binding: s for s in scans_of(plan)}
        assert side_window(scans["m"]).kind is WindowKind.UNBOUNDED
        assert side_window(scans["t"]) == DEFAULT_STREAM_WINDOW

    def test_explicit_window_wins(self, builder):
        plan = builder.build_sql("select t.temp from Temps t [RANGE 7 SECONDS]")
        scan = scans_of(plan)[0]
        assert scan_window(scan).size == 7

    def test_widest_range_propagates_up(self, builder):
        plan = builder.build_sql(
            "select a.temp from Temps a [RANGE 5 SECONDS], "
            "Temps b [RANGE 50 SECONDS] where a.room = b.room"
        )
        # The join's output window (for a hypothetical parent) is the max.
        assert side_window(plan).size == 50

    def test_remote_source_treated_as_stream(self):
        remote = RemoteSource("r", Schema.of(("x", DataType.INT)), 1.0)
        assert side_window(remote) == DEFAULT_STREAM_WINDOW

    def test_remote_source_keeps_the_window_it_carries(self):
        remote = RemoteSource(
            "r", Schema.of(("x", DataType.INT)), 1.0, window=WindowSpec.range(5.0)
        )
        assert side_window(remote) == WindowSpec.range(5.0)

    @pytest.mark.parametrize(
        "first, second",
        [("[ROWS 3]", "[RANGE 5 SECONDS]"), ("[RANGE 5 SECONDS]", "[ROWS 3]")],
    )
    def test_range_outranks_rows(self, builder, first, second):
        # Whatever the order, a side mixing a RANGE and a ROWS scan
        # buffers under the RANGE window (ROWS 3 is wider as a number).
        plan = builder.build_sql(
            f"select a.temp from Temps a {first}, Temps b {second} "
            "where a.room = b.room"
        )
        assert side_window(plan) == WindowSpec.range(5.0)

    def test_now_only_side_stays_now(self, builder):
        plan = builder.build_sql(
            "select a.temp from Temps a [NOW], Temps b [NOW] where a.room = b.room"
        )
        assert side_window(plan) == WindowSpec.now()

    def test_table_only_side_is_unbounded(self, builder):
        plan = builder.build_sql(
            "select m.host from Machines m, Route r where m.room = r.start"
        )
        assert side_window(plan) == WindowSpec.unbounded()

    def test_shared_feed_keeps_the_wrapped_scan_window(self, builder):
        plan = builder.build_sql(
            "select t.temp from Temps t [RANGE 7 SECONDS], Machines m "
            "where t.room = m.room"
        )
        scans = {s.binding: s for s in scans_of(plan)}
        feed = SharedFeed(scans["t"], chain_id=1)
        assert side_window(feed) == WindowSpec.range(7.0)
        join = Join(feed, scans["m"], None)
        assert join.windows == (WindowSpec.range(7.0), WindowSpec.unbounded())


class TestJoinKeys:
    """``Join.equi`` / ``residual``: the one split of a join predicate."""

    @pytest.fixture
    def scans(self, builder):
        plan = builder.build_sql(
            "select t.temp from Temps t, Machines m, Person p "
            "where t.room = m.room and m.room = p.room"
        )
        return {s.binding: s for s in scans_of(plan)}

    def test_equi_pairs_are_oriented_left_then_right(self, scans):
        predicate = BinaryOp("=", ColumnRef("m.room"), ColumnRef("t.room"))
        join = Join(scans["t"], scans["m"], predicate)
        assert join.equi == (("t.room", "m.room"),)
        assert join.residual is None

    def test_same_side_equality_is_residual(self, scans):
        same_side = BinaryOp("=", ColumnRef("t.room"), ColumnRef("m.room"))
        across = BinaryOp("=", ColumnRef("p.room"), ColumnRef("m.room"))
        inner = Join(scans["t"], scans["m"], None)
        join = Join(inner, scans["p"], BinaryOp("AND", same_side, across))
        assert join.equi == (("m.room", "p.room"),)
        assert join.residual == same_side

    def test_no_predicate_no_keys(self, scans):
        join = Join(scans["t"], scans["m"])
        assert join.equi == () and join.residual is None

    def test_describe_shows_each_side_window(self, builder):
        plan = builder.build_sql("select t.temp from Temps t, Temps u [ROWS 3]")
        scans = {s.binding: s for s in scans_of(plan)}
        predicate = BinaryOp("=", ColumnRef("t.room"), ColumnRef("u.room"))
        join = Join(scans["t"], scans["u"], predicate)
        assert join.describe() == "Join((t.room = u.room)) [RANGE 60 SECONDS | ROWS 3]"


class TestFederatedInternals:
    def test_replace_subtree_swaps_exact_node(self, catalog, builder):
        from repro.core.federated import _replace_subtree

        plan = builder.build_sql(
            "select sa.room from AreaSensors sa where sa.status = 'open'"
        )
        scan = [n for n in plan.walk() if isinstance(n, Scan)][0]
        remote = RemoteSource("x", scan.schema, 1.0)
        rebuilt = _replace_subtree(plan, scan, remote)
        assert remote in list(rebuilt.walk())
        assert not any(isinstance(n, Scan) for n in rebuilt.walk())
        # Original untouched.
        assert any(isinstance(n, Scan) for n in plan.walk())

    def test_overlapping_fragments_rejected(self, catalog, builder):
        from repro.core.federated import FederatedOptimizer

        plan = builder.build_sql(
            "select sa.room from AreaSensors sa where sa.status = 'open'"
        )
        inner = plan.children[0]
        assert FederatedOptimizer._overlapping([plan, inner])
        assert not FederatedOptimizer._overlapping([plan])

    def test_result_rate_shapes(self, catalog, line_network, builder):
        from repro.core import FederatedOptimizer

        optimizer = FederatedOptimizer(catalog, line_network)
        # Aggregation: one tuple per epoch.
        agg_plan = builder.build_sql("select count(*) from AreaSensors sa")
        federated = optimizer.optimize(agg_plan)
        agg_fragment = next(
            f for f in federated.pushed if f.deployment.kind == "aggregation"
        )
        assert agg_fragment.result_rate == pytest.approx(1 / 10.0)

    def test_fragment_ids_unique_across_optimizations(self, catalog, line_network, builder):
        from repro.core import FederatedOptimizer

        optimizer = FederatedOptimizer(catalog, line_network)
        plan_text = "select sa.room from AreaSensors sa where sa.status = 'open'"
        first = optimizer.optimize(builder.build_sql(plan_text))
        second = optimizer.optimize(builder.build_sql(plan_text))
        names_a = {f.name for f in first.pushed}
        names_b = {f.name for f in second.pushed}
        assert not names_a & names_b  # remote names never collide


class TestRemoteSourceRelations:
    def test_relations_expose_fragment_bindings(self):
        schema = Schema.of(
            ("sa.room", DataType.STRING), ("ss.desk", DataType.STRING)
        )
        remote = RemoteSource("r", schema, 1.0)
        assert remote.relations() == {"sa", "ss"}

    def test_unqualified_schema_falls_back_to_name(self):
        remote = RemoteSource("r", Schema.of(("x", DataType.INT)), 1.0)
        assert remote.relations() == {"r"}
