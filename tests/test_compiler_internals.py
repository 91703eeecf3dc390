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
from repro.plan import PlanBuilder, Scan, scans_of
from repro.plan.logical import RemoteSource
from repro.stream.compiler import DEFAULT_STREAM_WINDOW, PlanCompiler


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
    def test_table_side_unbounded(self, builder, compiler):
        plan = builder.build_sql(
            "select t.temp from Temps t, Machines m where t.room = m.room"
        )
        scans = {s.binding: s for s in scans_of(plan)}
        assert compiler._side_window(scans["m"]).kind is WindowKind.UNBOUNDED
        assert compiler._side_window(scans["t"]) == DEFAULT_STREAM_WINDOW

    def test_explicit_window_wins(self, builder, compiler):
        plan = builder.build_sql("select t.temp from Temps t [RANGE 7 SECONDS]")
        scan = scans_of(plan)[0]
        assert compiler._scan_window(scan).size == 7

    def test_widest_range_propagates_up(self, builder, compiler):
        plan = builder.build_sql(
            "select a.temp from Temps a [RANGE 5 SECONDS], "
            "Temps b [RANGE 50 SECONDS] where a.room = b.room"
        )
        # The join's output window (for a hypothetical parent) is the max.
        assert compiler._side_window(plan).size == 50

    def test_remote_source_treated_as_stream(self, compiler):
        remote = RemoteSource("r", Schema.of(("x", DataType.INT)), 1.0)
        assert compiler._side_window(remote) == DEFAULT_STREAM_WINDOW


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
