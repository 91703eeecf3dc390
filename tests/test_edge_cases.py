"""Edge cases across the stack: grammar corners, topology changes,
mid-flight walk replacement, canned query templates, error hierarchy."""

import pytest

import repro.errors as errors
from repro.data import DataType, Schema, WindowKind
from repro.errors import AspenError, ParseError, QueryError
from repro.smartcis import queries as canned
from repro.sql import parse, parse_select, tokenize


class TestGrammarCorners:
    def test_incomplete_exponent_is_two_tokens(self):
        # "1e" is the number 1 followed by identifier e (no digits follow).
        values = [t.value for t in tokenize("1e")][:-1]
        assert values == ["1", "e"]

    def test_operator_at_eof(self):
        with pytest.raises(ParseError):
            parse("select a from T where a =")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_keywords_not_usable_as_identifiers(self):
        with pytest.raises(ParseError):
            parse("select select from T")

    def test_deeply_nested_parentheses(self):
        stmt = parse_select("select ((((a)))) from T")
        assert stmt.items[0].expr.render() == "a"

    def test_chained_comparisons_rejected(self):
        # a < b < c is not SQL; the second < must fail to parse cleanly.
        with pytest.raises(ParseError):
            parse("select a from T where a < b < c")

    def test_negative_literal_in_predicate(self):
        stmt = parse_select("select a from T where a > -5")
        assert "(- 5)" in stmt.where.render()

    def test_like_chain_with_and(self):
        stmt = parse_select(
            "select a from T where a like '%x%' and b not like 'y%'"
        )
        assert stmt.where.op == "AND"

    def test_multiple_windows_in_join(self):
        stmt = parse_select(
            "select a from T [RANGE 5 SECONDS], U [ROWS 3] where T.a = U.b"
        )
        kinds = [t.window.kind for t in stmt.tables]
        assert kinds == [WindowKind.RANGE, WindowKind.ROWS]


class TestCannedQueries:
    def test_all_templates_parse(self, catalog):
        texts = [
            canned.OPEN_MACHINE_INFO_VIEW,
            canned.FREE_MACHINE_QUERY,
            canned.FREE_MACHINE_QUERY_INLINE,
            canned.TEMPS_OF_MACHINES_IN_USE,
            canned.ROOM_STATUS,
            canned.overtemp_alarm_sql(35.0),
            canned.overload_alarm_sql(0.9),
            canned.resources_by_room_sql(30.0),
            canned.power_by_room_sql(30.0),
            canned.recent_sightings_sql(15.0),
        ]
        for text in texts:
            parse(text)  # must not raise

    def test_threshold_formatting(self):
        assert "35.5" in canned.overtemp_alarm_sql(35.5)
        assert "RANGE 45" in canned.resources_by_room_sql(45.0)


class TestTopologyChanges:
    def test_adding_mote_extends_tree_lazily(self, line_network):
        from repro.sensor import Mote, MoteRole, Position

        assert line_network.diameter == 5
        extension = Mote(6, Position(480.0, 0.0), MoteRole.ROOM, radio_range=100.0)
        line_network.add_mote(extension)
        # No explicit rebuild: topology refresh is lazy on next lookup.
        assert line_network.hops_to_base(6) == 6
        assert line_network.diameter == 6
        assert line_network.parent_of(6) == 5

    def test_new_mote_is_routable(self, line_network):
        from repro.sensor import Mote, MoteRole, Position

        line_network.add_mote(
            Mote(6, Position(480.0, 0.0), MoteRole.ROOM, radio_range=100.0)
        )
        assert line_network.route(6, 2) == [6, 5, 4, 3, 2]


class TestOccupantEdgeCases:
    def test_walk_replaced_mid_flight(self, simulator):
        from repro.building import Occupant, RoutingGraph
        from repro.sensor.mote import Position

        graph = RoutingGraph()
        for name, x in (("a", 0.0), ("b", 100.0), ("c", 200.0)):
            graph.add_point(name, Position(x, 0))
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("a", "c")
        occupant = Occupant("v", 1, simulator, graph, "a", speed=10.0)
        occupant.walk_to("c")       # via direct edge a->c (200 ft)
        simulator.run_for(2.0)      # 20 ft in
        occupant.walk_to("b")       # change of plans
        simulator.run_for(60.0)
        assert occupant.current_point == "b"
        assert not occupant.walking

    def test_route_start_mismatch_rejected(self, simulator):
        from repro.building import Occupant, Route, RoutingGraph
        from repro.errors import BuildingModelError
        from repro.sensor.mote import Position

        graph = RoutingGraph()
        graph.add_point("a", Position(0, 0))
        graph.add_point("b", Position(10, 0))
        graph.add_edge("a", "b")
        occupant = Occupant("v", 1, simulator, graph, "a")
        with pytest.raises(BuildingModelError, match="starts at"):
            occupant.walk_route(Route(("b", "a"), 10.0))


class TestAppStatementHandling:
    def test_double_start_rejected(self):
        from repro import SmartCIS

        app = SmartCIS(seed=1, lab_count=2)
        app.start()
        with pytest.raises(AspenError, match="already started"):
            app.start()

    def test_query_rejects_unknown_statement(self):
        from repro import SmartCIS

        app = SmartCIS(seed=1, lab_count=2)
        app.start()
        with pytest.raises(QueryError):
            app.query("drop table Machines")

    def test_view_registration_via_statement_then_query(self):
        from repro import SmartCIS

        app = SmartCIS(seed=1, lab_count=2)
        app.start()
        app.query(
            "create view Busy as (select ss.room, ss.desk from SeatSensors ss "
            "where ss.status = 'busy')"
        )
        app.building.room("lab1").desk("d1").occupied = True
        execution = app.execute_sql("select b.room, b.desk from Busy b")
        app.simulator.run_for(12.0)
        pairs = {(r["b.room"], r["b.desk"]) for r in execution.results()}
        assert ("lab1", "d1") in pairs


class TestErrorHierarchy:
    def test_every_error_is_aspen_error(self):
        classes = [
            getattr(errors, name)
            for name in dir(errors)
            if isinstance(getattr(errors, name), type)
            and issubclass(getattr(errors, name), Exception)
        ]
        for cls in classes:
            if cls is AspenError:
                continue
            assert issubclass(cls, AspenError), cls

    def test_parse_error_carries_position(self):
        error = ParseError("boom", line=3, column=7)
        assert error.line == 3 and "line 3" in str(error)

    def test_unknown_field_lists_candidates(self):
        from repro.errors import UnknownFieldError

        error = UnknownFieldError("zzz", ["a", "b"])
        assert "a, b" in str(error)


class TestSchemaEvolutionPaths:
    def test_replace_child_covers_every_operator(self, builder, catalog):
        """replace_child must rebuild every operator type the builder
        emits (the federated optimizer depends on this)."""
        from repro.plan import replace_child
        from repro.plan.logical import Scan

        catalog.register_display("lobby")
        plan = builder.build_sql(
            "select t.room, count(*) as n from Temps t "
            "where t.temp > 0 group by t.room having count(*) > 1 "
            "order by n desc limit 3 output to display 'lobby'"
        )
        # Replace the single Scan with itself-as-new-object via the whole chain.
        scan = [n for n in plan.walk() if isinstance(n, Scan)][0]
        new_scan = Scan(scan.entry, scan.binding, scan.window)

        def replace_descendant(node):
            if node is scan:
                return new_scan
            rebuilt = node
            for child in node.children:
                new_child = replace_descendant(child)
                if new_child is not child:
                    rebuilt = replace_child(rebuilt, child, new_child)
            return rebuilt

        rebuilt = replace_descendant(plan)
        assert rebuilt is not plan
        assert rebuilt.schema == plan.schema
        assert rebuilt.explain() == plan.explain()
