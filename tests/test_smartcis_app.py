"""Integration tests for the assembled SmartCIS application."""

import pytest

from repro import SmartCIS
from repro.errors import AspenError, BuildingModelError
from repro.smartcis import render_app
from repro.sql.compiled import compile_counts
from repro.smartcis.queries import (
    FREE_MACHINE_QUERY,
    TEMPS_OF_MACHINES_IN_USE,
    power_by_room_sql,
)


@pytest.fixture(scope="module")
def app() -> SmartCIS:
    """One warmed-up application shared by read-only tests."""
    app = SmartCIS(seed=7, lab_count=2, desks_per_lab=2, server_count=2)
    app.start()
    app.simulator.run_for(25.0)
    return app


class TestMonitoringState:
    def test_room_status_collected(self, app):
        for room_id in app.building.rooms:
            assert app.state.room_is_open(room_id)  # everything starts open

    def test_seat_status_collected(self, app):
        assert app.state.free_seats()  # nobody seated yet

    def test_machine_temps_collected(self, app):
        assert app.state.machine_temp  # workstation motes reporting

    def test_machine_state_via_wrapper(self, app):
        assert "srv1" in app.state.machine_state

    def test_power_via_pdu_scrape(self, app):
        assert app.state.power
        assert all(obs.value > 0 for obs in app.state.power.values())

    def test_staleness_bounded_by_periods(self, app):
        staleness = app.state.staleness(app.simulator.now)
        assert staleness["seat_status"] <= 6.0
        assert staleness["room_status"] <= 11.0


class TestStateReactsToWorld:
    def test_closing_a_lab_is_observed(self):
        app = SmartCIS(seed=8, lab_count=2, desks_per_lab=2)
        app.start()
        app.simulator.run_for(15.0)
        assert app.state.room_is_open("lab1")
        room = app.building.room("lab1")
        room.lights_on = False
        room.door_open = False
        app.simulator.run_for(12.0)
        assert not app.state.room_is_open("lab1")

    def test_sitting_down_flips_seat_busy(self):
        app = SmartCIS(seed=8, lab_count=2, desks_per_lab=2)
        app.start()
        app.simulator.run_for(10.0)
        app.building.room("lab1").desk("d1").occupied = True
        app.simulator.run_for(6.0)
        assert not app.state.seat_is_free("lab1", "d1")
        assert app.state.seat_is_free("lab1", "d2")


class TestVisitorFlow:
    def test_add_locate_guide(self):
        app = SmartCIS(seed=9, lab_count=2, desks_per_lab=2)
        app.start()
        app.simulator.run_for(15.0)
        app.add_visitor("alice", needed="%Fedora%")
        app.simulator.run_for(6.0)
        assert app.locate_visitor("alice") == "lobby"
        guidance = app.guide_visitor("alice", "%Fedora%")
        assert guidance.route.start == "lobby"
        assert guidance.route.points[-1] == f"{guidance.room}.{guidance.desk}"
        # The machine really has Fedora.
        spec = next(s for s in app.deployment.machine_specs if s.host == guidance.host)
        assert "Fedora" in spec.software

    def test_guidance_prefers_nearest(self):
        app = SmartCIS(seed=9, lab_count=3, desks_per_lab=2)
        app.start()
        app.simulator.run_for(15.0)
        app.add_visitor("bob", needed="%")
        app.simulator.run_for(6.0)
        guidance = app.guide_visitor("bob")
        for host, room, desk in app.find_free_machines("%"):
            other = app.router.route("lobby", app.deployment.desk_point(room, desk))
            assert guidance.route.distance <= other.distance + 1e-9

    def test_unknown_visitor(self, app):
        with pytest.raises(BuildingModelError):
            app.locate_visitor("nobody")
        with pytest.raises(BuildingModelError):
            app.guide_visitor("nobody")

    def test_duplicate_visitor_rejected(self):
        app = SmartCIS(seed=10, lab_count=2)
        app.start()
        app.add_visitor("x")
        with pytest.raises(BuildingModelError):
            app.add_visitor("x")

    def test_no_matching_machine_returns_empty(self, app):
        assert app.find_free_machines("%VAX%") == []

    def test_guide_impossible_software(self):
        app = SmartCIS(seed=10, lab_count=2)
        app.start()
        app.simulator.run_for(12.0)
        app.add_visitor("y")
        app.simulator.run_for(5.0)
        with pytest.raises(BuildingModelError, match="no free machine"):
            app.guide_visitor("y", "%VAX%")


class TestQueries:
    def test_figure1_query_end_to_end(self):
        app = SmartCIS(seed=7, lab_count=2, desks_per_lab=2)
        app.start()
        execution = app.execute_sql(FREE_MACHINE_QUERY)
        app.add_visitor("alice", needed="%Fedora%")
        app.simulator.run_for(30.0)
        results = {tuple(r.values) for r in execution.results()}
        assert results
        rooms = {r[1] for r in results}
        assert rooms <= set(app.building.rooms)
        # Every result names a Fedora machine's desk.
        fedora_desks = {
            (s.room, s.desk)
            for s in app.deployment.machine_specs
            if "Fedora" in s.software
        }
        assert {(r[1], r[2]) for r in results} <= fedora_desks

    def test_proximity_join_query(self):
        app = SmartCIS(seed=7, lab_count=2, desks_per_lab=2)
        app.start()
        app.building.room("lab1").desk("d1").occupied = True
        execution = app.execute_sql(TEMPS_OF_MACHINES_IN_USE)
        app.simulator.run_for(30.0)
        hosts = {r["wt.host"] for r in execution.results()}
        assert hosts == {"lab1-ws1"}  # only the occupied desk's machine

    def test_power_rollup_query(self):
        app = SmartCIS(seed=7, lab_count=2, desks_per_lab=2)
        app.start()
        handle = app.stream_engine.execute(
            app.builder.build_sql(power_by_room_sql(window_seconds=30))
        )
        app.simulator.run_for(65.0)
        rooms = {r["m.room"] for r in handle.results}
        assert "lab1" in rooms and "machineroom" in rooms

    def test_query_statement_view_and_recursive(self):
        app = SmartCIS(seed=7, lab_count=2)
        app.start()
        name = app.query(
            "create view HotRooms as (select wt.room from WorkstationTemps wt "
            "where wt.temp_c > 30)"
        ).view_name
        assert name == "HotRooms" and app.catalog.has_view("HotRooms")
        rows = app.query(
            """
            WITH RECURSIVE reach(src, dst) AS (
              SELECT rp.src, rp.dst FROM RoutingPoints rp
              UNION
              SELECT r.src, rp.dst FROM reach r, RoutingPoints rp WHERE r.dst = rp.src
            ) SELECT src, dst FROM reach WHERE src = 'lobby'
            """
        ).results()
        destinations = {r["reach.dst"] for r in rows}
        assert "lab1.center" in destinations

    def test_explain_requires_select(self, app):
        with pytest.raises(AspenError):
            app.explain_sql("create view X as select p.id from Person p")


class TestAlarmsAndDisplays:
    def test_failure_triggers_both_alarms(self):
        app = SmartCIS(seed=4, lab_count=2, desks_per_lab=2)
        app.start()
        app.add_overtemp_alarm(33.0)
        app.add_overload_alarm(0.95)
        app.simulator.run_for(12.0)
        baseline_rules = {e.rule for e in app.alarms.events}
        assert "overtemp" not in baseline_rules
        app.deployment.machines["lab1-ws1"].fail()
        app.simulator.run_for(30.0)
        rules = {e.rule for e in app.alarms.events if e.key == "lab1-ws1"}
        assert rules == {"overtemp", "overload"}

    def test_alarm_latency_includes_network_delay(self):
        app = SmartCIS(seed=4, lab_count=2)
        app.start()
        app.add_overtemp_alarm(33.0)
        app.deployment.machines["lab1-ws1"].fail()
        app.simulator.run_for(40.0)
        overtemps = app.alarms.events_for("overtemp")
        assert overtemps and all(e.latency > 0 for e in overtemps)

    def test_alarm_dedup_until_cleared(self):
        app = SmartCIS(seed=4, lab_count=2)
        app.start()
        app.add_overload_alarm(0.9)
        app.deployment.machines["lab1-ws1"].fail()

        def ws1_events():
            return [e for e in app.alarms.events_for("overload") if e.key == "lab1-ws1"]

        app.simulator.run_for(40.0)
        assert len(ws1_events()) == 1
        app.simulator.run_for(40.0)
        assert len(ws1_events()) == 1  # deduped while the condition holds
        app.alarms.clear("overload", "lab1-ws1")
        app.simulator.run_for(20.0)
        assert len(ws1_events()) == 2  # re-fires after the clear

    def test_output_to_display_routes_results(self):
        app = SmartCIS(seed=4, lab_count=2)
        app.start()
        app.execute_sql(
            "select wt.host, wt.temp_c from WorkstationTemps wt "
            "output to display 'lobby'"
        )
        app.simulator.run_for(25.0)
        display = app.displays.display("lobby")
        assert display.deliveries > 0
        assert display.latest(3)


class TestGui:
    def test_render_shows_rooms_and_markers(self, app):
        text = render_app(app)
        assert "lab1" in text and "lab2" in text
        assert "F" in text  # free machines marked

    def test_closed_lab_hatched_and_unavailable(self):
        app = SmartCIS(seed=6, lab_count=2, desks_per_lab=2)
        app.start()
        app.simulator.run_for(15.0)
        room = app.building.room("lab1")
        room.lights_on = False
        room.door_open = False
        app.simulator.run_for(12.0)
        text = render_app(app)
        # Closed labs have dashes inside their box and U desk markers.
        lab1_line = [l for l in text.splitlines() if "U" in l]
        assert lab1_line
        assert "F" in text  # lab2 still free

    def test_route_and_visitor_drawn(self):
        app = SmartCIS(seed=6, lab_count=2, desks_per_lab=2)
        app.start()
        app.simulator.run_for(15.0)
        app.add_visitor("alice")
        app.simulator.run_for(5.0)
        guidance = app.guide_visitor("alice")
        text = render_app(app, visitor="alice", route=guidance.route, details=["x"])
        assert "@" in text and "*" in text and "details" in text

    def test_rendering_is_deterministic(self, app):
        assert render_app(app) == render_app(app)


def test_find_free_machines_compiles_each_pattern_once():
    """The LIKE matcher of a pattern is generated at its first call and
    kept on the app, at most 64 patterns, oldest evicted first: three
    calls with ``'%'`` generate one function, not three."""
    app = SmartCIS(seed=7, lab_count=2, desks_per_lab=2, server_count=2)
    app.start()
    app.simulator.run_for(25.0)
    before = compile_counts()["generated"]
    answers = [app.find_free_machines("%") for _ in range(3)]
    assert compile_counts()["generated"] == before + 1
    assert answers[0] == answers[1] == answers[2] and answers[0]
    for index in range(64):
        app.find_free_machines(f"%{index}%")
    assert len(app._matchers) == 64 and "%" not in app._matchers
