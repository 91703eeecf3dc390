"""Tests for the federated executor's projection layer and the GUI."""

import pytest

from repro.building.model import Room, RoomKind
from repro.core.executor import _compose_projection
from repro.plan import PlanBuilder, Project, Scan, Select
from repro.sensor.mote import Position
from repro.smartcis.gui import (
    AsciiMap,
    GuiScene,
    interpolate_route,
    render_scene,
)
from repro.sql.expressions import ColumnRef


class TestComposeProjection:
    def test_identity_for_bare_scan(self, builder):
        plan = builder.build_sql("select * from AreaSensors sa")
        # Plan is Project over Scan; strip the Project to test the leaf.
        scan = [n for n in plan.walk() if isinstance(n, Scan)][0]
        assert _compose_projection(scan) is None

    def test_single_project_layer(self, builder):
        plan = builder.build_sql("select sa.room from AreaSensors sa")
        items = _compose_projection(plan)
        assert [(e.render(), name) for e, name in items] == [("sa.room", "sa.room")]

    def test_stacked_projects_composed(self, catalog, builder):
        from repro.sql import parse

        view = parse(
            "create view V as (select sa.room as r from AreaSensors sa)"
        )
        catalog.register_view(view.name, view.query)
        plan = builder.build_sql("select v.r from V v")
        items = _compose_projection(plan)
        # v.r ultimately reads sa.room through two Project layers.
        assert items[0][0].render() == "sa.room"
        assert items[0][1] == "v.r"

    def test_select_layers_transparent(self, builder):
        plan = builder.build_sql(
            "select sa.room from AreaSensors sa where sa.status = 'open'"
        )
        items = _compose_projection(plan)
        assert items is not None and items[0][1] == "sa.room"


class TestFederatedProjection:
    def test_pushed_join_results_shaped_to_fragment_schema(self, catalog, builder):
        """End-to-end: a pushed view-join fragment delivers rows matching
        the RemoteSource schema exactly."""
        from repro.core import FederatedExecutor, FederatedOptimizer
        from repro.runtime import Simulator
        from repro.sensor import Mote, MoteRole, SensorEngine, SensorNetwork, SensorRelation
        from repro.sql import parse
        from repro.stream import StreamEngine

        simulator = Simulator(3)
        network = SensorNetwork(simulator)
        network.add_basestation(Position(0, 0))
        for mote_id, x in ((1, 60.0), (2, 70.0), (3, 80.0), (4, 90.0), (5, 100.0)):
            network.add_mote(Mote(mote_id, Position(x, 0), MoteRole.ROOM))
        network.rebuild_topology()

        view = parse(
            "create view Open as (select ss.room, ss.desk from AreaSensors sa, "
            "SeatSensors ss where sa.room = ss.room ^ sa.status = 'open')"
        )
        catalog.register_view(view.name, view.query)

        sensor_engine = SensorEngine(network)
        sensor_engine.register_relation(
            SensorRelation(
                "AreaSensors",
                catalog.source("AreaSensors").schema,
                [1, 2, 3],
                lambda m: {"room": f"r{m.mote_id}", "status": "open"},
                period=5.0,
            )
        )
        sensor_engine.register_relation(
            SensorRelation(
                "SeatSensors",
                catalog.source("SeatSensors").schema,
                [3, 4, 5],
                lambda m: {"room": f"r{m.mote_id - 2}", "desk": "d1", "status": "free"},
                period=5.0,
            )
        )
        optimizer = FederatedOptimizer(catalog, network)
        plan = builder.build_sql("select o.room, o.desk from Open o")
        federated = optimizer.optimize(plan)
        assert federated.pushed and federated.pushed[0].deployment.kind == "join"

        # The residual first, then the fragments: the FederatedBackend's order.
        stream_engine = StreamEngine(catalog)
        handle = stream_engine.execute(federated.stream_plan)
        executor = FederatedExecutor(sensor_engine, stream_engine)
        deployments = [executor.deploy(fragment) for fragment in federated.pushed]
        simulator.run_until(6.0)
        assert handle.results
        row = handle.results[0]
        assert row.schema.names == ["o.room", "o.desk"]
        assert row["o.room"].startswith("r") and row["o.desk"] == "d1"
        for deployment in deployments:
            deployment.stop()


class TestAsciiMap:
    def test_coordinates_map_into_grid(self):
        canvas = AsciiMap(100, 60)
        canvas.put(Position(0, 0), "a")       # bottom-left
        canvas.put(Position(99, 59), "b")     # top-right
        lines = canvas.render().splitlines()
        row_of = {
            char: index for index, line in enumerate(lines) for char in line if char != " "
        }
        # y grows upward: 'b' is drawn above 'a', and 'b' sits right of 'a'.
        assert row_of["b"] < row_of["a"]
        assert lines[row_of["b"]].index("b") > lines[row_of["a"]].index("a")

    def test_box_draws_borders_and_fill(self):
        canvas = AsciiMap(100, 60)
        canvas.box(Position(10, 10), 50, 30, fill="-")
        text = canvas.render()
        assert "+" in text and "|" in text and "-" in text

    def test_label_clipped_to_width(self):
        canvas = AsciiMap(20, 20)
        canvas.label(Position(0, 10), "verylonglabel" * 5)
        assert canvas.render()  # no IndexError

    def test_put_if_space_does_not_overwrite(self):
        canvas = AsciiMap(50, 50)
        canvas.put(Position(25, 25), "X")
        canvas.put_if_space(Position(25, 25), "*")
        assert "X" in canvas.render() and "*" not in canvas.render()


class TestSceneRendering:
    def make_room(self, open_: bool = True):
        room = Room("lab1", RoomKind.LAB, Position(0, 0), 80, 50)
        room.lights_on = open_
        room.door_open = open_
        from repro.building.model import Desk

        room.add_desk(Desk("d1", Position(20, 20)))
        return room

    def test_closed_room_hatched(self):
        room = self.make_room(open_=False)
        scene = GuiScene(
            width_ft=100, height_ft=60, rooms=[room],
            room_open={"lab1": False}, seat_free={("lab1", "d1"): True},
        )
        text = render_scene(scene)
        interior_dashes = [
            line for line in text.splitlines() if line.count("-") > 3 and "|" in line
        ]
        assert interior_dashes  # hatching inside the box

    def test_free_desk_in_closed_room_is_unavailable(self):
        room = self.make_room(open_=False)
        scene = GuiScene(
            width_ft=100, height_ft=60, rooms=[room],
            room_open={"lab1": False}, seat_free={("lab1", "d1"): True},
        )
        assert "U" in render_scene(scene)
        assert "F" not in render_scene(scene)

    def test_details_panel(self):
        room = self.make_room()
        scene = GuiScene(
            width_ft=100, height_ft=60, rooms=[room],
            room_open={"lab1": True}, seat_free={},
            details=["hello world"],
        )
        assert "hello world" in render_scene(scene)

    def test_interpolate_route_densifies(self):
        points = [Position(0, 0), Position(100, 0)]
        dense = interpolate_route(points, step_ft=10.0)
        assert len(dense) >= 10
        assert dense[0] == Position(0, 0)
        assert dense[-1].x == pytest.approx(100.0)

    def test_interpolate_empty(self):
        assert interpolate_route([]) == []
