"""Tests for the control-logic state store, displays and alarm service."""

import pytest

from repro.data import DataType, Punctuation, Row, Schema, StreamElement
from repro.errors import ExecutionError
from repro.smartcis.alarms import AlarmEvent, AlarmRule, AlarmService
from repro.smartcis.display import DisplayManager
from repro.smartcis.monitoring import BuildingStateStore
from repro.stream.engine import StreamEngine


class TestBuildingStateStore:
    def test_latest_value_wins(self):
        store = BuildingStateStore()
        store.on_area_sensor({"room": "lab1", "status": "open"}, 1.0)
        store.on_area_sensor({"room": "lab1", "status": "closed"}, 2.0)
        assert not store.room_is_open("lab1")
        assert store.updates == 2

    def test_unknown_room_reads_not_open(self):
        assert not BuildingStateStore().room_is_open("nowhere")

    def test_free_seats_require_open_room(self):
        store = BuildingStateStore()
        store.on_area_sensor({"room": "lab1", "status": "closed"}, 1.0)
        store.on_seat_sensor({"room": "lab1", "desk": "d1", "status": "free"}, 1.0)
        assert store.free_seats() == []
        store.on_area_sensor({"room": "lab1", "status": "open"}, 2.0)
        assert store.free_seats() == [("lab1", "d1")]

    def test_hottest_machines_sorted(self):
        store = BuildingStateStore()
        for host, temp in (("a", 30.0), ("b", 45.0), ("c", 38.0)):
            store.on_workstation_temp(
                {"host": host, "room": "x", "desk": "d", "temp_c": temp}, 1.0
            )
        assert store.hottest_machines(2) == [("b", 45.0), ("c", 38.0)]

    def test_staleness_per_category(self):
        store = BuildingStateStore()
        store.on_power({"host": "h", "watts": 100.0}, 5.0)
        store.on_area_sensor({"room": "r", "status": "open"}, 8.0)
        staleness = store.staleness(now=10.0)
        assert staleness["power"] == pytest.approx(5.0)
        assert staleness["room_status"] == pytest.approx(2.0)
        assert "seat_status" not in staleness  # nothing observed

    def test_machine_state_snapshot_stored(self):
        store = BuildingStateStore()
        values = {"host": "h", "cpu": 0.5, "jobs": 3}
        store.on_machine_state(values, 1.0)
        assert store.machine_state["h"].value["jobs"] == 3


class TestDisplayManager:
    SCHEMA = Schema.of(("x", DataType.INT))

    def element(self, x: int) -> StreamElement:
        return StreamElement(Row(self.SCHEMA, (x,)), float(x))

    def test_register_and_deliver(self):
        manager = DisplayManager()
        display = manager.register("lobby", "front")
        manager.deliver("lobby", self.element(1))
        assert display.deliveries == 1
        assert display.latest()[0].row["x"] == 1

    def test_case_insensitive_lookup(self):
        manager = DisplayManager()
        manager.register("Lobby")
        manager.deliver("LOBBY", self.element(1))
        assert manager.display("lobby").deliveries == 1

    def test_duplicate_rejected(self):
        manager = DisplayManager()
        manager.register("a")
        with pytest.raises(ExecutionError):
            manager.register("A")

    def test_unknown_display(self):
        with pytest.raises(ExecutionError, match="unknown display"):
            DisplayManager().deliver("ghost", self.element(1))

    def test_history_bounded(self):
        manager = DisplayManager()
        display = manager.register("d")
        for i in range(300):
            manager.deliver("d", self.element(i))
        assert len(display.history) == 200  # maxlen
        assert display.deliveries == 300

    def test_subscribers_called(self):
        manager = DisplayManager()
        display = manager.register("d")
        seen = []
        display.subscribers.append(seen.append)
        manager.deliver("d", self.element(7))
        assert seen[0].row["x"] == 7

    def test_latest_returns_tail(self):
        manager = DisplayManager()
        display = manager.register("d")
        for i in range(5):
            manager.deliver("d", self.element(i))
        assert [e.row["x"] for e in display.latest(2)] == [3, 4]


class TestAlarmService:
    def make_service(self, catalog, engine, builder):
        clock = {"now": 0.0}
        service = AlarmService(engine, builder, lambda: clock["now"])
        return service, clock

    def test_rule_fires_with_message(self, catalog, engine, builder):
        service, clock = self.make_service(catalog, engine, builder)
        service.add_rule(
            AlarmRule(
                "hot",
                "select t.room, t.temp from Temps t where t.temp > 30",
                key_column="t.room",
                message=lambda row: f"{row['t.room']} at {row['t.temp']}",
            )
        )
        clock["now"] = 5.0
        engine.push("Temps", {"room": "lab1", "temp": 35.0}, 4.0)
        assert len(service.events) == 1
        event = service.events[0]
        assert event.message == "lab1 at 35.0"
        assert event.latency == pytest.approx(1.0)

    def test_non_matching_rows_do_not_fire(self, catalog, engine, builder):
        service, clock = self.make_service(catalog, engine, builder)
        service.add_rule(
            AlarmRule("hot", "select t.room from Temps t where t.temp > 30",
                      key_column="t.room", message=lambda row: "x")
        )
        engine.push("Temps", {"room": "lab1", "temp": 20.0}, 1.0)
        assert service.events == []

    def test_duplicate_rule_name_rejected(self, catalog, engine, builder):
        service, _ = self.make_service(catalog, engine, builder)
        rule = AlarmRule("r", "select t.room from Temps t where t.temp > 0",
                         key_column="t.room", message=lambda row: "x")
        service.add_rule(rule)
        with pytest.raises(ValueError):
            service.add_rule(rule)

    def test_callback_invoked(self, catalog, engine, builder):
        service, _ = self.make_service(catalog, engine, builder)
        fired: list[AlarmEvent] = []
        service.on_alarm = fired.append
        service.add_rule(
            AlarmRule("r", "select t.room from Temps t where t.temp > 0",
                      key_column="t.room", message=lambda row: "x")
        )
        engine.push("Temps", {"room": "a", "temp": 1.0}, 1.0)
        assert len(fired) == 1

    def test_clear_all(self, catalog, engine, builder):
        service, _ = self.make_service(catalog, engine, builder)
        service.add_rule(
            AlarmRule("r", "select t.room from Temps t where t.temp > 0",
                      key_column="t.room", message=lambda row: "x")
        )
        engine.push("Temps", {"room": "a", "temp": 1.0}, 1.0)
        engine.push("Temps", {"room": "a", "temp": 1.0}, 2.0)
        assert len(service.events) == 1  # deduped
        service.clear_all()
        engine.push("Temps", {"room": "a", "temp": 1.0}, 3.0)
        assert len(service.events) == 2

    @pytest.mark.parametrize("share", [False, True], ids=["private", "shared"])
    def test_push_and_push_many_fire_the_same_events(self, catalog, builder, share):
        """A rule hangs on its sink's observer hook, so a batched
        emission fires like per-row ones — dedupe included — also when
        the rule's sink is a view of a shared result log."""
        rows = [
            {"room": "lab1", "temp": 35.0},
            {"room": "lab1", "temp": 36.0},  # same key: deduped
            {"room": "lab2", "temp": 20.0},  # not hot
            {"room": "lab3", "temp": 40.0},
        ]
        stamps = [1.0, 2.0, 3.0, 4.0]
        fired = {}
        for verb in ("push", "push_many"):
            engine = StreamEngine(catalog, share_plans=share)
            service, clock = self.make_service(catalog, engine, builder)
            service.add_rule(
                AlarmRule(
                    "hot",
                    "select t.room, t.temp from Temps t where t.temp > 30",
                    key_column="t.room",
                    message=lambda row: f"{row['t.room']} at {row['t.temp']}",
                )
            )
            clock["now"] = 10.0
            if verb == "push":
                for row, stamp in zip(rows, stamps):
                    engine.push("Temps", row, stamp)
            else:
                engine.push_many("Temps", rows, stamps)
            assert len(service._handles["hot"].results) == 3
            fired[verb] = service.events
        assert fired["push"] == fired["push_many"]
        assert [(e.key, e.event_time) for e in fired["push_many"]] == [("lab1", 1.0), ("lab3", 4.0)]

    def test_mean_latency_empty(self, catalog, engine, builder):
        service, _ = self.make_service(catalog, engine, builder)
        assert service.mean_latency() == 0.0
