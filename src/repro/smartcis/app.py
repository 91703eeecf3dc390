"""The SmartCIS application facade.

One :class:`SmartCIS` object assembles the whole demo (paper Figure 1):
the simulated Moore building and its sensor deployment, the in-network
sensor engine, the PC-side stream engine, the federated optimizer and
executor, wrappers over machines / PDUs / web sources, RFID
localisation, the routing service, alarms, displays and the GUI's state
store.

Query access and source lifecycle go through a
:class:`repro.api.Session` bound over the app's catalog and engines:
``app.query(sql)`` / ``app.prepare(sql)`` run SQL text end-to-end —
plans touching the sensor relations route through the session's
federated backend automatically, so :meth:`execute_sql` /
:meth:`explain_sql` are thin aliases kept for the demo scripts, not a
second query path — and wrappers/punctuation attach through the
session so :meth:`stop` shuts everything down deterministically.

Typical use::

    with SmartCIS(seed=7) as app:
        app.start()
        app.simulator.run_for(30)                 # let sensors report
        visitor = app.add_visitor("alice", needed="%Fedora%")
        app.simulator.run_for(10)                 # beacon gets detected
        guidance = app.guide_visitor("alice")     # nearest free Fedora box
        print(guidance.route.render())
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from repro.building import (
    Deployment,
    Occupant,
    Route,
    StreamRouter,
    build_moore_deployment,
)
from repro.catalog import Catalog, DeviceInfo, SourceStatistics
from repro.core import FederatedPlan
from repro.data.schema import Schema
from repro.data.types import DataType
from repro.errors import AspenError, BuildingModelError
from repro.plan import PlanBuilder
from repro.runtime import Simulator
from repro.sensor import (
    Beacon,
    Localizer,
    RFIDService,
    SensorEngine,
    SensorRelation,
)
import repro.smartcis.queries as canned
from repro.smartcis.alarms import AlarmRule, AlarmService
from repro.smartcis.display import DisplayManager
from repro.smartcis.monitoring import (
    SEAT_FREE_LIGHT_THRESHOLD,
    BuildingStateStore,
)
from repro.sql import parse
from repro.sql.ast import CreateView, RecursiveQuery, SelectQuery
from repro.stream import StreamEngine
from repro.wrappers import (
    MachineStateWrapper,
    PduWrapper,
    PowerDistributionUnit,
    Punctuator,
    WeatherService,
    WeatherWrapper,
    register_database_tables,
)

#: Room light level above which an area sensor reports "open".
ROOM_OPEN_LIGHT_THRESHOLD = 300.0

_beacon_ids = itertools.count(500)
_person_ids = itertools.count(1)


@dataclass
class Guidance:
    """Result of guiding a visitor to a machine."""

    person: str
    host: str
    room: str
    desk: str
    route: Route

    def render(self) -> str:
        return (
            f"{self.person}: {self.host} in {self.room}/{self.desk} via "
            f"{self.route.render()}"
        )


class SmartCIS:
    """The assembled SmartCIS system over a simulated deployment.

    Args:
        seed: Simulation seed (one seed, one world).
        lab_count / desks_per_lab / server_count: Building scale.
    """

    def __init__(
        self,
        seed: int = 0,
        lab_count: int = 4,
        desks_per_lab: int = 4,
        server_count: int = 4,
    ):
        self.simulator = Simulator(seed)
        self.deployment: Deployment = build_moore_deployment(
            self.simulator,
            lab_count=lab_count,
            desks_per_lab=desks_per_lab,
            server_count=server_count,
        )
        self.building = self.deployment.building
        self.network = self.deployment.network

        self.catalog = Catalog()
        self.displays = DisplayManager()
        self.state = BuildingStateStore()
        self.stream_engine = StreamEngine(self.catalog, deliver=self.displays.deliver)
        self.sensor_engine = SensorEngine(self.network, on_result=self._on_sensor_result)
        from repro.api import Session

        #: The unified query/source façade over this app's components.
        #: Sensor-touching SELECTs route through its federated backend,
        #: which owns the one plan-partitioning implementation; the app
        #: only contributes deployment knowledge (the pairing provider).
        self.session = Session(
            catalog=self.catalog,
            simulator=self.simulator,
            engine=self.stream_engine,
            sensor_engine=self.sensor_engine,
            network=self.network,
        )
        self.builder = PlanBuilder(self.catalog)
        self.session.backend(
            "federated"
        ).optimizer.sensor_optimizer.pairing_provider = self._sensor_pairing
        self.alarms = AlarmService(
            self.stream_engine, self.builder, lambda: self.simulator.now
        )
        self.router = StreamRouter(self.deployment.graph)
        detector_positions = {
            mote_id: self.deployment.graph.point(point).position
            for mote_id, point in self.deployment.detector_points.items()
        }
        self.localizer = Localizer(detector_positions)
        self.rfid = RFIDService(self.network, on_sighting=self._on_sighting)
        self.occupants: dict[str, Occupant] = {}
        self._beacon_of: dict[str, int] = {}
        self.wrappers: list[Any] = []
        self.punctuator: Punctuator | None = None
        self._collections: list[Any] = []  # deployed sensor collections
        self._started = False
        self._stopped = False

        self._register_catalog()
        self._register_sensor_relations()
        self._register_displays()

    # ==================================================================
    # Registration
    # ==================================================================
    def _register_catalog(self) -> None:
        catalog = self.catalog
        deployment = self.deployment
        catalog.network.diameter = max(self.network.diameter, 1)

        catalog.register_sensor_stream(
            "AreaSensors",
            Schema.of(("room", DataType.STRING), ("status", DataType.STRING)),
            DeviceInfo(tuple(deployment.room_mote_ids()), 10.0, "light"),
            statistics=SourceStatistics(
                rate=len(deployment.room_mote_ids()) / 10.0,
                distinct_values={"room": len(self.building.rooms), "status": 2},
            ),
            description="room open/closed from room-mote light level",
        )
        catalog.register_sensor_stream(
            "SeatSensors",
            Schema.of(
                ("room", DataType.STRING),
                ("desk", DataType.STRING),
                ("status", DataType.STRING),
            ),
            DeviceInfo(tuple(deployment.seat_mote_ids()), 5.0, "light"),
            statistics=SourceStatistics(
                rate=len(deployment.seat_mote_ids()) / 5.0,
                distinct_values={
                    "room": len(self.building.rooms),
                    "desk": max(len(deployment.desk_motes), 1),
                    "status": 2,
                },
            ),
            description="desk free/busy from chair light level",
        )
        catalog.register_sensor_stream(
            "WorkstationTemps",
            Schema.of(
                ("host", DataType.STRING),
                ("room", DataType.STRING),
                ("desk", DataType.STRING),
                ("temp_c", DataType.FLOAT),
            ),
            DeviceInfo(tuple(deployment.workstation_mote_ids()), 10.0, "temperature"),
            statistics=SourceStatistics(
                rate=len(deployment.workstation_mote_ids()) / 10.0,
                distinct_values={"host": max(len(deployment.machines), 1)},
            ),
            description="machine case temperature from workstation motes",
        )
        catalog.register_sensor_stream(
            "RFIDSightings",
            Schema.of(
                ("detector", DataType.INT),
                ("beacon", DataType.INT),
                ("rssi", DataType.FLOAT),
                ("heard_at", DataType.FLOAT),
            ),
            DeviceInfo(tuple(deployment.detector_points), 2.0, "rfid"),
            statistics=SourceStatistics(rate=1.0, distinct_values={"beacon": 4}),
            description="beacon sightings by hallway detectors",
        )

        machine_count = max(len(deployment.machines), 1)
        catalog.register_stream(
            "MachineState",
            Schema.of(
                ("host", DataType.STRING),
                ("room", DataType.STRING),
                ("desk", DataType.STRING),
                ("jobs", DataType.INT),
                ("users", DataType.INT),
                ("cpu", DataType.FLOAT),
                ("memory_mb", DataType.FLOAT),
                ("web_requests", DataType.INT),
            ),
            rate=machine_count / 5.0,
            description="soft sensors: jobs, users, cpu, memory, web requests",
        )
        catalog.register_stream(
            "Power",
            Schema.of(
                ("pdu", DataType.STRING),
                ("outlet", DataType.INT),
                ("host", DataType.STRING),
                ("watts", DataType.FLOAT),
            ),
            rate=machine_count / 10.0,
            description="PDU wattage scraped every 10 s",
        )
        catalog.register_stream(
            "Weather",
            Schema.of(
                ("observed_at", DataType.FLOAT),
                ("outdoor_temp_c", DataType.FLOAT),
                ("condition", DataType.STRING),
            ),
            rate=1 / 300.0,
        )
        catalog.register_stream(
            "Person",
            Schema.of(
                ("id", DataType.INT),
                ("name", DataType.STRING),
                ("room", DataType.STRING),
                ("needed", DataType.STRING),
            ),
            rate=0.02,
            description="visitors announcing required software",
        )

        register_database_tables(catalog)
        catalog.register_table(
            "Route",
            Schema.of(
                ("start", DataType.STRING),
                ("end", DataType.STRING),
                ("path", DataType.STRING),
                ("distance", DataType.FLOAT),
            ),
            cardinality=0,
            description="precomputed routes between points and rooms",
        )

        # The paper's demo view.
        view = parse(canned.OPEN_MACHINE_INFO_VIEW)
        assert isinstance(view, CreateView)
        catalog.register_view(view.name, view.query, "open labs' free desks")

    def _register_sensor_relations(self) -> None:
        deployment = self.deployment
        building = self.building
        room_of_mote = {mote: room for room, mote in deployment.room_motes.items()}
        desk_of_seat = {
            seat: key for key, (seat, _) in deployment.desk_motes.items()
        }
        host_of_ws: dict[int, tuple[str, str, str]] = {}
        for (room_id, desk_id), (_, ws) in deployment.desk_motes.items():
            if ws is not None:
                host = building.room(room_id).desk(desk_id).machine_host or ""
                host_of_ws[ws] = (host, room_id, desk_id)

        def area_sampler(mote):
            room_id = room_of_mote[mote.mote_id]
            light = mote.sample("light")
            status = "open" if light > ROOM_OPEN_LIGHT_THRESHOLD else "closed"
            # Door state folds in: a shut lab reads closed regardless of light.
            if not building.room(room_id).door_open:
                status = "closed"
            return {"room": room_id, "status": status}

        def seat_sampler(mote):
            room_id, desk_id = desk_of_seat[mote.mote_id]
            light = mote.sample("light")
            status = "free" if light > SEAT_FREE_LIGHT_THRESHOLD else "busy"
            return {"room": room_id, "desk": desk_id, "status": status}

        def temp_sampler(mote):
            host, room_id, desk_id = host_of_ws[mote.mote_id]
            return {
                "host": host,
                "room": room_id,
                "desk": desk_id,
                "temp_c": round(mote.sample("temperature"), 2),
            }

        engine = self.sensor_engine
        engine.register_relation(
            SensorRelation(
                "AreaSensors",
                self.catalog.source("AreaSensors").schema,
                deployment.room_mote_ids(),
                area_sampler,
                period=10.0,
            )
        )
        engine.register_relation(
            SensorRelation(
                "SeatSensors",
                self.catalog.source("SeatSensors").schema,
                deployment.seat_mote_ids(),
                seat_sampler,
                period=5.0,
            )
        )
        engine.register_relation(
            SensorRelation(
                "WorkstationTemps",
                self.catalog.source("WorkstationTemps").schema,
                deployment.workstation_mote_ids(),
                temp_sampler,
                period=10.0,
            )
        )

    def _register_displays(self) -> None:
        self.displays.register("lobby", "lobby")
        self.catalog.register_display("lobby", "lobby")
        for room in self.building.labs():
            name = f"{room.room_id}-display"
            self.displays.register(name, room.room_id)
            self.catalog.register_display(name, room.room_id)

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def start(self) -> None:
        """Deploy monitoring collections, start wrappers and punctuation.

        Every wrapper is attached through :attr:`session`, which owns the
        shutdown: :meth:`stop` (or closing the session) stops each
        wrapper's poll loop and the punctuator deterministically.
        """
        if self._started:
            raise AspenError("SmartCIS is already started")
        self._started = True

        # Raw monitoring collections (the state store and canned stream
        # queries feed off these).
        for relation in ("AreaSensors", "SeatSensors", "WorkstationTemps"):
            self._collections.append(self.sensor_engine.deploy_collection(relation))

        from repro.api import WrapperSource

        machines = list(self.deployment.machines.values())
        machine_wrapper = MachineStateWrapper(
            self.stream_engine, self.simulator, machines, period=5.0
        )
        self.session.attach(WrapperSource(wrapper=machine_wrapper))
        self.wrappers.append(machine_wrapper)

        # One PDU per room that has machines.
        by_room: dict[str, list] = {}
        for machine in machines:
            by_room.setdefault(machine.spec.room, []).append(machine)
        for room_id, room_machines in sorted(by_room.items()):
            pdu = PowerDistributionUnit(f"pdu-{room_id}")
            for outlet, machine in enumerate(room_machines, start=1):
                pdu.plug(outlet, machine)
            wrapper = PduWrapper(self.stream_engine, self.simulator, pdu)
            self.session.attach(WrapperSource(wrapper=wrapper, name=f"Power-{room_id}"))
            self.wrappers.append(wrapper)

        weather = WeatherWrapper(
            self.stream_engine, self.simulator, WeatherService(self.simulator)
        )
        self.session.attach(WrapperSource(wrapper=weather))
        self.wrappers.append(weather)

        # Slack covers sensor delivery delay (elements carry sample time).
        self.punctuator = self.session.add_punctuator(period=1.0, slack=0.5)

        # Feed the control-logic state store from the wrapper streams.
        self._observe_stream("MachineState", self.state.on_machine_state)
        self._observe_stream("Power", self.state.on_power)

        self._load_tables()

    def stop(self) -> None:
        """Shut the application down deterministically: stop deployed
        sensor collections, every attached wrapper, the punctuator and
        all running session queries. Idempotent; safe after an explicit
        wrapper stop (Wrapper.stop and StreamEngine.stop both are)."""
        if self._stopped:
            return
        self._stopped = True
        for deployed in self._collections:
            deployed.stop()
        self._collections.clear()
        self.session.close()

    def __enter__(self) -> "SmartCIS":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _observe_stream(self, source: str, handler) -> None:
        """Run an internal SELECT * over ``source`` whose results update
        the monitoring state store."""
        cursor = self.session.query(f"select * from {source} s")

        def on_element(element) -> None:
            values = {
                f.bare_name: v
                for f, v in zip(element.row.schema, element.row.values)
            }
            handler(values, element.timestamp)

        cursor.subscribe(on_element, elements=True)

    def _load_tables(self) -> None:
        from repro.wrappers.database import load_table

        deployment = self.deployment
        load_table(self.stream_engine, self.catalog, "Machines", deployment.machine_rows())
        load_table(
            self.stream_engine, self.catalog, "DetectorCoords", deployment.detector_coord_rows()
        )
        load_table(
            self.stream_engine, self.catalog, "RoutingPoints", deployment.graph.edge_rows()
        )
        load_table(self.stream_engine, self.catalog, "Rooms", deployment.room_rows())
        load_table(self.stream_engine, self.catalog, "Route", self._route_rows())

    def _route_rows(self) -> list[dict[str, Any]]:
        """The demo's ``Route`` table: from every navigation point to every
        room (rooms addressed by id; paths via the closure router)."""
        rows: list[dict[str, Any]] = []
        rooms = list(self.building.rooms.values())
        for point in self.deployment.graph.points:
            if "." in point.name and not point.name.endswith(".door"):
                continue
            for room in rooms:
                try:
                    route = self.router.route(
                        point.name, self.deployment.room_center_point(room.room_id)
                    )
                except AspenError:
                    continue
                rows.append(
                    {
                        "start": point.name,
                        "end": room.room_id,
                        "path": route.render(),
                        "distance": route.distance,
                    }
                )
        return rows

    # ==================================================================
    # Deployment knowledge
    # ==================================================================
    def _sensor_pairing(self, left_entry, right_entry):
        """Joinable mote pairs for in-network joins, from the deployment.

        * AreaSensors ⋈ SeatSensors: a room's area mote pairs with every
          seat mote in that room (the view's ``sa.room = ss.room``).
        * WorkstationTemps ⋈ SeatSensors: the workstation mote pairs with
          the seat mote on the same desk (the §3 proximity join).
        """
        from repro.sensor import JoinPair

        names = (left_entry.name.lower(), right_entry.name.lower())
        deployment = self.deployment

        def area_seat(swap: bool) -> list:
            pairs = []
            for (room_id, _desk), (seat, _ws) in deployment.desk_motes.items():
                room_mote = deployment.room_motes.get(room_id)
                if room_mote is None:
                    continue
                a, b = (room_mote, seat) if not swap else (seat, room_mote)
                pairs.append(JoinPair(a, b))
            return pairs

        def temp_seat(swap: bool) -> list:
            pairs = []
            for (_room, _desk), (seat, ws) in deployment.desk_motes.items():
                if ws is None:
                    continue
                a, b = (ws, seat) if not swap else (seat, ws)
                pairs.append(JoinPair(a, b))
            return pairs

        if names == ("areasensors", "seatsensors"):
            return area_seat(swap=False)
        if names == ("seatsensors", "areasensors"):
            return area_seat(swap=True)
        if names == ("workstationtemps", "seatsensors"):
            return temp_seat(swap=False)
        if names == ("seatsensors", "workstationtemps"):
            return temp_seat(swap=True)
        return None

    # ==================================================================
    # Data-flow callbacks
    # ==================================================================
    def _on_sensor_result(self, name: str, values: dict[str, Any], time: float) -> None:
        key = name.lower()
        if key == "areasensors":
            self.state.on_area_sensor(values, time)
        elif key == "seatsensors":
            self.state.on_seat_sensor(values, time)
        elif key == "workstationtemps":
            self.state.on_workstation_temp(values, time)
        if self.catalog.has_source(name):
            self.stream_engine.push(name, values, time)
        else:
            self.stream_engine.push_remote(name, values, time)

    def _on_sighting(self, values: dict[str, Any], time: float) -> None:
        self.localizer.observe(values, time)
        self.stream_engine.push("RFIDSightings", values, time)

    # ==================================================================
    # Visitors and guidance
    # ==================================================================
    def add_visitor(self, name: str, needed: str = "%", start: str = "lobby") -> Occupant:
        """Add a visitor carrying an RFID beacon, standing at ``start``."""
        if name in self.occupants:
            raise BuildingModelError(f"occupant {name!r} already exists")
        occupant = Occupant(
            name, next(_beacon_ids), self.simulator, self.deployment.graph, start
        )
        self.occupants[name] = occupant
        self._beacon_of[name] = occupant.beacon_id
        self.rfid.add_beacon(
            Beacon(occupant.beacon_id, occupant.position_fn, period=2.0)
        )
        self.stream_engine.push(
            "Person",
            {
                "id": next(_person_ids),
                "name": name,
                "room": start,
                "needed": needed,
            },
            self.simulator.now,
        )
        return occupant

    def locate_visitor(self, name: str) -> str | None:
        """Current routing point of a visitor per RFID localisation.

        Returns the name of the routing point of the strongest recent
        detector, or None when the beacon has not been heard lately.
        """
        beacon = self._beacon_of.get(name)
        if beacon is None:
            raise BuildingModelError(f"unknown occupant {name!r}")
        detector = self.localizer.strongest_detector(beacon, self.simulator.now)
        if detector is None:
            return None
        return self.deployment.detector_points.get(detector)

    def find_free_machines(self, needed: str = "%") -> list[tuple[str, str, str]]:
        """(host, room, desk) of free machines matching ``needed`` (LIKE),
        in open labs, per the current monitoring state."""
        from repro.sql.compiled import compile_expr
        from repro.sql.expressions import BinaryOp, ColumnRef, Literal

        matches = compile_expr(
            BinaryOp("LIKE", ColumnRef("software"), Literal(needed)),
            Schema.of(("software", DataType.STRING)),
        )
        out = []
        for spec in self.deployment.machine_specs:
            if spec.room == "machineroom":
                continue
            if not self.state.room_is_open(spec.room):
                continue
            if not self.state.seat_is_free(spec.room, spec.desk):
                continue
            if matches((spec.software,)) is True:
                out.append((spec.host, spec.room, spec.desk))
        return sorted(out)

    def guide_visitor(self, name: str, needed: str | None = None) -> Guidance:
        """The demo's headline interaction: route a visitor to the nearest
        free machine with the requested software."""
        occupant = self.occupants.get(name)
        if occupant is None:
            raise BuildingModelError(f"unknown occupant {name!r}")
        location = self.locate_visitor(name) or occupant.current_point
        pattern = needed if needed is not None else "%"
        candidates = self.find_free_machines(pattern)
        if not candidates:
            raise BuildingModelError(
                f"no free machine matches {pattern!r} right now"
            )
        best: tuple[float, Guidance] | None = None
        for host, room, desk in candidates:
            try:
                route = self.router.route(location, self.deployment.desk_point(room, desk))
            except AspenError:
                continue
            guidance = Guidance(name, host, room, desk, route)
            if best is None or route.distance < best[0]:
                best = (route.distance, guidance)
        if best is None:
            raise BuildingModelError("no reachable free machine")
        return best[1]

    # ==================================================================
    # Query interface
    # ==================================================================
    @property
    def optimizer(self):
        """The session's federated optimizer (one partitioning
        implementation for the whole app — EXPLAIN tooling reaches the
        same instance ``app.query`` routes through)."""
        return self.session.backend("federated").optimizer

    def query(self, text: str, **kwargs):
        """Run SQL text through the unified Session API; returns a
        :class:`repro.api.Cursor`. SELECTs touching the sensor
        relations execute *federated* (in-network fragments + stream
        residual); other continuous SELECTs run on the stream engine;
        table-only and recursive statements evaluate one-shot.
        """
        return self.session.query(text, **kwargs)

    def prepare(self, text: str, **kwargs):
        """Prepare SQL text with ``:name`` parameters, compiled once."""
        return self.session.prepare(text, **kwargs)

    def explain_sql(self, text: str) -> FederatedPlan:
        """Partition a SELECT federatedly and return the costed plan
        (thin alias of :meth:`repro.api.Session.explain`)."""
        return self.session.explain(text)

    def execute_sql(self, text: str):
        """Start a federated continuous query; returns the session's
        :class:`repro.api.Cursor` (thin alias of ``query`` with the
        federated route forced — mixed plans take it automatically)."""
        return self.session.query(text, engine="federated")

    def execute_statement(self, text: str):
        """Execute any statement (deprecation shim over the Session
        API): CREATE VIEW registers a view and returns its name; SELECT
        starts a *federated* continuous query and returns its Cursor;
        WITH RECURSIVE materialises a snapshot and returns its rows."""
        statement = parse(text)
        if isinstance(statement, CreateView):
            return self.session.query(text).view_name
        if isinstance(statement, SelectQuery):
            return self.execute_sql(text)
        if isinstance(statement, RecursiveQuery):
            return self.session.query(text).results()
        raise AspenError(f"unsupported statement {type(statement).__name__}")

    # ==================================================================
    # Schema mappings (the paper's roadmap item, usable from the facade)
    # ==================================================================
    @property
    def mappings(self):
        """The application's mapping registry (created on first use)."""
        if not hasattr(self, "_mappings"):
            from repro.core import MappingRegistry

            self._mappings = MappingRegistry(self.catalog)
        return self._mappings

    def register_mapping(self, name: str, definitions: list[str]):
        """Register a mediated relation over this deployment's sources."""
        return self.mappings.register(name, definitions)

    def execute_mediated(self, sql_text: str):
        """Reformulate a query over mediated relations and run every
        variant through the Session (sensor-touching variants execute
        federated); returns a handle whose ``results`` is the union of
        the variants'."""
        from repro.core import MediatedExecution

        return MediatedExecution(
            [
                self.session.query(variant.render())
                for variant in self.mappings.reformulate(sql_text)
            ]
        )

    # ==================================================================
    # Alarms
    # ==================================================================
    def add_overtemp_alarm(self, threshold_c: float = 35.0) -> None:
        """Fire when any workstation exceeds ``threshold_c``."""
        self.alarms.add_rule(
            AlarmRule(
                name="overtemp",
                sql=canned.overtemp_alarm_sql(threshold_c),
                key_column="wt.host",
                message=lambda row: (
                    f"{row['wt.host']} at {row['wt.temp_c']:.1f}C exceeds "
                    f"{threshold_c:.1f}C"
                ),
            )
        )

    def add_overload_alarm(self, threshold: float = 0.85) -> None:
        """Fire when any machine's CPU exceeds ``threshold``."""
        self.alarms.add_rule(
            AlarmRule(
                name="overload",
                sql=canned.overload_alarm_sql(threshold),
                key_column="ms.host",
                message=lambda row: (
                    f"{row['ms.host']} cpu {row['ms.cpu']:.2f} exceeds {threshold:.2f}"
                ),
            )
        )
