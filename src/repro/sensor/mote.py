"""Mote (sensor node) model.

A mote has a position in building coordinates (feet), a battery, a set
of attached sensing devices and a radio. The SmartCIS deployment uses
three roles (paper §2): *workstation motes* (temperature sensor on the
machine), *seat motes* (light sensor at the chair), and *hallway motes*
(RFID detectors at intersections and every 100 feet).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SensorNetworkError
from repro.sensor.energy import DEFAULT_ENERGY_MODEL, Battery, EnergyModel


class MoteRole(enum.Enum):
    """Deployment role of a mote in SmartCIS."""

    BASESTATION = "basestation"
    WORKSTATION = "workstation"   # machine temperature
    SEAT = "seat"                 # chair light level (occupancy)
    HALLWAY = "hallway"           # RFID detector
    ROOM = "room"                 # room temperature / light on-off
    BEACON = "beacon"             # active RFID carried by an occupant


@dataclass(frozen=True)
class Position:
    """2-D building coordinates in feet."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


#: A sensing device: name → callable returning the current physical value.
SensorFn = Callable[[], float]


class Mote:
    """One sensor node.

    Args:
        mote_id: Unique id; 0 is reserved for the basestation.
        position: Placement in building coordinates (feet).
        role: Deployment role.
        radio_range: Reliable communication radius in feet.
        battery: Energy store; basestations get effectively infinite
            batteries (mains powered) when None is passed.
        energy_model: Per-operation costs.
    """

    def __init__(
        self,
        mote_id: int,
        position: Position,
        role: MoteRole,
        radio_range: float = 120.0,
        battery: Battery | None = None,
        energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    ):
        if mote_id < 0:
            raise SensorNetworkError("mote id must be non-negative")
        self.mote_id = mote_id
        self.position = position
        self.role = role
        self.radio_range = radio_range
        if battery is None:
            battery = Battery(1e12 if role is MoteRole.BASESTATION else 10_000_000.0)
        self.battery = battery
        self.energy = energy_model
        self._sensors: dict[str, SensorFn] = {}
        # Statistics
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.samples_taken = 0
        self.tuples_processed = 0

    # ------------------------------------------------------------------
    # Sensing
    # ------------------------------------------------------------------
    def attach_sensor(self, attribute: str, fn: SensorFn) -> None:
        """Attach a sensing device producing ``attribute`` values."""
        self._sensors[attribute] = fn

    @property
    def sensor_attributes(self) -> list[str]:
        return list(self._sensors)

    def sample(self, attribute: str) -> float:
        """Acquire one reading; spends sampling energy."""
        if attribute not in self._sensors:
            raise SensorNetworkError(
                f"mote {self.mote_id} has no {attribute!r} sensor; "
                f"has {self.sensor_attributes}"
            )
        self.battery.spend(self.energy.sample, "sample")
        self.samples_taken += 1
        return self._sensors[attribute]()

    # ------------------------------------------------------------------
    # Radio accounting (the network layer drives actual delivery)
    # ------------------------------------------------------------------
    def account_tx(self, payload_bytes: int) -> None:
        """Charge this mote for one transmission."""
        self.battery.spend(self.energy.tx_cost(payload_bytes), "tx")
        self.messages_sent += 1
        self.bytes_sent += payload_bytes

    def account_rx(self, payload_bytes: int) -> None:
        """Charge this mote for one reception."""
        self.battery.spend(self.energy.rx_cost(payload_bytes), "rx")
        self.messages_received += 1
        self.bytes_received += payload_bytes

    def account_cpu(self, tuples: int = 1) -> None:
        """Charge for in-network query processing work."""
        self.battery.spend(self.energy.cpu_per_tuple * tuples, "cpu")
        self.tuples_processed += tuples

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return not self.battery.depleted

    def can_hear(self, other: "Mote") -> bool:
        """Is ``other`` within this mote's radio range?"""
        return self.position.distance_to(other.position) <= self.radio_range

    def __repr__(self) -> str:
        return (
            f"Mote({self.mote_id}, {self.role.value}, "
            f"@({self.position.x:g},{self.position.y:g}))"
        )
