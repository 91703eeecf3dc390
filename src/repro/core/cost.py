"""Cost normalisation across heterogeneous engine optimizers.

Paper §3: "The novelty in ASPEN is that the cost models of the different
sub-optimizers may return different cost parameters: the sensor
optimizer attempts to minimize message traffic, whereas the stream
optimizer attempts to minimize latency to answers. The federated
optimizer must convert everything to one model, in part by making use of
catalog information about the sensor network diameter, sampling rates,
etc."

The common model here is **weighted seconds**: a plan's normalised cost
is its expected answer latency plus a resource term charging for
sustained consumption of the scarcest resources (mote radio time far
above LAN/CPU time). Conversions:

* A sensor fragment's ``messages_per_epoch`` becomes radio-seconds per
  second using the catalog's per-message airtime, weighted by
  ``RADIO_WEIGHT`` (radio time costs battery and shared channel
  capacity); its delivery latency is ``diameter × airtime``.
* A stream fragment's latency passes through unchanged and its work rate
  is charged at CPU price.

:func:`naive_cost` is the ablation (bench E8): adding raw, unit-less
numbers together — messages plus seconds — the mistake normalisation
exists to prevent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog import NetworkInfo
from repro.sensor.optimizer import SensorCost
from repro.stream.optimizer import CPU_SECONDS_PER_ROW, StreamCost

#: Relative price of one second of mote radio time vs one second of LAN
#: CPU time. Radio spends battery on both ends, occupies a shared
#: channel measured in kilobits, and shortens deployment lifetime.
RADIO_WEIGHT = 50.0
#: Price of one second of stream-engine CPU per second (commodity PCs).
CPU_WEIGHT = 1.0


@dataclass(frozen=True)
class NormalizedCost:
    """A cost expressed in the federated optimizer's common unit.

    Attributes:
        latency_seconds: Expected time from source event to answer.
        resource_rate: Weighted resource-seconds consumed per second of
            operation (radio airtime × RADIO_WEIGHT + CPU × CPU_WEIGHT).
    """

    latency_seconds: float
    resource_rate: float

    @property
    def total(self) -> float:
        """Scalar objective: latency plus one planning horizon of
        sustained resource use (horizon = 1 s keeps units honest —
        resource_rate is already per-second)."""
        return self.latency_seconds + self.resource_rate

    def plus(self, other: "NormalizedCost") -> "NormalizedCost":
        return NormalizedCost(
            self.latency_seconds + other.latency_seconds,
            self.resource_rate + other.resource_rate,
        )

    def __lt__(self, other: "NormalizedCost") -> bool:
        return self.total < other.total


ZERO_COST = NormalizedCost(0.0, 0.0)


def normalize_sensor_cost(cost: SensorCost, network: NetworkInfo) -> NormalizedCost:
    """Convert a sensor-engine cost (messages/epoch) to common units."""
    airtime = network.radio_seconds_per_message
    messages_per_second = cost.messages_per_second
    radio_seconds_per_second = messages_per_second * airtime
    # A result climbs the collection tree once per epoch: latency is the
    # tree depth in radio hops.
    delivery_latency = network.diameter * airtime
    return NormalizedCost(
        latency_seconds=delivery_latency,
        resource_rate=RADIO_WEIGHT * radio_seconds_per_second,
    )


def normalize_stream_cost(cost: StreamCost, network: NetworkInfo) -> NormalizedCost:
    """Convert a stream-engine cost (latency + work rate) to common units."""
    cpu_seconds_per_second = cost.rows_per_second * CPU_SECONDS_PER_ROW
    return NormalizedCost(
        latency_seconds=cost.latency,
        resource_rate=CPU_WEIGHT * cpu_seconds_per_second,
    )


def naive_cost(sensor_costs: list[SensorCost], stream_cost: StreamCost) -> float:
    """The un-normalised comparison (ablation E8): raw message counts and
    raw latency seconds summed as if they shared a unit."""
    return sum(c.messages_per_epoch for c in sensor_costs) + stream_cost.latency
