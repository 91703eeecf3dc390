"""Seeded input generators: the same seed gives the same rows.

``Readings(room, host, temp, load)``: 4 rooms, 64 hosts of which 8 hot
hosts take half the rows, a host always in the same room, monotone
event time at a fixed number of rows per event-second. ``Events(kind,
host, load)`` likewise. ``temp`` and ``load`` are dyadic rationals
(multiples of 1/4 and 1/256), so SUM/AVG are exact in any fold order:
a digest mismatch between two execution configurations then means a
wrong row, never a reassociated float sum.
"""

from __future__ import annotations

import random

from repro.data import DataType, Schema

READINGS = Schema.of(
    ("room", DataType.STRING),
    ("host", DataType.STRING),
    ("temp", DataType.FLOAT),
    ("load", DataType.FLOAT),
)
EVENTS = Schema.of(
    ("kind", DataType.STRING),
    ("host", DataType.STRING),
    ("load", DataType.FLOAT),
)

ROOMS = ("lab1", "lab2", "office3", "lab4")
KINDS = ("warn", "err", "info")
HOSTS = tuple(f"ws{i}" for i in range(64))
HOT_HOSTS = 8
_HOST_WEIGHTS = [0.5 / HOT_HOSTS] * HOT_HOSTS + [
    0.5 / (len(HOSTS) - HOT_HOSTS)
] * (len(HOSTS) - HOT_HOSTS)
_ROOM_OF = {host: ROOMS[i % len(ROOMS)] for i, host in enumerate(HOSTS)}


def _stamps(count: int, rows_per_second: float) -> list[float]:
    return [i / rows_per_second for i in range(count)]


def readings(
    seed: int, count: int, rows_per_second: float = 100.0
) -> tuple[list[tuple], list[float]]:
    """``count`` Readings value tuples and their event-time stamps."""
    rng = random.Random(f"readings-{seed}")
    hosts = rng.choices(HOSTS, _HOST_WEIGHTS, k=count)
    rand = rng.random
    values = [
        # temp in [10, 100) step 0.25; load in [0, 1) step 1/256.
        (_ROOM_OF[host], host, 10.0 + int(rand() * 360) / 4.0, int(rand() * 256) / 256.0)
        for host in hosts
    ]
    return values, _stamps(count, rows_per_second)


def events(
    seed: int, count: int, rows_per_second: float = 100.0
) -> tuple[list[tuple], list[float]]:
    """``count`` Events value tuples and their event-time stamps."""
    rng = random.Random(f"events-{seed}")
    hosts = rng.choices(HOSTS, _HOST_WEIGHTS, k=count)
    kinds = rng.choices(KINDS, k=count)
    rand = rng.random
    values = [
        (kind, host, int(rand() * 256) / 256.0) for kind, host in zip(kinds, hosts)
    ]
    return values, _stamps(count, rows_per_second)
