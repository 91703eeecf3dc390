"""Shared fixtures: catalogs, engines, networks and small worlds."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.catalog import Catalog, DeviceInfo, SourceStatistics
from repro.data import DataType, Punctuation, Row, Schema
from repro.plan import PlanBuilder
from repro.runtime import Simulator
from repro.sensor import Mote, MoteRole, Position, SensorNetwork
from repro.sql import compiled
from repro.stream import StreamEngine

#: Every code generator behind ``repro.sql.compiled._generate``.
GENERATORS = (
    "_codegen",
    "_codegen_fused",
    "_codegen_fused_batch",
    "_codegen_distinct",
    "_codegen_accumulate",
    "_codegen_join_probe",
    "_codegen_ingest",
    "_codegen_loop",
)


def _decline(*args, **kwargs):
    raise RuntimeError("code generation declined by the test")


@contextmanager
def declining(*generators: str):
    """Pipelines compiled inside this block find the named generators
    declining — the counted fallback production takes when code
    generation fails. This is how an identity corpus selects its
    reference arm; the product has no switch for it. Yields a dict that
    holds, once the block has exited, the ``compile_counts()`` delta
    across it.

    In-process only (worker processes generate normally), and
    ``repro.stream.batch`` memoizes closures on the plan node, so build
    a fresh plan per arm when comparing ``evaluate``.
    """
    counts: dict[str, int] = {}
    before = compiled.compile_counts()
    with pytest.MonkeyPatch.context() as patch:
        for name in generators:
            patch.setattr(compiled, name, _decline)
        yield counts
    for key, total in compiled.compile_counts().items():
        counts[key] = total - before[key]


@contextmanager
def interpreted():
    """The reference arm: every generator declines, so the whole
    pipeline runs ``Expr.eval`` — and is checked to have."""
    with declining(*GENERATORS) as counts:
        yield counts
    assert counts["generated"] == 0 and counts["fallbacks"] > 0, counts


def unfused():
    """``_codegen_fused`` declines: one operator per plan node, each
    with its own generated loop."""
    return declining("_codegen_fused")


@contextmanager
def generated():
    """The default arm, checked to hold no fallback."""
    with declining() as counts:
        yield counts
    assert counts["fallbacks"] == 0, counts


@pytest.fixture
def no_fallbacks():
    """An identity corpus's default arm: nothing the test compiled (in
    this process) fell back to the interpreter."""
    with generated():
        yield


@pytest.fixture
def catalog() -> Catalog:
    """A catalog with the demo-style relations registered."""
    cat = Catalog()
    cat.register_stream(
        "Person",
        Schema.of(
            ("id", DataType.INT),
            ("room", DataType.STRING),
            ("needed", DataType.STRING),
        ),
        rate=0.05,
        statistics=SourceStatistics(rate=0.05, distinct_values={"room": 10}),
    )
    cat.register_sensor_stream(
        "AreaSensors",
        Schema.of(("room", DataType.STRING), ("status", DataType.STRING)),
        DeviceInfo(node_ids=(1, 2, 3), sample_period=10.0, attribute="light"),
        statistics=SourceStatistics(rate=0.3, distinct_values={"room": 3, "status": 2}),
    )
    cat.register_sensor_stream(
        "SeatSensors",
        Schema.of(
            ("room", DataType.STRING),
            ("desk", DataType.STRING),
            ("status", DataType.STRING),
        ),
        DeviceInfo(node_ids=(3, 4, 5), sample_period=5.0, attribute="light"),
        statistics=SourceStatistics(
            rate=0.6, distinct_values={"room": 3, "desk": 6, "status": 2}
        ),
    )
    cat.register_table(
        "Machines",
        Schema.of(
            ("host", DataType.STRING),
            ("room", DataType.STRING),
            ("desk", DataType.STRING),
            ("software", DataType.STRING),
        ),
        cardinality=6,
        statistics=SourceStatistics(
            cardinality=6, distinct_values={"room": 3, "desk": 6, "software": 3}
        ),
    )
    cat.register_table(
        "Route",
        Schema.of(
            ("start", DataType.STRING),
            ("end", DataType.STRING),
            ("path", DataType.STRING),
        ),
        cardinality=20,
    )
    cat.register_stream(
        "Temps",
        Schema.of(("room", DataType.STRING), ("temp", DataType.FLOAT)),
        rate=1.0,
        statistics=SourceStatistics(rate=1.0, distinct_values={"room": 3}),
    )
    cat.register_table(
        "Edges",
        Schema.of(("src", DataType.STRING), ("dst", DataType.STRING), ("dist", DataType.FLOAT)),
        cardinality=10,
    )
    return cat


@pytest.fixture
def builder(catalog: Catalog) -> PlanBuilder:
    return PlanBuilder(catalog)


@pytest.fixture
def engine(catalog: Catalog) -> StreamEngine:
    return StreamEngine(catalog)


@pytest.fixture
def simulator() -> Simulator:
    return Simulator(seed=42)


@pytest.fixture
def line_network(simulator: Simulator) -> SensorNetwork:
    """Base at x=0, five motes every 80 ft in a line (multihop chain)."""
    net = SensorNetwork(simulator)
    net.add_basestation(Position(0, 0))
    for i in range(1, 6):
        mote = Mote(i, Position(i * 80.0, 0.0), MoteRole.WORKSTATION, radio_range=100.0)
        mote.attach_sensor("temp", lambda i=i: 20.0 + i)
        net.add_mote(mote)
    net.rebuild_topology()
    return net


def make_row(schema: Schema, *values) -> Row:
    return Row(schema, values)


def edges_schema() -> Schema:
    return Schema.of(
        ("src", DataType.STRING), ("dst", DataType.STRING), ("dist", DataType.FLOAT)
    )


def deliver(consumer, items) -> None:
    """Hand a mixed item sequence to ``consumer`` the way the push
    contract says producers must: each punctuation-free run of elements
    by ``push_batch``, each punctuation by ``push``, in order."""
    run: list = []
    for item in items:
        if isinstance(item, Punctuation):
            if run:
                consumer.push_batch(run)
                run = []
            consumer.push(item)
        else:
            run.append(item)
    if run:
        consumer.push_batch(run)
