"""Distributed execution for the stream engine.

The paper's stream engine runs "over PC-style servers and workstations".
This module models that: a set of :class:`StreamNode` machines joined by
a LAN, operators placed on nodes, and :class:`Exchange` links that ship
elements between nodes with simulated latency and byte accounting.

The simulation is faithful enough for the cost model to be validated:
an element crossing ``k`` exchanges arrives ``k × lan_latency +
bytes/bandwidth`` later, and per-link byte counters let benches report
network traffic alongside latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog import Catalog
from repro.data.streams import Punctuation, StreamConsumer, StreamItem, StreamElement
from repro.errors import ExecutionError
from repro.plan.logical import Join, LogicalOp, Scan
from repro.runtime import Simulator


@dataclass
class StreamNode:
    """One PC in the distributed stream engine.

    Attributes:
        name: Host name ("server-1", "workstation-lab2", ...).
        operators_hosted: Count of operators placed here (for reports).
    """

    name: str
    operators_hosted: int = 0
    elements_processed: int = 0


class Exchange:
    """A network link between operators on different nodes.

    Elements pushed into the exchange are delivered to the downstream
    consumer after the simulated LAN delay. Bytes and element counts are
    recorded for benches.
    """

    def __init__(
        self,
        simulator: Simulator,
        downstream: StreamConsumer,
        source_node: StreamNode,
        target_node: StreamNode,
        latency: float,
        bandwidth: float,
        row_bytes: int,
    ):
        self._simulator = simulator
        self._downstream = downstream
        self.source_node = source_node
        self.target_node = target_node
        self.latency = latency
        self.bandwidth = bandwidth
        self.row_bytes = row_bytes
        self.elements_sent = 0
        self.bytes_sent = 0
        self._last_arrival = 0.0

    def push(self, item: StreamItem) -> None:
        if isinstance(item, Punctuation):
            delay = self.latency
        else:
            self.elements_sent += 1
            self.bytes_sent += self.row_bytes
            delay = self.latency + self.row_bytes / self.bandwidth
        # FIFO: a punctuation (smaller delay) must not overtake data
        # elements already in flight on this link.
        arrival = max(self._simulator.now + delay, self._last_arrival)
        self._last_arrival = arrival
        self._simulator.schedule(arrival, lambda: self._downstream.push(item))


@dataclass
class Placement:
    """Assignment of plan nodes to stream nodes.

    ``assignments`` maps logical plan node ids to node names; unassigned
    operators inherit their parent's node (the coordinator at the root).
    """

    coordinator: str
    assignments: dict[int, str] = field(default_factory=dict)

    def node_for(self, op: LogicalOp, parent_node: str) -> str:
        return self.assignments.get(op.plan_id, parent_node)


class DistributedQuery:
    """A continuous query running across stream nodes.

    Elements pushed into :meth:`push` enter at the scan's placed node
    and traverse simulated LAN links; call ``simulator.run_for(...)`` to
    deliver them. Results accumulate in :attr:`sink`.
    """

    def __init__(self, engine: "DistributedStreamEngine", plan, placement, compiled, sink):
        self.engine = engine
        self.plan = plan
        self.placement = placement
        self.compiled = compiled
        self.sink = sink

    def push(self, source_name: str, row, timestamp: float) -> None:
        """Push a source element into every matching scan port."""
        from repro.data.streams import StreamElement
        from repro.data.tuples import Row as RowType

        for port in self.compiled.ports:
            if port.source_name.lower() != source_name.lower():
                continue
            schema = port.scan.entry.schema if port.scan else None
            if isinstance(row, RowType):
                element_row = row
            else:
                element_row = RowType.from_mapping(schema, row)
            port.consumer.push(StreamElement(element_row, timestamp, source_name))

    def punctuate(self, watermark: float, sources: list[str] | None = None) -> None:
        """Advance the watermark on every port (default) or only on the
        named sources' ports, matching StreamEngine.punctuate."""
        lowered = None if sources is None else {s.lower() for s in sources}
        for port in self.compiled.ports:
            if lowered is None or port.source_name.lower() in lowered:
                port.consumer.push(Punctuation(watermark))

    @property
    def results(self):
        return self.sink.rows


class DistributedStreamEngine:
    """Places a plan's operators across nodes and accounts for traffic.

    The actual operator pipeline still executes inline (the engine is a
    simulation), but every edge whose endpoints live on different nodes
    is routed through an :class:`Exchange`, adding latency and counting
    bytes — which is what the latency experiments measure.
    """

    def __init__(self, catalog: Catalog, simulator: Simulator, node_names: list[str]):
        if not node_names:
            raise ExecutionError("need at least one stream node")
        self._catalog = catalog
        self._simulator = simulator
        self.nodes: dict[str, StreamNode] = {n: StreamNode(n) for n in node_names}
        self.exchanges: list[Exchange] = []

    def default_placement(self, plan: LogicalOp) -> Placement:
        """Scans placed on the node 'closest' to their source (round-robin
        over non-coordinator nodes), everything else on the coordinator."""
        names = list(self.nodes)
        coordinator = names[0]
        placement = Placement(coordinator)
        workers = names[1:] or names
        index = 0
        for node in plan.walk():
            if isinstance(node, Scan):
                placement.assignments[node.plan_id] = workers[index % len(workers)]
                index += 1
        return placement

    def wrap_edges(
        self, plan: LogicalOp, consumers: dict[int, StreamConsumer], placement: Placement
    ) -> dict[int, StreamConsumer]:
        """Wrap the consumer of every cross-node plan edge in an Exchange.

        ``consumers`` maps plan node id → the consumer feeding that
        node's parent (as produced by the compiler); the returned map has
        exchanges interposed where placement crosses node boundaries.
        """
        wrapped: dict[int, StreamConsumer] = {}
        network = self._catalog.network
        for op in plan.walk():
            parent_node = self._parent_node(plan, op, placement)
            own_node = placement.node_for(op, parent_node)
            consumer = consumers.get(op.plan_id)
            if consumer is None:
                continue
            if own_node != parent_node:
                exchange = Exchange(
                    self._simulator,
                    consumer,
                    self.nodes[own_node],
                    self.nodes[parent_node],
                    network.lan_latency,
                    network.lan_bandwidth,
                    op.schema.row_size_bytes(),
                )
                self.exchanges.append(exchange)
                wrapped[op.plan_id] = exchange
            else:
                wrapped[op.plan_id] = consumer
            self.nodes[own_node].operators_hosted += 1
        return wrapped

    def _parent_node(self, plan: LogicalOp, target: LogicalOp, placement: Placement) -> str:
        parent = self._find_parent(plan, target)
        if parent is None:
            return placement.coordinator
        grand = self._parent_node(plan, parent, placement)
        return placement.node_for(parent, grand)

    def _find_parent(self, plan: LogicalOp, target: LogicalOp) -> LogicalOp | None:
        for node in plan.walk():
            if any(child is target for child in node.children):
                return node
        return None

    # ------------------------------------------------------------------
    # End-to-end execution
    # ------------------------------------------------------------------
    def execute(self, plan: LogicalOp, placement: Placement | None = None):
        """Compile ``plan`` with cross-node edges routed through
        simulated Exchanges, and return a distributed query handle.

        The handle exposes ``ports`` (feed source elements here — data
        entering at a scan placed on a worker crosses the LAN before the
        coordinator's operators see it), ``sink`` (results) and traffic
        accessors. Pumping the shared :class:`Simulator` delivers
        in-flight elements.
        """
        from repro.data.streams import CollectingConsumer
        from repro.stream.compiler import PlanCompiler, result_sink

        placement = placement or self.default_placement(plan)
        sink = CollectingConsumer()
        compiled = PlanCompiler().compile(plan, result_sink(plan, sink))
        network = self._catalog.network

        # The compiler wired Scan ports directly; interpose an Exchange
        # on every port whose scan is placed off-coordinator.
        for port in compiled.ports:
            scan = port.scan
            if scan is None:
                continue
            own_node = placement.node_for(scan, placement.coordinator)
            parent_node = self._parent_node(plan, scan, placement)
            if own_node == parent_node:
                self.nodes[own_node].operators_hosted += 1
                continue
            exchange = Exchange(
                self._simulator,
                port.consumer,
                self.nodes[own_node],
                self.nodes[parent_node],
                network.lan_latency,
                network.lan_bandwidth,
                scan.schema.row_size_bytes(),
            )
            self.exchanges.append(exchange)
            port.consumer = exchange
            self.nodes[own_node].operators_hosted += 1
        return DistributedQuery(self, plan, placement, compiled, sink)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def total_network_bytes(self) -> int:
        return sum(e.bytes_sent for e in self.exchanges)

    def total_network_elements(self) -> int:
        return sum(e.elements_sent for e in self.exchanges)

    def report(self) -> str:
        lines = ["Distributed stream engine:"]
        for node in self.nodes.values():
            lines.append(f"  {node.name}: {node.operators_hosted} operators")
        for exchange in self.exchanges:
            lines.append(
                f"  link {exchange.source_node.name} -> {exchange.target_node.name}: "
                f"{exchange.elements_sent} elements, {exchange.bytes_sent} bytes"
            )
        return "\n".join(lines)
