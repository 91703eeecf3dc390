"""Sensor-engine optimizer: message-cost model and join-site selection.

Paper §3: "the sensor optimizer attempts to minimize message traffic"
and the engine's optimizer "decides, on a sensor-by-sensor basis, where
to perform the join". This module implements both:

* :class:`SensorCostModel` prices collection, tree aggregation and
  pairwise joins in **expected radio messages per epoch** (the unit the
  federated optimizer later converts).
* :meth:`SensorEngineOptimizer.choose_join_sites` picks, for every mote
  pair, the cheapest of ship-both-to-base / join-at-left /
  join-at-right given the predicate's selectivity and the motes' actual
  hop distances — the per-sensor decision the paper highlights.
* :meth:`SensorEngineOptimizer.plan_fragment` checks whether a logical
  fragment is executable in-network at all (capability model), and
  produces a deployment descriptor plus its cost.
* :func:`partition_plan` is the reusable entry point over the federated
  partitioner: one call from a logical plan to a costed
  :class:`~repro.core.federated.FederatedPlan` (in-network fragments +
  stream residual). The Session's ``FederatedBackend`` and
  ``SmartCIS`` both resolve through it, so there is exactly one
  plan-partitioning implementation in the codebase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog import Catalog, EngineLocation
from repro.data.windows import WindowKind
from repro.errors import OptimizerError, UnsupportedQueryError
from repro.plan.logical import (
    Aggregate,
    Join,
    LogicalOp,
    Project,
    Scan,
    Select,
)
from repro.sensor.engine import PSR_BYTES, JoinPair, JoinStrategy
from repro.sensor.network import SensorNetwork
from repro.sql.expressions import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    Expr,
    FunctionCall,
    UnaryOp,
    SENSOR_PUSHABLE_AGGREGATES,
    conjoin,
    split_conjuncts,
)

#: Operators a mote's tiny evaluator supports.
_MOTE_OPERATORS = frozenset({"=", "!=", "<>", "<", "<=", ">", ">=", "AND", "OR", "+", "-", "*", "/"})


@dataclass(frozen=True)
class SensorCost:
    """Cost of an in-network fragment in the sensor engine's native units.

    Attributes:
        messages_per_epoch: Expected radio messages per sampling epoch.
        bytes_per_epoch: Expected payload bytes per epoch.
        epoch_seconds: The fragment's sampling period.
    """

    messages_per_epoch: float
    bytes_per_epoch: float
    epoch_seconds: float

    @property
    def messages_per_second(self) -> float:
        if self.epoch_seconds <= 0:
            return 0.0
        return self.messages_per_epoch / self.epoch_seconds

    def __lt__(self, other: "SensorCost") -> bool:
        return self.messages_per_epoch < other.messages_per_epoch


@dataclass
class JoinSiteDecision:
    """The optimizer's choice for one mote pair."""

    pair: JoinPair
    cost_at_base: float
    cost_at_left: float
    cost_at_right: float

    @property
    def chosen_cost(self) -> float:
        return {
            JoinStrategy.AT_BASE: self.cost_at_base,
            JoinStrategy.AT_LEFT: self.cost_at_left,
            JoinStrategy.AT_RIGHT: self.cost_at_right,
        }[self.pair.strategy]


@dataclass
class SensorDeployment:
    """Deployment descriptor for an in-network fragment.

    One of three shapes (mirroring the engine's primitives):
    ``kind == "collection"`` (relation + local predicate),
    ``kind == "aggregation"`` (relation + local predicate + the distinct
    arguments the epoch record folds, ``None`` for the row), or
    ``kind == "join"`` (two relations + per-pair strategies).
    """

    kind: str
    relations: list[str]
    predicate: Expr | None = None
    arguments: list[Expr | None] = field(default_factory=list)
    pairs: list[JoinPair] = field(default_factory=list)
    decisions: list[JoinSiteDecision] = field(default_factory=list)
    output_name: str = ""


class SensorCostModel:
    """Message-count estimation against a live network topology."""

    def __init__(self, catalog: Catalog, network: SensorNetwork | None = None):
        self._catalog = catalog
        self._network = network

    # ------------------------------------------------------------------
    # Topology inputs (fall back to catalog diameter when no network)
    # ------------------------------------------------------------------
    def hops_to_base(self, mote_id: int) -> float:
        if self._network is not None:
            return float(self._network.hops_to_base(mote_id))
        return float(self._catalog.network.diameter) / 2.0

    def hop_distance(self, a: int, b: int) -> float:
        if self._network is not None:
            return float(len(self._network.route(a, b)) - 1)
        return 1.0  # paired motes are deployed adjacently

    def average_hops(self, mote_ids: tuple[int, ...]) -> float:
        if not mote_ids:
            return float(self._catalog.network.diameter) / 2.0
        return sum(self.hops_to_base(m) for m in mote_ids) / len(mote_ids)

    # ------------------------------------------------------------------
    # Selectivity (simple; column NDVs from the catalog)
    # ------------------------------------------------------------------
    def selectivity(self, predicate: Expr | None) -> float:
        if predicate is None:
            return 1.0
        out = 1.0
        for conjunct in split_conjuncts(predicate):
            out *= self._conjunct(conjunct)
        return max(out, 1e-4)

    def _conjunct(self, expr: Expr) -> float:
        if isinstance(expr, BinaryOp):
            if expr.op == "=":
                return 1.0 / max(self._ndv_of(expr), 1)
            if expr.op in ("<", "<=", ">", ">="):
                return 1.0 / 3.0
            if expr.op in ("!=", "<>"):
                return 0.9
            if expr.op == "OR":
                return min(self._conjunct(expr.left) + self._conjunct(expr.right), 1.0)
        return 0.33

    def _ndv_of(self, expr: BinaryOp) -> int:
        for side in (expr.left, expr.right):
            if isinstance(side, ColumnRef):
                bare = side.bare_name
                for name in self._catalog.source_names():
                    entry = self._catalog.source(name)
                    if entry.location is EngineLocation.SENSOR and entry.schema.has(bare):
                        return entry.statistics.ndv(bare)
        return 10

    # ------------------------------------------------------------------
    # Primitive costs (messages per epoch)
    # ------------------------------------------------------------------
    def collection_cost(
        self, mote_ids: tuple[int, ...], selectivity: float, row_bytes: int
    ) -> tuple[float, float]:
        """(messages, bytes): every passing tuple travels its full depth."""
        messages = sum(selectivity * self.hops_to_base(m) for m in mote_ids)
        return messages, messages * row_bytes

    def aggregation_cost(self, mote_ids: tuple[int, ...]) -> tuple[float, float]:
        """(messages, bytes): one single-argument PSR per participating
        tree edge.

        Approximated as one message per member mote plus the relay edges
        on paths to the base that are not member motes themselves; with
        clustered deployments the dominant term is ``len(mote_ids)``.
        """
        if self._network is None:
            messages = float(len(mote_ids))
            return messages, messages * PSR_BYTES
        edges: set[tuple[int, int]] = set()
        for mote_id in mote_ids:
            current = mote_id
            while current != self._network.basestation.mote_id:
                parent = self._network.parent_of(current)
                edges.add((current, parent))
                current = parent
        return float(len(edges)), float(len(edges)) * PSR_BYTES

    def join_pair_costs(
        self,
        pair: JoinPair,
        selectivity: float,
    ) -> JoinSiteDecision:
        """Expected messages/epoch for each strategy of one pair.

        * at base: both tuples climb to the base every epoch.
        * at left: right tuple travels to the left mote, and with
          probability ``selectivity`` the joined tuple climbs to base.
        * at right: symmetric.
        """
        left_up = self.hops_to_base(pair.left_mote)
        right_up = self.hops_to_base(pair.right_mote)
        between = self.hop_distance(pair.left_mote, pair.right_mote)
        at_base = left_up + right_up
        at_left = between + selectivity * left_up
        at_right = between + selectivity * right_up
        return JoinSiteDecision(pair, at_base, at_left, at_right)


class SensorEngineOptimizer:
    """Capability checking, join-site selection and fragment costing.

    ``pairing_provider`` supplies deployment knowledge about which motes
    are joinable: ``provider(left_entry, right_entry) -> list[JoinPair]
    | None``. When None (or when the provider returns None), motes are
    paired positionally — correct for matched per-desk deployments,
    wrong for asymmetric ones, so applications should install a
    provider (SmartCIS pairs each room mote with every seat in the
    room, and each workstation mote with the seat on its desk).
    """

    def __init__(self, catalog: Catalog, network: SensorNetwork | None = None):
        self._catalog = catalog
        self.model = SensorCostModel(catalog, network)
        self.pairing_provider = None

    # ------------------------------------------------------------------
    # Capability model
    # ------------------------------------------------------------------
    def can_execute(self, plan: LogicalOp) -> bool:
        """True when the fragment can run entirely in-network."""
        try:
            self._check(plan)
            return True
        except UnsupportedQueryError:
            return False

    def _check(self, node: LogicalOp) -> None:
        if isinstance(node, Scan):
            if node.entry.location is not EngineLocation.SENSOR:
                raise UnsupportedQueryError(
                    f"{node.entry.name} is not hosted on sensor devices"
                )
            return
        if isinstance(node, Select):
            self._check_expr(node.predicate)
            self._check(node.child)
            return
        if isinstance(node, Project):
            for item in node.items:
                self._check_expr(item.expr)
            self._check(node.child)
            return
        if isinstance(node, Join):
            # Only a single pairwise join level is supported in-network.
            for child in (node.left, node.right):
                for inner in child.walk():
                    if isinstance(inner, (Join, Aggregate)):
                        raise UnsupportedQueryError("nested in-network joins unsupported")
                self._check(child)
            if node.predicate is not None:
                self._check_expr(node.predicate)
            return
        if isinstance(node, Aggregate):
            if node.group_by:
                raise UnsupportedQueryError("grouped aggregation not supported in-network")
            if any(isinstance(inner, Join) for inner in node.child.walk()):
                # The motes fold readings; joined pairs meet at the base.
                raise UnsupportedQueryError("aggregation over an in-network join unsupported")
            if node.window is not None and node.window.kind is WindowKind.ROWS:
                # ROWS counts readings, and one epoch record stands for many.
                raise UnsupportedQueryError(
                    f"{node.window.render()} aggregate counts readings; collected raw"
                )
            for item in node.aggregates:
                if item.call.name.upper() not in SENSOR_PUSHABLE_AGGREGATES:
                    raise UnsupportedQueryError(f"{item.call.name} not tree-decomposable")
                if item.call.distinct:
                    raise UnsupportedQueryError("DISTINCT aggregates not supported in-network")
                self._check_expr(item.call.argument)
            self._check(node.child)
            return
        raise UnsupportedQueryError(
            f"{type(node).__name__} cannot run on sensor devices"
        )

    def _check_expr(self, expr: Expr | None) -> None:
        if expr is None:
            return
        for node in expr.walk():
            if isinstance(node, BinaryOp) and node.op not in _MOTE_OPERATORS:
                raise UnsupportedQueryError(f"operator {node.op} unsupported on motes")
            if isinstance(node, FunctionCall):
                raise UnsupportedQueryError("scalar functions unsupported on motes")
            if isinstance(node, UnaryOp) and node.op not in ("NOT", "-"):
                raise UnsupportedQueryError(f"operator {node.op} unsupported on motes")
            if isinstance(node, AggregateCall):
                raise UnsupportedQueryError("aggregate in scalar position")

    # ------------------------------------------------------------------
    # Join-site selection (the per-sensor decision)
    # ------------------------------------------------------------------
    def choose_join_sites(
        self, pairs: list[JoinPair], selectivity: float
    ) -> list[JoinSiteDecision]:
        """Pick the min-cost strategy independently for every pair."""
        decisions = []
        for pair in pairs:
            decision = self.model.join_pair_costs(pair, selectivity)
            best = min(
                (decision.cost_at_base, JoinStrategy.AT_BASE),
                (decision.cost_at_left, JoinStrategy.AT_LEFT),
                (decision.cost_at_right, JoinStrategy.AT_RIGHT),
                key=lambda option: option[0],
            )
            decision.pair.strategy = best[1]
            decisions.append(decision)
        return decisions

    # ------------------------------------------------------------------
    # Fragment planning
    # ------------------------------------------------------------------
    def plan_fragment(
        self,
        plan: LogicalOp,
        pairs: list[JoinPair] | None = None,
        output_name: str = "",
    ) -> tuple[SensorDeployment, SensorCost]:
        """Produce a deployment + cost for an executable fragment.

        Raises :class:`UnsupportedQueryError` when the fragment is
        outside the engine's capabilities (callers fall back to pulling
        raw streams out of the network).
        """
        self._check(plan)
        scans = [n for n in plan.walk() if isinstance(n, Scan)]
        joins = [n for n in plan.walk() if isinstance(n, Join)]
        aggregates = [n for n in plan.walk() if isinstance(n, Aggregate)]
        selects = [n for n in plan.walk() if isinstance(n, Select)]
        predicate = conjoin([c for s in selects for c in split_conjuncts(s.predicate)])
        selectivity = self.model.selectivity(predicate)

        if joins:
            join = joins[0]
            left_scan = next(n for n in join.left.walk() if isinstance(n, Scan))
            right_scan = next(n for n in join.right.walk() if isinstance(n, Scan))
            if pairs is None:
                pairs = self.default_pairs(left_scan, right_scan)
            # The filters below the join decide its selectivity: the
            # equi-pairing itself is structural.
            decisions = self.choose_join_sites(pairs, selectivity)
            messages = sum(d.chosen_cost for d in decisions)
            row_bytes = left_scan.entry.schema.row_size_bytes() + (
                right_scan.entry.schema.row_size_bytes()
            )
            period = self._period(left_scan, right_scan)
            deployment = SensorDeployment(
                kind="join",
                relations=[left_scan.entry.name, right_scan.entry.name],
                predicate=join.predicate,
                pairs=[d.pair for d in decisions],
                decisions=decisions,
                output_name=output_name or f"{left_scan.entry.name}_join",
            )
            return deployment, SensorCost(messages, messages * row_bytes, period)

        if aggregates:
            scan = scans[0]
            arguments = list(
                dict.fromkeys(item.call.argument for item in aggregates[0].aggregates)
            )
            mote_ids = tuple(scan.entry.device.node_ids if scan.entry.device else ())
            messages, payload = self.model.aggregation_cost(mote_ids)
            deployment = SensorDeployment(
                kind="aggregation",
                relations=[scan.entry.name],
                predicate=predicate,
                arguments=arguments,
                output_name=output_name or f"{scan.entry.name}_psr",
            )
            return deployment, SensorCost(
                messages, payload * len(arguments), self._period(scan)
            )

        scan = scans[0]
        mote_ids = tuple(scan.entry.device.node_ids if scan.entry.device else ())
        messages, payload = self.model.collection_cost(
            mote_ids, selectivity, scan.entry.schema.row_size_bytes()
        )
        deployment = SensorDeployment(
            kind="collection",
            relations=[scan.entry.name],
            predicate=predicate,
            output_name=output_name or scan.entry.name,
        )
        return deployment, SensorCost(messages, payload, self._period(scan))

    # ------------------------------------------------------------------
    def default_pairs(self, left_scan: Scan, right_scan: Scan) -> list[JoinPair]:
        """Joinable mote pairs: the pairing provider's answer when one is
        installed, else positional zip of the two node-id lists."""
        if self.pairing_provider is not None:
            provided = self.pairing_provider(left_scan.entry, right_scan.entry)
            if provided is not None:
                return [JoinPair(p.left_mote, p.right_mote, p.strategy) for p in provided]
        left_ids = left_scan.entry.device.node_ids if left_scan.entry.device else ()
        right_ids = right_scan.entry.device.node_ids if right_scan.entry.device else ()
        return [JoinPair(l, r) for l, r in zip(left_ids, right_ids)]

    def _period(self, *scans: Scan) -> float:
        periods = [
            s.entry.device.sample_period
            for s in scans
            if s.entry.device is not None and s.entry.device.sample_period > 0
        ]
        return max(periods) if periods else 10.0


# ---------------------------------------------------------------------------
# The reusable partitioning entry point
# ---------------------------------------------------------------------------
def partition_plan(
    plan: LogicalOp,
    catalog: Catalog | None = None,
    network: SensorNetwork | None = None,
    *,
    pairing_provider=None,
    use_normalization: bool = True,
    optimizer=None,
):
    """Partition a logical plan between the sensor and stream engines.

    Returns a :class:`~repro.core.federated.FederatedPlan`: the chosen
    in-network fragments (filters, periodic collection, key-covering
    aggregation, pairwise joins) plus the residual plan the stream
    engine runs against the fragments' ``RemoteSource`` feeds. Plans
    without sensor-hosted scans come back whole as the residual with no
    fragments, so callers can funnel every SELECT through this one
    function.

    ``network`` supplies live topology for the message-cost model (the
    catalog's diameter is the fallback); ``pairing_provider`` injects
    deployment knowledge about joinable mote pairs (see
    :class:`SensorEngineOptimizer`). ``optimizer`` reuses an existing
    :class:`~repro.core.federated.FederatedOptimizer` instead of
    building one — the Session's ``FederatedBackend`` passes its own,
    so a pairing provider installed on it keeps applying.
    """
    if optimizer is None:
        if catalog is None:
            raise OptimizerError("partition_plan needs a catalog or an optimizer")
        # Imported lazily: repro.core.federated imports this module.
        from repro.core.federated import FederatedOptimizer

        optimizer = FederatedOptimizer(
            catalog, network, use_normalization=use_normalization
        )
        if pairing_provider is not None:
            optimizer.sensor_optimizer.pairing_provider = pairing_provider
    return optimizer.optimize(plan)
