"""The federated query optimizer — ASPEN's central component.

Paper §3: "Somewhat along the lines of the model established in the
Garlic system, the federated optimizer enumerates all possible plans,
and partitions these plans among the different query engines. It
invokes the optimizer for each query engine over its assigned partition,
and determines (1) whether this is a query plan the engine can actually
execute, and (2) what the cost of the query partition would be."

Implementation: the canonical logical plan is scanned for *maximal
sensor-executable fragments* (subtrees the in-network engine can run:
filtered collections, global aggregates, pairwise joins over sensor
relations). Every subset of those fragments yields one partitioning
alternative: chosen fragments are pushed in-network and replaced by
:class:`~repro.plan.logical.RemoteSource` leaves carrying the
fragment's window; sensor scans left
behind become raw collections (data pulled to the basestation
unfiltered). The stream optimizer then reorders and prices the
remainder, each engine's native cost is normalised
(:mod:`repro.core.cost`), and the cheapest alternative wins.

An aggregate is pushed as a *partial* (TAG, Madden et al., OSDI 2002):
only the Aggregate's child runs in-network, where the motes fold each
epoch's filtered readings into one ``(count, sum, min, max)`` record
per argument. The residual keeps the same Aggregate over the record
feed with every call swapped for its combiner (:func:`_finish`), so
running, tumbling and sliding windows mean exactly what they mean on
the stream engine: a record is stamped at its sample time and lands in
the windows its readings would. Float SUM/AVG add in tree order, which
can differ from the stream fold's arrival order in the last bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.catalog import Catalog, EngineLocation
from repro.errors import OptimizerError, UnsupportedQueryError
from repro.data import DataType, Field, Schema
from repro.plan.logical import (
    Aggregate,
    AggregateItem,
    Join,
    LogicalOp,
    Project,
    ProjectItem,
    RemoteSource,
    Scan,
    Select,
    replace_child,
    scans_of,
    side_window,
)
from repro.sql.expressions import AggregateCall, BinaryOp, ColumnRef, Expr
from repro.sql.expressions import is_equijoin_conjunct, split_conjuncts
from repro.sensor.engine import PSR_FIELDS, psr_name
from repro.sensor.network import SensorNetwork
from repro.sensor.optimizer import (
    SensorCost,
    SensorDeployment,
    SensorEngineOptimizer,
)
from repro.stream.optimizer import StreamCost, StreamEngineOptimizer
from repro.core.cost import (
    NormalizedCost,
    ZERO_COST,
    naive_cost,
    normalize_sensor_cost,
    normalize_stream_cost,
)

_fragment_ids = itertools.count(1)


@dataclass
class PushedFragment:
    """One sensor-engine partition of a federated plan."""

    name: str                       # RemoteSource name at the stream engine
    fragment: LogicalOp             # the logical subtree pushed in-network
    deployment: SensorDeployment
    cost: SensorCost
    result_rate: float              # tuples/second surfacing at the base

    def describe(self) -> str:
        return (
            f"[sensor] {self.name}: {self.deployment.kind} over "
            f"{', '.join(self.deployment.relations)} "
            f"({self.cost.messages_per_epoch:.2f} msgs/epoch)"
        )


@dataclass
class Alternative:
    """One enumerated partitioning with its normalised cost."""

    pushed: list[PushedFragment]
    stream_plan: LogicalOp
    stream_cost: StreamCost
    normalized: NormalizedCost
    naive: float

    def describe(self) -> str:
        pushed = ", ".join(f.name for f in self.pushed) or "<none>"
        return (
            f"push={{{pushed}}} cost={self.normalized.total:.6f} "
            f"(latency={self.normalized.latency_seconds:.4f}s, "
            f"resource={self.normalized.resource_rate:.6f}/s)"
        )


@dataclass
class FederatedPlan:
    """The optimizer's output: a partitioned, costed execution plan.

    Attributes:
        original: The canonical logical plan before partitioning.
        chosen: The winning alternative.
        alternatives: Every alternative enumerated (including the winner),
            for EXPLAIN output and the E3/E8 benches.
        diagnostics: Stable-coded explanations
            (:class:`~repro.analysis.diagnostics.Diagnostic`) attached
            by ``session.explain``: the plan's static-analysis findings
            plus partition-safety, sharing-eligibility and federated
            partitioning decisions. Empty when the plan came straight
            from the optimizer.
    """

    original: LogicalOp
    chosen: Alternative
    alternatives: list[Alternative] = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    @property
    def stream_plan(self) -> LogicalOp:
        return self.chosen.stream_plan

    @property
    def pushed(self) -> list[PushedFragment]:
        return self.chosen.pushed

    @property
    def cost(self) -> NormalizedCost:
        return self.chosen.normalized

    def explain(self) -> str:
        """Figure-1-style rendering: the partition across engines."""
        lines = ["Federated plan:"]
        for fragment in self.chosen.pushed:
            lines.append("  " + fragment.describe())
            lines.append(fragment.fragment.explain(2))
            for decision in fragment.deployment.decisions:
                lines.append(
                    f"    pair ({decision.pair.left_mote},{decision.pair.right_mote}) -> "
                    f"{decision.pair.strategy.value} "
                    f"[base={decision.cost_at_base:.2f} left={decision.cost_at_left:.2f} "
                    f"right={decision.cost_at_right:.2f}]"
                )
        lines.append("  [stream] remainder:")
        lines.append(self.chosen.stream_plan.explain(2))
        lines.append(
            f"  normalized cost: latency={self.cost.latency_seconds:.4f}s "
            f"resource={self.cost.resource_rate:.6f}/s total={self.cost.total:.6f}"
        )
        lines.append(f"  alternatives considered: {len(self.alternatives)}")
        for alternative in self.alternatives:
            marker = "*" if alternative is self.chosen else " "
            lines.append(f"   {marker} {alternative.describe()}")
        if self.diagnostics:
            lines.append("  diagnostics:")
            for diagnostic in self.diagnostics:
                lines.append(f"    {diagnostic.render()}")
        return "\n".join(lines)


class FederatedOptimizer:
    """Partitions logical plans between the sensor and stream engines."""

    def __init__(
        self,
        catalog: Catalog,
        network: SensorNetwork | None = None,
        *,
        use_normalization: bool = True,
    ):
        self._catalog = catalog
        self.sensor_optimizer = SensorEngineOptimizer(catalog, network)
        self.stream_optimizer = StreamEngineOptimizer(catalog)
        #: Ablation switch (bench E8): compare raw engine numbers instead
        #: of normalised ones.
        self.use_normalization = use_normalization

    # ------------------------------------------------------------------
    def optimize(self, plan: LogicalOp) -> FederatedPlan:
        """Enumerate partitionings of ``plan`` and pick the cheapest."""
        candidates = self._find_candidates(plan)
        alternatives: list[Alternative] = []
        for subset_size in range(len(candidates) + 1):
            for subset in itertools.combinations(candidates, subset_size):
                if self._overlapping(subset):
                    continue
                try:
                    alternatives.append(self._build_alternative(plan, list(subset)))
                except (UnsupportedQueryError, OptimizerError):
                    continue
        if not alternatives:
            raise OptimizerError("no engine partition can execute this query")
        if self.use_normalization:
            chosen = min(alternatives, key=lambda a: a.normalized.total)
        else:
            chosen = min(alternatives, key=lambda a: a.naive)
        return FederatedPlan(plan, chosen, alternatives)

    # ------------------------------------------------------------------
    # Candidate fragments
    # ------------------------------------------------------------------
    def _find_candidates(self, node: LogicalOp) -> list[LogicalOp]:
        """Maximal non-trivial sensor-executable subtrees.

        A bare sensor Scan is excluded: pushing it equals the default
        raw-collection treatment, so it adds no distinct alternative.
        """
        if (
            not isinstance(node, Scan)
            and self._touches_sensor(node)
            and self.sensor_optimizer.can_execute(node)
        ):
            return [node]
        out: list[LogicalOp] = []
        for child in node.children:
            out.extend(self._find_candidates(child))
        return out

    def _touches_sensor(self, node: LogicalOp) -> bool:
        return any(
            isinstance(n, Scan) and n.entry.location is EngineLocation.SENSOR
            for n in node.walk()
        )

    @staticmethod
    def _overlapping(subset) -> bool:
        """Fragments must be disjoint subtrees (maximality already
        guarantees this for one pass; guard anyway)."""
        seen: set[int] = set()
        for fragment in subset:
            ids = {id(n) for n in fragment.walk()}
            if ids & seen:
                return True
            seen |= ids
        return False

    # ------------------------------------------------------------------
    # Alternative construction
    # ------------------------------------------------------------------
    def _build_alternative(
        self, plan: LogicalOp, pushed_fragments: list[LogicalOp]
    ) -> Alternative:
        # Sensor scans not covered by a pushed fragment: raw collection.
        covered = {id(n) for fragment in pushed_fragments for n in fragment.walk()}
        raw = [n for n in scans_of(plan) if self._touches_sensor(n) and id(n) not in covered]
        working = plan
        pushed: list[PushedFragment] = []
        for fragment in pushed_fragments + raw:
            number = next(_fragment_ids)
            name = f"raw_{fragment.binding}_{number}" if fragment in raw else f"remote_{number}"
            # An aggregation pushes only the Aggregate's child: the motes
            # ship an epoch record, and the residual finishes it.
            aggregate = next((n for n in fragment.walk() if isinstance(n, Aggregate)), None)
            deployment, cost = self.sensor_optimizer.plan_fragment(
                aggregate or fragment, output_name=name
            )
            rate = self._result_rate(deployment, cost)
            if aggregate is None:
                residual = RemoteSource(
                    name,
                    fragment.schema,
                    rate,
                    partition_by=_fragment_partition_by(fragment),
                    window=side_window(fragment),
                )
            else:
                residual = _finish(aggregate, name, rate, deployment.arguments)
            working = _replace_subtree(working, aggregate or fragment, residual)
            fragment = aggregate.child if aggregate else fragment
            pushed.append(PushedFragment(name, fragment, deployment, cost, rate))

        stream_plan, stream_cost = self.stream_optimizer.optimize(working)
        sensor_costs = [fragment.cost for fragment in pushed]
        normalized = ZERO_COST
        network = self._catalog.network
        for cost in sensor_costs:
            normalized = normalized.plus(normalize_sensor_cost(cost, network))
        normalized = normalized.plus(normalize_stream_cost(stream_cost, network))

        return Alternative(
            pushed=pushed,
            stream_plan=stream_plan,
            stream_cost=stream_cost,
            normalized=normalized,
            naive=naive_cost(sensor_costs, stream_cost),
        )

    def _result_rate(self, deployment: SensorDeployment, cost: SensorCost) -> float:
        """Tuples/second the fragment delivers at the basestation."""
        model = self.sensor_optimizer.model
        period = max(cost.epoch_seconds, 1e-9)
        if deployment.kind == "aggregation":
            return 1.0 / period
        if deployment.kind == "join":
            selectivity = model.selectivity(deployment.predicate)
            return len(deployment.pairs) * selectivity / period
        selectivity = model.selectivity(deployment.predicate)
        entry = self._catalog.source(deployment.relations[0])
        producers = len(entry.device.node_ids) if entry.device else 1
        return max(producers, 1) * selectivity / period


def _fragment_partition_by(fragment: LogicalOp) -> tuple[str, ...]:
    """Columns a pushed fragment's output feed is already hashed on.

    An in-network join is keyed by the join-site equi-key. Anything else
    (filtered collections, raw scans, epoch records) carries no key and
    round-robins across shards.
    """
    node = fragment
    conjuncts = []
    while isinstance(node, (Select, Project)):
        if isinstance(node, Select):
            conjuncts.extend(split_conjuncts(node.predicate))
        node = node.child
    if isinstance(node, Join):
        if node.predicate is not None:
            conjuncts.extend(split_conjuncts(node.predicate))
        names = {f.name for f in fragment.schema}
        for conjunct in conjuncts:
            pair = is_equijoin_conjunct(conjunct)
            if pair is not None and pair[0] in names:
                return (pair[0],)
    return ()


#: The aggregate that folds each epoch-record field across epochs.
_COMBINERS = {"count": "SUM", "sum": "SUM", "min": "MIN", "max": "MAX"}


def _finish(
    aggregate: Aggregate, name: str, rate: float, arguments: list[Expr | None]
) -> Project:
    """The residual that finishes an in-network aggregate: the same
    aggregate over the epoch record feed ``name``, each call swapped for
    its combiner (COUNT → SUM(count), SUM → SUM(sum), MIN → MIN(min),
    MAX → MAX(max), AVG → SUM(sum) / SUM(count)) under a Project
    restoring the original output columns. Each record field is typed
    as the aggregate of its name over its argument (INT for the row)."""
    child = aggregate.child
    record = Schema(
        Field(
            psr_name(i, field),
            DataType.INT if arg is None else AggregateCall(field, arg).dtype(child.schema),
        )
        for i, arg in enumerate(arguments)
        for field in PSR_FIELDS
    )
    remote = RemoteSource(name, record, rate, window=side_window(child))
    combiners: dict[str, AggregateItem] = {}

    def combined(call: AggregateCall, field: str) -> ColumnRef:
        column = psr_name(arguments.index(call.argument), field)
        combiners[column] = AggregateItem(
            AggregateCall(_COMBINERS[field], ColumnRef(column)), column
        )
        return ColumnRef(column)

    outputs = [
        ProjectItem(
            BinaryOp("/", combined(item.call, "sum"), combined(item.call, "count"))
            if item.call.name.upper() == "AVG"
            else combined(item.call, item.call.name.lower()),
            item.name,
        )
        for item in aggregate.aggregates
    ]
    return Project(
        Aggregate(remote, [], list(combiners.values()), aggregate.window), outputs
    )


def _replace_subtree(root: LogicalOp, target: LogicalOp, new: LogicalOp) -> LogicalOp:
    """Rebuild ``root`` with the subtree ``target`` replaced by ``new``."""
    if root is target:
        return new
    rebuilt = root
    for child in root.children:
        new_child = _replace_subtree(child, target, new)
        if new_child is not child:
            rebuilt = replace_child(rebuilt, child, new_child)
    return rebuilt
