"""The federated query optimizer — ASPEN's central component.

Paper §3: "Somewhat along the lines of the model established in the
Garlic system, the federated optimizer enumerates all possible plans,
and partitions these plans among the different query engines. It
invokes the optimizer for each query engine over its assigned partition,
and determines (1) whether this is a query plan the engine can actually
execute, and (2) what the cost of the query partition would be."

Implementation: the canonical logical plan is scanned for *maximal
sensor-executable fragments* (subtrees the in-network engine can run:
filtered collections, single aggregates, pairwise joins over sensor
relations). Every subset of those fragments yields one partitioning
alternative: chosen fragments are pushed in-network and replaced by
:class:`~repro.plan.logical.RemoteSource` leaves carrying the
fragment's window; sensor scans left
behind become raw collections (data pulled to the basestation
unfiltered). The stream optimizer then reorders and prices the
remainder, each engine's native cost is normalised
(:mod:`repro.core.cost`), and the cheapest alternative wins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.catalog import Catalog, EngineLocation
from repro.errors import OptimizerError, UnsupportedQueryError
from repro.plan.logical import (
    Aggregate,
    Join,
    LogicalOp,
    Project,
    RemoteSource,
    Scan,
    Select,
    replace_child,
    side_window,
)
from repro.sql.expressions import is_equijoin_conjunct, split_conjuncts
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
        working = plan
        pushed: list[PushedFragment] = []
        sensor_costs: list[SensorCost] = []

        for fragment in pushed_fragments:
            name = f"remote_{next(_fragment_ids)}"
            deployment, cost = self.sensor_optimizer.plan_fragment(
                fragment, output_name=name
            )
            rate = self._result_rate(deployment, cost)
            remote = RemoteSource(
                name,
                fragment.schema,
                rate,
                partition_by=_fragment_partition_by(fragment),
                window=side_window(fragment),
            )
            working = _replace_subtree(working, fragment, remote)
            pushed.append(PushedFragment(name, fragment, deployment, cost, rate))
            sensor_costs.append(cost)

        # Sensor scans not covered by a pushed fragment: raw collection.
        for scan in [n for n in working.walk() if isinstance(n, Scan)]:
            if scan.entry.location is not EngineLocation.SENSOR:
                continue
            name = f"raw_{scan.binding}_{next(_fragment_ids)}"
            deployment, cost = self.sensor_optimizer.plan_fragment(
                scan, output_name=name
            )
            rate = self._result_rate(deployment, cost)
            remote = RemoteSource(name, scan.schema, rate, window=side_window(scan))
            working = _replace_subtree(working, scan, remote)
            pushed.append(PushedFragment(name, scan, deployment, cost, rate))
            sensor_costs.append(cost)

        stream_plan, stream_cost = self.stream_optimizer.optimize(working)

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

    An in-network aggregation surfaces one row per group, so its feed is
    keyed by the GROUP BY columns; an in-network join is keyed by the
    join-site equi-key. Anything else (filtered collections, raw scans)
    carries no key and round-robins across shards.
    """
    node = fragment
    conjuncts = []
    while isinstance(node, (Select, Project)):
        if isinstance(node, Select):
            conjuncts.extend(split_conjuncts(node.predicate))
        node = node.child
    if isinstance(node, Aggregate) and node.group_by:
        names = {f.name for f in fragment.schema} | {
            f.bare_name for f in fragment.schema
        }
        keys = tuple(node.key_names)
        if all(key in names for key in keys):
            return keys
        return ()
    if isinstance(node, Join):
        if node.predicate is not None:
            conjuncts.extend(split_conjuncts(node.predicate))
        names = {f.name for f in fragment.schema}
        for conjunct in conjuncts:
            pair = is_equijoin_conjunct(conjunct)
            if pair is not None and pair[0] in names:
                return (pair[0],)
    return ()


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
