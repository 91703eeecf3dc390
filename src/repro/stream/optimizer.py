"""Stream-engine optimizer: cardinality estimation, join ordering and a
latency cost model.

Paper §3: "the stream optimizer attempts to minimize latency to
answers". Latency here is the expected time from an input element
arriving to the results it implies being emitted: every operator an
element traverses adds per-row CPU time proportional to the work it
performs (probing join state, updating aggregates), so plans that keep
intermediate cardinalities small are faster.

The optimizer reorders joins with dynamic programming over the join
graph (classic Selinger enumeration, bushy plans excluded) and prices
the result with :class:`StreamCostModel`. The federated optimizer calls
:meth:`StreamEngineOptimizer.optimize` on each fragment it considers
placing on the stream engine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from repro.catalog import Catalog, SourceKind
from repro.data.windows import WindowKind, WindowSpec
from repro.errors import OptimizerError
from repro.plan.logical import (
    Aggregate,
    Distinct,
    Join,
    Limit,
    LogicalOp,
    OrderBy,
    Output,
    Project,
    RemoteSource,
    Scan,
    Select,
    replace_child,
    scan_window,
)
from repro.sql.expressions import (
    BinaryOp,
    ColumnRef,
    Expr,
    Literal,
    conjoin,
    is_equijoin_conjunct,
    split_conjuncts,
)

#: Seconds of CPU per row processed by one operator (calibration knob).
CPU_SECONDS_PER_ROW = 2e-6
#: Fixed per-operator pipeline latency (scheduling, queueing).
OPERATOR_OVERHEAD_SECONDS = 1e-4


@dataclass(frozen=True)
class StreamCost:
    """Cost of a stream-engine plan in the stream optimizer's own units.

    Attributes:
        latency: Expected seconds from input arrival to output emission.
        rows_per_second: Total operator-input pressure (work rate).
        state_rows: Estimated rows held in operator state.
    """

    latency: float
    rows_per_second: float
    state_rows: float

    def combined(self) -> float:
        """Scalar used for plan comparison within the stream engine:
        latency is primary, work rate breaks ties."""
        return self.latency + self.rows_per_second * 1e-9

    def __lt__(self, other: "StreamCost") -> bool:
        return self.combined() < other.combined()


def window_live_rows(window: WindowSpec, rate: float) -> float:
    """Rows a feed arriving at ``rate`` rows/s keeps live under ``window``."""
    if window.kind is WindowKind.UNBOUNDED:
        # Unbounded stream history: treat one hour as the planning horizon.
        return max(rate * 3600.0, 1.0)
    if window.kind is WindowKind.ROWS:
        return max(float(window.size), 1.0)
    if window.kind is WindowKind.NOW:
        return max(rate * 1.0, 1.0)
    return max(rate * window.size, 1.0)


@dataclass
class _RelationInfo:
    """Estimation state for one base relation in the join graph."""

    plan: LogicalOp
    binding: str
    live_rows: float        # rows in the live window (or table cardinality)
    arrival_rate: float     # new rows per second
    entry_name: str


class StreamCostModel:
    """Cardinality and latency estimation for stream plans."""

    def __init__(self, catalog: Catalog):
        self._catalog = catalog

    # ------------------------------------------------------------------
    # Cardinality
    # ------------------------------------------------------------------
    def scan_live_rows(self, scan: Scan) -> float:
        """Rows of a scan live at any instant (window contents / table size)."""
        stats = scan.entry.statistics
        if scan.entry.kind is SourceKind.TABLE:
            return max(float(stats.cardinality), 1.0)
        return window_live_rows(scan_window(scan), stats.rate)

    def scan_rate(self, scan: Scan) -> float:
        """Arrival rate of a scan (0 for stored tables)."""
        if scan.entry.kind is SourceKind.TABLE:
            return 0.0
        return scan.entry.statistics.rate

    def predicate_selectivity(self, predicate: Expr | None, ndv_lookup) -> float:
        """Estimated fraction of rows passing ``predicate``."""
        if predicate is None:
            return 1.0
        selectivity = 1.0
        for conjunct in split_conjuncts(predicate):
            selectivity *= self._conjunct_selectivity(conjunct, ndv_lookup)
        return max(selectivity, 1e-6)

    def _conjunct_selectivity(self, conjunct: Expr, ndv_lookup) -> float:
        if isinstance(conjunct, BinaryOp):
            if conjunct.op == "=":
                pair = is_equijoin_conjunct(conjunct)
                if pair is not None:
                    left_ndv = ndv_lookup(pair[0])
                    right_ndv = ndv_lookup(pair[1])
                    return 1.0 / max(left_ndv, right_ndv, 1)
                if isinstance(conjunct.left, ColumnRef) and isinstance(conjunct.right, Literal):
                    return 1.0 / max(ndv_lookup(conjunct.left.name), 1)
                if isinstance(conjunct.right, ColumnRef) and isinstance(conjunct.left, Literal):
                    return 1.0 / max(ndv_lookup(conjunct.right.name), 1)
                return 0.1
            if conjunct.op in ("<", "<=", ">", ">="):
                return 1.0 / 3.0
            if conjunct.op in ("!=", "<>"):
                return 0.9
            if conjunct.op in ("LIKE",):
                return 0.25
            if conjunct.op == "OR":
                left = self._conjunct_selectivity(conjunct.left, ndv_lookup)
                right = self._conjunct_selectivity(conjunct.right, ndv_lookup)
                return min(left + right, 1.0)
        return 0.33

    def ndv(self, column: str) -> int:
        """NDV for a column, resolved via the catalog.

        Without binding context the first source exposing the bare name
        wins; prefer :meth:`ndv_resolver` when a plan is available.
        """
        bare = column.rsplit(".", 1)[-1]
        for name in self._catalog.source_names():
            entry = self._catalog.source(name)
            if entry.schema.has(bare):
                return entry.statistics.ndv(bare)
        return 10

    def ndv_resolver(self, plan: LogicalOp):
        """An NDV lookup that resolves ``binding.column`` through the
        plan's own scans before falling back to the catalog sweep."""
        from repro.plan.logical import Scan

        bindings = {
            node.binding: node.entry for node in plan.walk() if isinstance(node, Scan)
        }

        def lookup(column: str) -> int:
            if "." in column:
                qualifier, bare = column.rsplit(".", 1)
                entry = bindings.get(qualifier)
                if entry is not None:
                    return entry.statistics.ndv(bare)
            return self.ndv(column)

        return lookup


class StreamEngineOptimizer:
    """Join reordering + costing for stream-engine fragments."""

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        self._model = StreamCostModel(catalog)
        self._ndv = self._model.ndv  # replaced per-plan by cost()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def optimize(self, plan: LogicalOp) -> tuple[LogicalOp, StreamCost]:
        """Reorder joins in ``plan`` and return (best plan, its cost)."""
        optimized = self._reorder(plan)
        return optimized, self.cost(optimized)

    def can_execute(self, plan: LogicalOp) -> bool:
        """The stream engine executes every logical operator except raw
        in-network constructs; Scans of sensor sources are acceptable
        only as *basestation* feeds (data pulled out of the network)."""
        return True

    def cost(self, plan: LogicalOp) -> StreamCost:
        """Latency cost of ``plan`` as-is (no reordering)."""
        self._ndv = self._model.ndv_resolver(plan)
        latency, work_rate, state, _rows, _rate = self._cost_node(plan)
        return StreamCost(latency=latency, rows_per_second=work_rate, state_rows=state)

    # ------------------------------------------------------------------
    # Costing
    # ------------------------------------------------------------------
    def _cost_node(self, node: LogicalOp) -> tuple[float, float, float, float, float]:
        """Returns (latency, work_rate, state_rows, live_rows, arrival_rate)."""
        model = self._model
        if isinstance(node, Scan):
            return (0.0, 0.0, 0.0, model.scan_live_rows(node), model.scan_rate(node))
        if isinstance(node, RemoteSource):
            live = window_live_rows(node.window, node.rate)
            return (0.0, 0.0, 0.0, live, node.rate)
        if isinstance(node, (Select,)):
            lat, work, state, rows, rate = self._cost_node(node.child)
            sel = model.predicate_selectivity(node.predicate, self._ndv)
            lat += OPERATOR_OVERHEAD_SECONDS + CPU_SECONDS_PER_ROW
            work += rate
            return (lat, work, state, max(rows * sel, 0.01), rate * sel)
        if isinstance(node, Project):
            lat, work, state, rows, rate = self._cost_node(node.child)
            lat += OPERATOR_OVERHEAD_SECONDS + CPU_SECONDS_PER_ROW
            work += rate
            return (lat, work, state, rows, rate)
        if isinstance(node, Join):
            return self._cost_join(node)
        if isinstance(node, Aggregate):
            lat, work, state, rows, rate = self._cost_node(node.child)
            groups = 1.0
            for expr in node.group_by:
                if isinstance(expr, ColumnRef):
                    groups *= self._ndv(expr.name)
                else:
                    groups *= 10
            groups = min(groups, max(rows, 1.0))
            lat += OPERATOR_OVERHEAD_SECONDS + CPU_SECONDS_PER_ROW
            work += rate
            out_rate = rate and min(rate, groups)  # reports per punctuation
            return (lat, work, state + rows, groups, out_rate)
        if isinstance(node, (Distinct, OrderBy, Limit, Output)):
            lat, work, state, rows, rate = self._cost_node(node.children[0])
            lat += OPERATOR_OVERHEAD_SECONDS + CPU_SECONDS_PER_ROW
            work += rate
            if isinstance(node, Limit):
                rows = min(rows, float(node.count))
            return (lat, work, state, rows, rate)
        raise OptimizerError(f"stream cost model cannot price {type(node).__name__}")

    def _cost_join(self, node: Join) -> tuple[float, float, float, float, float]:
        model = self._model
        l_lat, l_work, l_state, l_rows, l_rate = self._cost_node(node.left)
        r_lat, r_work, r_state, r_rows, r_rate = self._cost_node(node.right)
        sel = model.predicate_selectivity(node.predicate, self._ndv)
        # Each arrival probes the opposite window: CPU ∝ matched rows.
        probe_work = l_rate * max(r_rows * sel, 0.01) + r_rate * max(l_rows * sel, 0.01)
        out_rows = max(l_rows * r_rows * sel, 0.01)
        out_rate = l_rate * r_rows * sel + r_rate * l_rows * sel
        latency = (
            max(l_lat, r_lat)
            + OPERATOR_OVERHEAD_SECONDS
            + CPU_SECONDS_PER_ROW * (1.0 + probe_work / max(l_rate + r_rate, 1e-9))
        )
        work = l_work + r_work + probe_work
        state = l_state + r_state + l_rows + r_rows
        return (latency, work, state, out_rows, out_rate)

    # ------------------------------------------------------------------
    # Join reordering
    # ------------------------------------------------------------------
    def _reorder(self, node: LogicalOp) -> LogicalOp:
        """Recursively reorder maximal join trees bottom-up."""
        if isinstance(node, Join):
            relations, conjuncts = self._collect_join_tree(node)
            if len(relations) > 1:
                return self._enumerate(relations, conjuncts)
        if not node.children:
            return node
        rebuilt = node
        for child in node.children:
            new_child = self._reorder(child)
            if new_child is not child:
                rebuilt = replace_child(rebuilt, child, new_child)
        return rebuilt

    def _collect_join_tree(self, node: LogicalOp) -> tuple[list[LogicalOp], list[Expr]]:
        """Flatten a tree of Joins into leaf plans + all join conjuncts.

        Non-join operators (Select over a leaf, Project from a view,
        Scan) terminate the flattening and become enumeration units.
        """
        if isinstance(node, Join):
            left_rels, left_conj = self._collect_join_tree(node.left)
            right_rels, right_conj = self._collect_join_tree(node.right)
            conjuncts = left_conj + right_conj + split_conjuncts(node.predicate)
            return left_rels + right_rels, conjuncts
        return [self._reorder(node)], []

    def _enumerate(self, relations: list[LogicalOp], conjuncts: list[Expr]) -> LogicalOp:
        """Selinger-style DP over left-deep join orders.

        For ≤2 relations or >9 relations falls back to the given order
        (the canonical plan is already predicate-pushed).
        """
        n = len(relations)
        if n > 9:
            return self._assemble(relations, conjuncts)

        rel_bindings = [frozenset(rel.relations()) for rel in relations]

        # best[subset] = (cost_tuple, plan, bindings)
        best: dict[frozenset[int], tuple[StreamCost, LogicalOp]] = {}
        for index, rel in enumerate(relations):
            single = frozenset([index])
            best[single] = (self.cost(rel), rel)

        for size in range(2, n + 1):
            for subset in itertools.combinations(range(n), size):
                subset_key = frozenset(subset)
                subset_bindings = frozenset().union(*(rel_bindings[i] for i in subset))
                candidates = []
                for last in subset:
                    rest = subset_key - {last}
                    if rest not in best:
                        continue
                    _, rest_plan = best[rest]
                    rest_bindings = frozenset().union(*(rel_bindings[i] for i in rest))
                    applicable = [
                        c
                        for c in conjuncts
                        if c.relations()
                        and c.relations() <= (rest_bindings | rel_bindings[last])
                        and not (c.relations() <= rest_bindings)
                        and not (c.relations() <= rel_bindings[last])
                    ]
                    # Avoid cross products when any join predicate exists
                    # elsewhere for this subset (heuristic pruning).
                    joined = Join(rest_plan, relations[last], conjoin(applicable))
                    candidates.append((self.cost(joined), joined, bool(applicable)))
                if not candidates:
                    continue
                with_pred = [c for c in candidates if c[2]]
                pool = with_pred or candidates
                pool.sort(key=lambda c: c[0].combined())
                best[subset_key] = (pool[0][0], pool[0][1])

        full = frozenset(range(n))
        if full not in best:
            return self._assemble(relations, conjuncts)
        plan = best[full][1]
        return self._attach_unplaced(plan, conjuncts)

    def _assemble(self, relations: list[LogicalOp], conjuncts: list[Expr]) -> LogicalOp:
        """Left-deep join in the given order with conjuncts attached as
        soon as their relations are available."""
        plan = relations[0]
        available = set(plan.relations())
        placed: set[int] = set()
        for rel in relations[1:]:
            available |= rel.relations()
            here = [
                i
                for i, c in enumerate(conjuncts)
                if i not in placed and c.relations() and c.relations() <= available
            ]
            placed |= set(here)
            plan = Join(plan, rel, conjoin([conjuncts[i] for i in here]))
        return plan

    def _attach_unplaced(self, plan: LogicalOp, conjuncts: list[Expr]) -> LogicalOp:
        """Safety net: any conjunct not attached during DP goes on top."""
        attached: list[str] = []
        for node in plan.walk():
            if isinstance(node, Join) and node.predicate is not None:
                attached.extend(c.render() for c in split_conjuncts(node.predicate))
            if isinstance(node, Select):
                attached.extend(c.render() for c in split_conjuncts(node.predicate))
        missing = [c for c in conjuncts if c.render() not in attached]
        # Deduplicate by rendered text (the same conjunct may repeat).
        unique: dict[str, Expr] = {}
        for c in missing:
            unique.setdefault(c.render(), c)
        if unique:
            plan = Select(plan, conjoin(list(unique.values())))  # type: ignore[arg-type]
        return plan
