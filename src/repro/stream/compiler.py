"""Compile logical plans into stream-operator pipelines.

The compiler walks a logical plan bottom-up, instantiating the physical
operator for each node and wiring downstream links. Scan leaves become
*ports*: named entry points the engine connects to source feeds. A scan
builds no rows, so source rows keep their catalog schema through every
operator that forwards them; a plan whose results are such rows gets
its label once, on the way out (:func:`result_sink`). It is the one
lowering of the plan algebra: a bounded query (a table-only SELECT, a
recursive CTE's step, whose CteRef leaves are ports too) compiles here
and runs as a stream that ends (:mod:`repro.stream.batch`).

Operator fusion: maximal runs of adjacent Select/Project nodes —
Filter/Project, Filter/Filter, Project/Project, and longer mixed chains
— lower to a single :class:`~repro.stream.operators.FusedOp` whose
generated closure runs the whole chain per element (see
:func:`~repro.sql.compiled.compile_fused`). A run that ends at a Join —
a single node included — lowers into the
:class:`~repro.stream.operators.SymmetricHashJoin` instead, as its
output stages: the join emits the run's rows, one Row per result, and
no operator sits above it. A run directly below a Distinct over
anything else lowers into the
:class:`~repro.stream.operators.DistinctOp` as its input stages: the
DISTINCT tests each survivor's values before it builds a row, so a
duplicate builds none, and no operator sits below it. A run whose fused
code cannot be generated keeps one physical operator per logical node.

Windows and join keys are not inferred here: the plan node carries
them (``Join.windows`` / ``equi`` / ``residual``,
``Aggregate.closing_window``; see :func:`repro.plan.logical.side_window`),
and the compiler passes them to the operators as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.data.schema import Schema
from repro.data.streams import StreamConsumer, StreamElement, push_all
from repro.errors import PlanError
from repro.plan.exchange import ExchangeSource, MergeAggregate, PartialAggregate
from repro.plan.logical import (
    Aggregate,
    CteRef,
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
)
from repro.sql.compiled import compile_counts
from repro.stream.multiplex import SharedFeed
from repro.stream.operators import (
    AggregateOp,
    DistinctOp,
    FilterOp,
    FusedOp,
    LimitOp,
    MergeAggregateOp,
    Operator,
    OrderByOp,
    OutputOp,
    PartialAggregateOp,
    ProjectOp,
    SymmetricHashJoin,
)


@dataclass
class ScanPort:
    """A compiled source leaf: where the engine feeds source elements.

    ``scan`` is None for :class:`~repro.plan.logical.RemoteSource` leaves
    (streams arriving from another engine) and
    :class:`~repro.plan.logical.CteRef` leaves (a recursive CTE's
    working relation, :mod:`repro.stream.batch`), both fed by name.

    ``consumer`` is the operator above the leaf itself. A scan port
    takes rows under the source's catalog schema, and a CTE port the
    CTE's rows as they are; nothing relabels them: every operator reads
    values by position, against the input schema it was compiled for. A
    remote or exchange port takes rows the engine built under the leaf's
    own schema.
    """

    source_name: str
    binding: str
    consumer: StreamConsumer
    scan: Scan | None = None
    #: True for :class:`~repro.plan.exchange.ExchangeSource` ports.
    #: Exchange feeds are punctuated explicitly by the pool's shuffle
    #: barrier, never by the engine's broadcast punctuate.
    exchange: bool = False


@dataclass
class CompiledPlan:
    """The result of compiling one logical plan.

    Attributes:
        root: The plan that was compiled.
        ports: Scan entry points, in left-to-right plan order.
        operators: Every instantiated operator (for introspection/stats).
        feeds: ``(SharedFeed leaf, the operator above it)`` per cut, for
            the subplan registry to hang on the feeding chain's tee.
    """

    root: LogicalOp
    ports: list[ScanPort] = field(default_factory=list)
    operators: list[Operator] = field(default_factory=list)
    feeds: list[tuple[SharedFeed, StreamConsumer]] = field(default_factory=list)

    def ports_for(self, source_name: str) -> list[ScanPort]:
        """All ports fed by one source (a source may be scanned twice)."""
        return [p for p in self.ports if p.source_name.lower() == source_name.lower()]

    @property
    def stats(self) -> dict[str, int]:
        """Total rows in/out per operator class."""
        out: dict[str, int] = {}
        for op in self.operators:
            name = type(op).__name__
            out[f"{name}.in"] = out.get(f"{name}.in", 0) + op.rows_in
            out[f"{name}.out"] = out.get(f"{name}.out", 0) + op.rows_out
        return out


class _ReschemaConsumer:
    """Rebases incoming rows positionally onto a fixed schema: the exit
    label :func:`result_sink` puts in front of a hand-built plan's sink.

    ``with_schema`` reuses the value tuple untouched, so a relabelled
    element costs one arity check plus two allocations (a ``Row`` and a
    ``StreamElement``); an element already carrying the schema object
    passes through as it is.
    """

    def __init__(self, schema, downstream: StreamConsumer):
        self._schema = schema
        self._downstream = downstream

    def push(self, item) -> None:
        if isinstance(item, StreamElement) and item.row.schema is not self._schema:
            item = StreamElement(
                item.row.with_schema(self._schema), item.timestamp, item.source
            )
        self._downstream.push(item)

    def push_batch(self, elements: list) -> None:
        schema = self._schema
        rebased = [
            StreamElement(
                element.row.with_schema(schema), element.timestamp, element.source
            )
            if element.row.schema is not schema
            else element
            for element in elements
        ]
        push_all(self._downstream, rebased)


def result_sink(plan: LogicalOp, sink: StreamConsumer) -> StreamConsumer:
    """``sink``, labelled when ``plan`` hands it source rows.

    A scan does not build rows: they keep the catalog schema they were
    ingested under, and a CTE reference's keep the CTE's. Project,
    Aggregate, Join and the partial/merge aggregates build rows under
    their own output schema, and the engine builds remote and exchange
    rows under the leaf's; Select, Distinct, OrderBy and Limit forward
    what they receive. So only a plan that reaches a :class:`Scan` or a
    :class:`CteRef` through those four alone delivers rows under another
    schema — a hand-built plan: the SQL front end tops every SELECT with
    a Project — and only its sink gets one :class:`_ReschemaConsumer`
    to ``plan.schema``. The walk stops at Output: the compiler applies this
    to the node below ``OutputOp``, so the display reads the labels the
    sink does.

    A sink that reads nothing of an element but ``row.values``,
    ``timestamp`` and ``source`` says so with a true ``positional``
    class attribute — the pool's stage-1 exchange feeds and a worker's
    frame sink, whose rows are built again under the right schema where
    they land — and takes the rows as they come.
    """
    node = plan
    while isinstance(node, (Select, Distinct, OrderBy, Limit)):
        node = node.child
    if isinstance(node, (Scan, CteRef)) and not getattr(sink, "positional", False):
        return _ReschemaConsumer(plan.schema, sink)
    return sink


def _run_at(node: LogicalOp) -> tuple[list[Select | Project], LogicalOp, list]:
    """The maximal Select/Project run rooted at ``node`` (top first;
    empty when ``node`` is neither), the node below it, and its stages
    in dataflow order."""
    chain: list[Select | Project] = []
    bottom = node
    while isinstance(bottom, (Select, Project)):
        chain.append(bottom)
        bottom = bottom.child
    stages = [
        ("filter", link.predicate)
        if isinstance(link, Select)
        else ("project", [item.expr for item in link.items], link.schema)
        for link in reversed(chain)  # dataflow order: leaf-most first
    ]
    return chain, bottom, stages


class PlanCompiler:
    """Compiles logical plans to operator pipelines."""

    def __init__(self, deliver: Callable[[str, StreamElement], None] | None = None):
        self._deliver = deliver or (lambda display, element: None)
        #: Whole functions generated / fallen back to the interpreter
        #: across every plan this compiler lowered (see
        #: :func:`repro.sql.compiled.compile_counts`).
        self.counts = {"generated": 0, "fallbacks": 0}

    def compile(self, plan: LogicalOp, sink: StreamConsumer) -> CompiledPlan:
        """Compile ``plan`` so results flow into ``sink``."""
        compiled = CompiledPlan(root=plan)
        before = compile_counts()
        self._compile_node(plan, sink, compiled)
        for key, total in compile_counts().items():
            self.counts[key] += total - before[key]
        return compiled

    # ------------------------------------------------------------------
    def _compile_node(
        self, node: LogicalOp, downstream: StreamConsumer, compiled: CompiledPlan
    ) -> StreamConsumer:
        """Returns the consumer that accepts this node's *input* items.

        For Scan leaves the returned consumer is registered as a port and
        also returned (the engine pushes into it). A maximal
        Select/Project run lowers in one place: into the Distinct
        directly above it (:meth:`_compile_distinct`), else from its top
        node (:meth:`_compile_run`), into the join below it when there
        is one.
        """
        if isinstance(node, Scan):
            # Source rows enter as they are (see ScanPort).
            compiled.ports.append(
                ScanPort(node.entry.name, node.binding, downstream, scan=node)
            )
            return downstream
        if isinstance(node, SharedFeed):
            # Fed by another chain's tee: the operator above the cut is
            # itself the tee branch, and reads the rows by position.
            compiled.feeds.append((node, downstream))
            return downstream
        if isinstance(node, ExchangeSource):
            # A shuffled feed from the other shards: push_exchange builds
            # its rows under the stage-2 schema (a join's delivery loop
            # builds them inline).
            compiled.ports.append(
                ScanPort(node.name, node.name, downstream, exchange=True)
            )
            return downstream
        if isinstance(node, RemoteSource):
            # push_remote builds rows under the leaf's schema.
            compiled.ports.append(ScanPort(node.name, node.name, downstream))
            return downstream
        if isinstance(node, CteRef):
            # Fed by name with the CTE's rows as they are, as a scan's.
            compiled.ports.append(ScanPort(node.name, node.binding, downstream))
            return downstream
        if isinstance(node, (Select, Project)):
            return self._compile_run(node, downstream, compiled)
        if isinstance(node, Join):
            return self._lower_join(node, downstream, compiled)
        if isinstance(node, PartialAggregate):
            group_by = list(zip(node.group_by, node.key_names))
            aggregates = [(item.call, item.name) for item in node.aggregates]
            op = PartialAggregateOp(
                group_by,
                aggregates,
                node.schema,
                downstream,
                node.child.schema,
                node.closing_window,
            )
            compiled.operators.append(op)
            return self._compile_node(node.child, op, compiled)
        if isinstance(node, MergeAggregate):
            aggregates = [(item.call, item.name) for item in node.aggregates]
            windowed = node.closing_window is not None
            op = MergeAggregateOp(
                len(node.key_names), aggregates, node.schema, downstream, windowed
            )
            compiled.operators.append(op)
            return self._compile_node(node.child, op, compiled)
        if isinstance(node, Aggregate):
            group_by = [(expr, name) for expr, name in zip(node.group_by, node.key_names)]
            aggregates = [(item.call, item.name) for item in node.aggregates]
            # A closing window gives window-at-a-time emission; otherwise
            # running aggregates are emitted on every punctuation.
            op = AggregateOp(
                group_by,
                aggregates,
                node.schema,
                downstream,
                node.child.schema,
                node.closing_window,
            )
            compiled.operators.append(op)
            return self._compile_node(node.child, op, compiled)
        if isinstance(node, Distinct):
            return self._compile_distinct(node, downstream, compiled)
        if isinstance(node, OrderBy):
            op = OrderByOp(node.items, downstream, node.child.schema)
            compiled.operators.append(op)
            return self._compile_node(node.child, op, compiled)
        if isinstance(node, Limit):
            op = LimitOp(node.count, downstream)
            compiled.operators.append(op)
            return self._compile_node(node.child, op, compiled)
        if isinstance(node, Output):
            op = OutputOp(node.display, self._deliver, downstream, node.every)
            compiled.operators.append(op)
            return self._compile_node(node.child, result_sink(node.child, op), compiled)
        raise PlanError(f"stream compiler cannot handle {type(node).__name__}")

    def _compile_distinct(
        self, node: Distinct, downstream: StreamConsumer, compiled: CompiledPlan
    ) -> StreamConsumer:
        """Lower a DISTINCT with the Select/Project run directly below it
        as its input stages (producing the run's schema), one operator
        for both. That is the run's one rung decision: when the stages'
        fused code cannot be generated (a counted fallback), the
        DISTINCT is built without stages and the run lowers below it
        (:meth:`_compile_run`), as does a run ending at a :class:`Join`,
        which lowers into the join instead.
        """
        chain, bottom, stages = _run_at(node.child)
        if chain and not isinstance(bottom, Join):
            op = DistinctOp(downstream, bottom.schema, stages, node.schema)
            if op.generated:
                compiled.operators.append(op)
                return self._compile_node(bottom, op, compiled)
        op = DistinctOp(downstream, node.child.schema)
        compiled.operators.append(op)
        return self._compile_node(node.child, op, compiled)

    def _compile_run(
        self, node: Select | Project, downstream: StreamConsumer, compiled: CompiledPlan
    ) -> StreamConsumer:
        """Lower the maximal Select/Project run rooted at ``node`` — one
        no DISTINCT took (:meth:`_compile_distinct`).

        The run's stages are built once, here, and its rung is chosen
        once: a run ending at a :class:`Join` — a single node included —
        becomes the join's output stages (:meth:`_lower_join`), and a
        run of two or more over anything else one :class:`FusedOp`. When
        the run's fused code cannot be generated (a counted fallback),
        or it is a single node over a non-join (a dedicated operator is
        at least as fast and keeps per-node stats readable), each node
        lowers to its own FilterOp / ProjectOp.
        """
        chain, bottom, stages = _run_at(node)
        if isinstance(bottom, Join):
            join = self._lower_join(bottom, downstream, compiled, stages, node.schema)
            if join is not None:
                return join
        elif len(chain) > 1:
            op = FusedOp(stages, node.schema, downstream, bottom.schema)
            if op.generated:
                compiled.operators.append(op)
                return self._compile_node(bottom, op, compiled)
        for link in chain:
            if isinstance(link, Select):
                op = FilterOp(link.predicate, downstream, link.child.schema)
            else:
                items = [(item.expr, item.name) for item in link.items]
                op = ProjectOp(items, link.schema, downstream, link.child.schema)
            compiled.operators.append(op)
            downstream = op
        return self._compile_node(bottom, downstream, compiled)

    def _lower_join(
        self,
        node: Join,
        downstream: StreamConsumer,
        compiled: CompiledPlan,
        stages: Sequence = (),
        output_schema: Schema | None = None,
    ) -> StreamConsumer | None:
        """Lower a join, with the Select/Project run above it as its
        output ``stages`` (producing ``output_schema``) when there is one.

        The node's equi-keys become the buckets' keys, its residual the
        predicate. Returns None — and compiles nothing — when the
        stages' fused code cannot be generated: the caller then lowers
        the run above a join without stages.
        """
        join = SymmetricHashJoin(
            node.left.schema,
            node.right.schema,
            *node.windows,
            node.residual,
            node.equi,
            downstream,
            stages,
            output_schema,
        )
        if not join.generated:
            return None
        if isinstance(node.left, ExchangeSource) and isinstance(node.right, ExchangeSource):
            join.take_deliveries()
        compiled.operators.append(join)
        self._compile_node(node.left, join.left_port, compiled)
        self._compile_node(node.right, join.right_port, compiled)
        return join  # not used as an input port
