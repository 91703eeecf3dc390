"""Physical operators of the PC-side stream engine.

The engine is a push dataflow over runs of rows and their stamps, and
single :class:`~repro.data.streams.StreamElement` items. Every operator
is a :class:`~repro.data.streams.StreamConsumer` that transforms rows and
pushes results to its downstream consumer. Punctuations (watermarks)
flow through every operator and drive state eviction, window emission
and batch boundaries for ORDER BY / LIMIT.

The push protocol (stated once, on
:class:`~repro.data.streams.StreamConsumer`): ``push(item)`` carries one
element or one punctuation, ``push_batch(rows, stamps, source)`` a
punctuation-free run of rows and their stamps, for which no element is
built. Each operator therefore has exactly two data bodies —
the per-element ``on_element`` and one batch body over a pure run —
plus ``on_punctuation``; an exchanged join's batch body also takes a
whole shuffle delivery, both sides' runs in one call
(:meth:`SymmetricHashJoin.push_runs`). Where codegen provides a loop
(:class:`FilterOp`, :class:`ProjectOp`, :class:`FusedOp`,
:class:`DistinctOp`, the running :class:`AggregateOp` fold) the batch
body is that loop, called
directly, so a 1000-row ingest costs one Python call per operator
instead of 1000; a windowed aggregate extends its pending segment and
folds it with one call at the next punctuation; operators without a
batch body of their own loop
``on_element`` over the run. Every body is written once, against the
value-tuple callables of :mod:`repro.sql.compiled`: whether one of them
is generated code or the interpreter is decided there, and no operator
can tell. Both entry points stay because each wins
the ledger workload the caller's verb selects (a row at a time through
``push``, a bulk batch through ``push_batch``; measurements in
ROADMAP.md, Open items). Downstream consumers that don't implement
``push_batch`` (it is optional) receive per-element pushes.

Schemas: every operator binds the input schema it was compiled for and
reads ``row.values`` by position, never the row's own schema.
Rows keep the schema they were built with: Filter, Distinct, OrderBy,
Limit and Output forward the rows they receive (source rows keep
their catalog schema), while Project, Fused chains that project,
Aggregate, the join and the partial/merge aggregates build their output
rows under their own output schema — the join's being that of the
Select/Project run lowered into it, when there is one, as a Distinct's
is that of the run lowered into it, when the run projects.

State bounds: window joins evict expired rows on punctuation, so memory
is proportional to window size times input rate — the property the paper
relies on for long-running monitoring queries. A windowed aggregate —
the stage-1 :class:`PartialAggregateOp` included — keeps no rows past
the punctuation that follows them: it holds group state per open
window, so memory is proportional to groups times open windows.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Any, Callable, Sequence

from repro.data.schema import Schema
from repro.data.streams import (
    Punctuation,
    Segment,
    StreamConsumer,
    StreamElement,
    StreamItem,
    park,
    push_all,
)
from repro.data.tuples import Row
from repro.data.windows import WindowKind, WindowSpec
from repro.errors import ExecutionError
from repro.sql.ast import OrderItem
from repro.sql.compiled import (
    Chain,
    FusedStage,
    compile_accumulate,
    compile_distinct_batch,
    compile_expr,
    compile_fused,
    compile_fused_batch,
    compile_join_probe,
    compile_partial,
    compile_projection,
    merge_partials,
)
from repro.sql.expressions import _PartialItem, Accumulator, AggregateCall, Expr


#: The watermark of a stream's end: no element follows it. A bounded
#: input (:mod:`repro.stream.batch`) is a stream punctuated to it.
END = float("inf")


def _copy_group_state(state: list) -> list:
    """Copy one ``compile_accumulate`` / ``compile_partial`` group-state
    list.

    Generated slots are ints, floats, None, extremes, seen-sets (for
    DISTINCT calls) or ``(ts, value)`` pair lists (partial SUM/AVG and
    DISTINCT), the interpreter's are accumulators or partial items —
    only the sets, lists and interpreter objects are mutable, so a
    shallow copy duplicating those detaches the state from the live
    operator.
    """
    return [
        slot.copy() if isinstance(slot, (set, list, Accumulator, _PartialItem)) else slot
        for slot in state
    ]


def _positional_key(schema: Schema, names: list[str]) -> Callable[[tuple], Any]:
    """A values-tuple -> hash-key function with names resolved once.

    Single-column keys hash the bare value (both join sides use the same
    convention within one operator, so grouping is unaffected).
    """
    indexes = [schema.index_of(name) for name in names]
    if not indexes:
        return lambda values: ()
    return itemgetter(*indexes)


def _in_time_order(entries) -> bool:
    """Whether a join bucket's ``(stamp, values)`` entries are in time order."""
    stamps = [entry[0] for entry in entries]
    return all(a <= b for a, b in zip(stamps, stamps[1:]))


def _unsorted_keys(buffer: dict) -> set:
    """The keys of a join buffer's buckets that are out of time order."""
    return {key for key, bucket in buffer.items() if not _in_time_order(bucket)}


class Operator:
    """Base class: a consumer with one downstream and simple counters."""

    def __init__(self, downstream: StreamConsumer):
        self.downstream = downstream
        # Batched forwarding is duck-typed: resolved once at wiring time,
        # None when the downstream only speaks per-item push.
        self._down_batch: Callable[[list, list, str], None] | None = getattr(
            downstream, "push_batch", None
        )
        self.rows_in = 0
        self.rows_out = 0

    def push(self, item: StreamItem) -> None:
        if isinstance(item, Punctuation):
            self.on_punctuation(item)
        else:
            self.rows_in += 1
            self.on_element(item)

    def push_batch(self, rows: list[Row], stamps: list[float], source: str) -> None:
        """Receive a punctuation-free run in arrival order.

        Default: ``on_element`` over the run, one element per row — the
        body of an operator with no batch body of its own, or whose
        generated loop declined (the one body lint rule RA902 lets name
        ``StreamElement``). Vectorized operators override this to
        traverse the run with one call and forward output runs.
        """
        self.rows_in += len(rows)
        on_element = self.on_element
        for row, stamp in zip(rows, stamps):
            on_element(StreamElement(row, stamp, source))

    def on_element(self, element: StreamElement) -> None:
        raise NotImplementedError

    def on_punctuation(self, punctuation: Punctuation) -> None:
        """Default: forward the watermark unchanged."""
        self.downstream.push(punctuation)

    def emit(self, element: StreamElement) -> None:
        """Forward one output element: a hand-off, so a raising
        downstream is parked and this operator carries on (the rule on
        :class:`~repro.data.streams.StreamConsumer`)."""
        self.rows_out += 1
        try:
            self.downstream.push(element)
        except Exception as exc:
            park(exc)

    def emit_batch(self, rows: list[Row], stamps: list[float], source: str = "") -> None:
        """Forward an output run, batched when possible (a hand-off, as
        :meth:`emit`)."""
        self.rows_out += len(rows)
        try:
            if self._down_batch is not None:
                self._down_batch(rows, stamps, source)
            else:
                push_all(self.downstream, rows, stamps, source)
        except Exception as exc:
            park(exc)

    # -- checkpointing ----------------------------------------------------
    def state_snapshot(self) -> dict:
        """Detached recovery state (see :mod:`repro.stream.checkpoint`).

        Rows are immutable by convention, so snapshots share them and
        copy only the containers; buffered rows are snapshotted as
        StreamElements, the layout checkpoints have always held.
        Stateless operators carry just their counters.
        """
        return {
            "type": type(self).__name__,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
        }

    def state_restore(self, state: dict) -> None:
        """Load a :meth:`state_snapshot` into a freshly compiled operator.

        The snapshot stays usable afterwards (mutable containers are
        copied in), so one checkpoint can restore several replicas.
        """
        if state.get("type") != type(self).__name__:
            raise ExecutionError(
                f"checkpoint state for {state.get('type')} cannot restore "
                f"a {type(self).__name__} — the recompiled plan diverged"
            )
        self.rows_in = state["rows_in"]
        self.rows_out = state["rows_out"]


class StageOp(Operator):
    """A Select/Project run over one input: ``stages`` in dataflow order
    (:data:`~repro.sql.compiled.FusedStage`), read against
    ``input_schema`` and held as one :class:`~repro.sql.compiled.Chain`,
    lowered once for every function generated over it. A run clears
    them all in one generated loop
    (``compile_fused_batch``: ``_batch_fn``, None when it declined, and
    then ``on_element`` loops). A source port with this operator as its
    only consumer runs the same chain inside the engine's ingest loop
    instead (:meth:`StreamEngine.push_many
    <repro.stream.engine.StreamEngine.push_many>`), which then counts
    ``rows_in`` and calls :meth:`emit_batch` as this body does."""

    def __init__(
        self,
        stages: list[FusedStage],
        output_schema: Schema,
        downstream: StreamConsumer,
        input_schema: Schema,
    ):
        super().__init__(downstream)
        self.stages = list(stages)
        self.output_schema = output_schema
        self.input_schema = input_schema
        self.chain = Chain(stages, input_schema)
        self._batch_fn = compile_fused_batch(self.chain, output_schema)

    def push_batch(self, rows: list[Row], stamps: list[float], source: str) -> None:
        if self._batch_fn is None:
            Operator.push_batch(self, rows, stamps, source)
            return
        out: list[Row] = []
        out_stamps: list[float] = []
        self._batch_fn(rows, stamps, out, out_stamps)
        self.rows_in += len(rows)
        if out:
            self.emit_batch(out, out_stamps, source)


class FilterOp(StageOp):
    """Row filter: forwards elements whose predicate evaluates to TRUE.

    SQL three-valued logic: NULL (unknown) does not pass.
    """

    def __init__(
        self,
        predicate: Expr,
        downstream: StreamConsumer,
        input_schema: Schema,
    ):
        # Schema-bound compilation: the predicate runs as a closure over
        # the row's value tuple, and the generated batch loop is the one
        # a fused chain of one uses.
        super().__init__([("filter", predicate)], input_schema, downstream, input_schema)
        self.predicate = predicate
        self._compiled = compile_expr(predicate, input_schema)

    def on_element(self, element: StreamElement) -> None:
        if self._compiled(element.row.values) is True:
            # emit() inlined: this is the hottest call site.
            self.rows_out += 1
            try:
                self.downstream.push(element)
            except Exception as exc:
                park(exc)


class ProjectOp(StageOp):
    """Compute output columns; one output row per input row."""

    def __init__(
        self,
        items: list[tuple[Expr, str]],
        output_schema: Schema,
        downstream: StreamConsumer,
        input_schema: Schema,
    ):
        if len(items) != len(output_schema):
            raise ExecutionError("project items and output schema disagree")
        # One function computes the whole output tuple (see FilterOp).
        exprs = [expr for expr, _ in items]
        super().__init__([("project", exprs, output_schema)], output_schema, downstream, input_schema)
        self.items = items
        self._compiled = compile_projection(exprs, input_schema)

    def on_element(self, element: StreamElement) -> None:
        row = Row.raw(self.output_schema, self._compiled(element.row.values))
        # emit() inlined: this is the hottest call site.
        self.rows_out += 1
        try:
            self.downstream.push(StreamElement(row, element.timestamp, element.source))
        except Exception as exc:
            park(exc)


class FusedOp(StageOp):
    """A fused Filter/Project chain: one generated closure per element.

    The plan compiler collapses maximal runs of adjacent Select/Project
    nodes into one of these. The whole chain — every predicate and every
    projection list, in dataflow order — runs as a single compiled
    function over the input value tuple
    (:func:`~repro.sql.compiled.compile_fused`), so a row passing an
    N-stage chain costs one Python call and one output Row instead of N
    dispatches and up to N intermediate allocations. Chains without a
    projection stage forward the original row untouched, preserving row
    identity like ``FilterOp``.

    There is no per-stage body: when the chain's closure cannot be
    generated, ``generated`` is False and the plan compiler lowers the
    chain one operator per node instead of using this one.
    """

    def __init__(
        self,
        stages: list[FusedStage],
        output_schema: Schema,
        downstream: StreamConsumer,
        input_schema: Schema,
    ):
        super().__init__(stages, output_schema, downstream, input_schema)
        self._fused = compile_fused(self.chain)
        self.generated = self._fused is not None

    @property
    def fused_stages(self) -> int:
        """How many Filter/Project stages this operator collapsed."""
        return len(self.stages)

    def on_element(self, element: StreamElement) -> None:
        values = self._fused(element.row.values)
        if values is None:
            return
        self.rows_out += 1
        if self.chain.projects:
            element = StreamElement(
                Row.raw(self.output_schema, values), element.timestamp, element.source
            )
        try:
            self.downstream.push(element)
        except Exception as exc:
            park(exc)


class SymmetricHashJoin(Operator):
    """Windowed symmetric (hash) join.

    Each side buffers its live window. An arriving element probes the
    opposite buffer; matches are emitted with the *later* of the two
    timestamps (standard stream-join event time). Equi-join keys, when
    present, index the buffers so probing is O(matches); the residual
    predicate is applied to each candidate pair.

    A row whose equi-key has a NULL component can match nothing (SQL:
    ``NULL = NULL`` is not TRUE), so it is neither probed nor buffered
    and holds no state.

    Output stages: the plan compiler lowers the maximal Select/Project
    run directly above the join into the operator as ``stages``
    (:data:`~repro.sql.compiled.FusedStage`, dataflow order), applied to
    each residual-passing pair's concatenated values — a filter drops
    the pair, a projection rebinds the values — so every surviving pair
    leaves as one ``Row`` under ``output_schema`` and its stamp, and no
    operator sits above the join for the run.
    Without stages a pair leaves as the joined row under the
    concatenated schema. The stages' per-pair function
    (:func:`~repro.sql.compiled.compile_fused`) is generated first; when
    it cannot be, ``generated`` is False, nothing else is compiled, and
    the plan compiler lowers the run above a join without stages
    instead. The stages are one :class:`~repro.sql.compiled.Chain`, and
    the residual then the stages another, which both probe kernels
    splice; without a residual the two are one, so each is lowered
    once.

    Buffers hold each live row as ``(stamp, values)`` in a per-key
    bucket; a snapshot writes them as elements again, each under the
    schema and source its side last received, as checkpoints always
    held them.

    Two data bodies, one meaning. ``_push_side`` is the per-element
    body (``push``, and the only body that handles punctuation). A run
    arriving by a side port's ``push_batch`` goes through one generated
    probe kernel per side (:func:`~repro.sql.compiled.compile_join_probe`:
    positional key, bucket append, the two-sided window test inlined as
    timestamp arithmetic, the residual predicate and the stages inlined)
    and leaves as **one** ``emit_batch`` — the same rows in the same
    order (input order × bucket order) as per-element delivery, because
    one side's run never changes the buffer it probes. A join both of
    whose inputs are exchange feeds also takes a whole shuffle-barrier
    delivery (:meth:`push_runs`): its two sides' runs, interleaved in
    delivery order, through one generated loop holding both sides'
    probes, which leaves as one ``emit_batch`` — what the runs'
    ``push_batch`` calls, one after the other, would emit. Which body a
    run gets follows from what the operator is, never from a setting: a
    side whose own window is ROWS (every arrival also evicts by count)
    and a kernel that failed to generate (a counted fallback) have no
    kernel and loop the per-row body ``_arrive``; a join with such a
    side takes no delivery whole, and its exchange runs arrive by the
    side ports.

    The two schemas always concatenate: the analyzer rejects duplicate
    relation bindings and :class:`~repro.plan.logical.Join` builds the
    same concatenation before the compiler sees the node.

    Punctuation handling: the operator tracks the latest watermark per
    side and forwards ``min(left, right)`` when it advances, evicting
    expired rows from both buffers first. Eviction is a function of the
    watermark alone: afterwards no bucket of a RANGE or NOW side holds a
    row with ``expiry(ts) < watermark``, whatever order rows arrived in.
    A bucket stays in timestamp order while appends land at or after its
    tail and its expired rows are a prefix; an append that lands behind
    the tail marks the bucket, and only marked buckets are rescanned, so
    time-ordered input pays one comparison per row.
    """

    def __init__(
        self,
        left_schema: Schema,
        right_schema: Schema,
        left_window: WindowSpec,
        right_window: WindowSpec,
        predicate: Expr | None,
        equi_keys: list[tuple[str, str]],
        downstream: StreamConsumer,
        stages: Sequence[FusedStage] = (),
        output_schema: Schema | None = None,
    ):
        super().__init__(downstream)
        self.left_schema = left_schema
        self.right_schema = right_schema
        self.left_window = left_window
        self.right_window = right_window
        self.predicate = predicate
        # Keys resolvable on each side, in matched order.
        self.left_keys = [lk for lk, _ in equi_keys]
        self.right_keys = [rk for _, rk in equi_keys]
        self._single_key = len(equi_keys) == 1
        self._joined_schema = left_schema.concat(right_schema)
        self.stages = list(stages)
        self.output_schema = output_schema if self.stages else self._joined_schema
        # The stages' per-pair function comes first: a run it cannot
        # generate is not lowered here, and nothing below is compiled.
        self.chain = Chain(stages, self._joined_schema)
        self._tail = compile_fused(self.chain) if self.stages else None
        self.generated = not self.stages or self._tail is not None
        # Schema-bound compilation: key columns resolve to positions once
        # and the residual predicate (None: the join has none) runs over
        # the joined value tuple.
        self._left_key_fn = _positional_key(left_schema, self.left_keys)
        self._right_key_fn = _positional_key(right_schema, self.right_keys)
        self._compiled_predicate = (
            compile_expr(predicate, self._joined_schema)
            if predicate is not None and self.generated
            else None
        )
        # The generated batch bodies, one per side (None: that side's
        # runs loop the per-element body), over one chain: the residual
        # as a filter, then the stages.
        probed = self.chain
        if predicate is not None:
            probed = Chain((("filter", predicate), *self.stages), self._joined_schema)
        self._probed = probed
        self._left_probe, self._right_probe = (
            self._compile_probe(left) if self.generated else None for left in (True, False)
        )
        # The two-sided delivery loop (None: exchange runs arrive by the
        # side ports), generated by take_deliveries.
        self._deliver = None
        self._left_buffer: dict[tuple, deque[tuple]] = {}
        self._right_buffer: dict[tuple, deque[tuple]] = {}
        # (schema, source) of each side's latest arrival: what a
        # snapshot labels that side's buffered rows with.
        self._left_origin: tuple[Schema, str] = (left_schema, "")
        self._right_origin: tuple[Schema, str] = (right_schema, "")
        # Keys of the buckets an append landed behind the tail of, on a
        # side that evicts by time (None on a ROWS / UNBOUNDED side).
        self._left_unsorted: set | None = set() if left_window.evicts_by_time else None
        self._right_unsorted: set | None = set() if right_window.evicts_by_time else None
        self._left_fifo: deque[tuple[tuple, tuple]] = deque()
        self._right_fifo: deque[tuple[tuple, tuple]] = deque()
        self._left_watermark = float("-inf")
        self._right_watermark = float("-inf")
        self._sent_watermark = float("-inf")

    def _compile_probe(self, left: bool | None) -> Callable | None:
        return compile_join_probe(
            self.left_schema,
            self.right_schema,
            self.left_keys,
            self.right_keys,
            self.left_window,
            self.right_window,
            self._probed,
            left,
            self.output_schema,
        )

    def take_deliveries(self) -> None:
        """Generate the loop a whole exchange delivery enters by
        (:meth:`push_runs`): the plan compiler's call for a join both of
        whose inputs are exchange feeds. Nothing when a side has no
        kernel — its runs then arrive by the side ports."""
        if self._left_probe is not None and self._right_probe is not None:
            self._deliver = self._compile_probe(None)

    # -- plumbing ------------------------------------------------------
    def push_runs(self, runs: list[tuple[bool, list, list, str]]) -> None:
        """One exchange delivery's runs into this join, in delivery
        order, each ``(is_left, values, stamps, source)``: one call of
        the generated delivery loop, whose pairs leave as one
        ``emit_batch`` — the rows and order the runs' ``push_batch``
        calls on the side ports would give, one after the other. A run
        that raises loses its pairs and the rest of its rows and parks
        its exception; the other runs' pairs still leave."""
        for left, _, _, source in runs:
            if left:
                self._left_origin = (self.left_schema, source)
            else:
                self._right_origin = (self.right_schema, source)
        out: list[Row] = []
        out_stamps: list[float] = []
        self.rows_in += self._deliver(
            runs,
            self._left_buffer,
            self._right_buffer,
            out,
            out_stamps,
            self._left_unsorted,
            self._right_unsorted,
        )
        if out:
            self.emit_batch(out, out_stamps)

    def push_left(self, item: StreamItem) -> None:
        """Receive an item on the left input."""
        self._push_side(item, left=True)

    def push_right(self, item: StreamItem) -> None:
        """Receive an item on the right input."""
        self._push_side(item, left=False)

    def push(self, item: StreamItem) -> None:  # pragma: no cover - guarded misuse
        raise ExecutionError("SymmetricHashJoin requires push_left/push_right")

    class _SidePort:
        """Adapter presenting one side of the join as a StreamConsumer."""

        def __init__(self, join: "SymmetricHashJoin", left: bool):
            self._join = join
            self._left = left

        def push(self, item: StreamItem) -> None:
            self._join._push_side(item, left=self._left)

        def push_batch(self, rows: list[Row], stamps: list[float], source: str) -> None:
            join = self._join
            left = self._left
            if not rows:
                return
            if left:
                join._left_origin = (rows[0].schema, source)
            else:
                join._right_origin = (rows[0].schema, source)
            probe = join._left_probe if left else join._right_probe
            out: list[Row] = []
            out_stamps: list[float] = []
            if probe is None:  # ROWS side / the kernel failed to generate
                arrive = join._arrive
                try:
                    for row, stamp in zip(rows, stamps):
                        arrive(row.values, stamp, left, out, out_stamps)
                finally:
                    if out:
                        join.emit_batch(out, out_stamps)
                return
            if left:
                probe(rows, stamps, join._left_buffer, join._right_buffer, out, out_stamps, join._left_unsorted)
            else:
                probe(rows, stamps, join._right_buffer, join._left_buffer, out, out_stamps, join._right_unsorted)
            join.rows_in += len(rows)
            if out:
                join.emit_batch(out, out_stamps)

    @property
    def left_port(self) -> StreamConsumer:
        return SymmetricHashJoin._SidePort(self, True)

    @property
    def right_port(self) -> StreamConsumer:
        return SymmetricHashJoin._SidePort(self, False)

    # -- core ----------------------------------------------------------
    def _push_side(self, item: StreamItem, left: bool) -> None:
        if isinstance(item, Punctuation):
            if left:
                self._left_watermark = max(self._left_watermark, item.watermark)
            else:
                self._right_watermark = max(self._right_watermark, item.watermark)
            merged = min(self._left_watermark, self._right_watermark)
            if merged > self._sent_watermark:
                self._sent_watermark = merged
                self._evict(merged)
                self.downstream.push(Punctuation(merged))
            return
        if left:
            self._left_origin = (item.row.schema, item.source)
        else:
            self._right_origin = (item.row.schema, item.source)
        out: list[Row] = []
        out_stamps: list[float] = []
        self._arrive(item.row.values, item.timestamp, left, out, out_stamps)
        for row, stamp in zip(out, out_stamps):
            self.emit(StreamElement(row, stamp))

    def _arrive(self, values: tuple, stamp: float, left: bool, out: list, out_stamps: list) -> None:
        """One row arriving on a side, by the interpreted per-row body:
        buffered, then probed against the other side; each pair's Row
        goes to ``out`` and its stamp to ``out_stamps``."""
        self.rows_in += 1
        own_buffer = self._left_buffer if left else self._right_buffer
        other_buffer = self._right_buffer if left else self._left_buffer
        other_window = self.right_window if left else self.left_window

        key = (self._left_key_fn if left else self._right_key_fn)(values)
        # A NULL key component matches nothing: no probe, no state.
        if (key is None) if self._single_key else (None in key):
            return
        entry = (stamp, values)
        bucket = own_buffer.get(key)
        if bucket is None:
            bucket = own_buffer[key] = deque()
        else:
            unsorted = self._left_unsorted if left else self._right_unsorted
            if unsorted is not None and stamp < bucket[-1][0]:
                unsorted.add(key)
        bucket.append(entry)

        # ROWS windows bound the buffer by count, not time.
        own_window = self.left_window if left else self.right_window
        if own_window.kind is WindowKind.ROWS:
            fifo = self._left_fifo if left else self._right_fifo
            fifo.append((key, entry))
            while len(fifo) > int(own_window.size):
                old_key, old_entry = fifo.popleft()
                bucket = own_buffer.get(old_key)
                if bucket:
                    try:
                        bucket.remove(old_entry)
                    except ValueError:
                        pass
                    if not bucket:
                        del own_buffer[old_key]

        for other_stamp, other_values in other_buffer.get(key, ()):  # equi-key candidates
            if not other_window.contains(other_stamp, stamp) and not (stamp <= other_stamp):
                continue
            # Symmetric window check: each row must be live relative to the other.
            if other_stamp > stamp and not own_window.contains(stamp, other_stamp):
                continue
            joined = values + other_values if left else other_values + values
            residual = self._compiled_predicate
            if residual is not None and residual(joined) is not True:
                continue
            if self._tail is not None:
                joined = self._tail(joined)
                if joined is None:
                    continue
            out.append(Row.raw(self.output_schema, joined))
            out_stamps.append(max(stamp, other_stamp))

    def _evict(self, watermark: float) -> None:
        """Drop every row with ``expiry(ts) < watermark`` from the sides
        that evict by time: the expired prefix of each bucket, and every
        expired row of a bucket marked out of order, which is then
        unmarked if what is left is in order. ``expiry`` is inlined:
        ``ts + size`` on a RANGE side, ``ts`` on a NOW side."""
        for buffer, window, unsorted in (
            (self._left_buffer, self.left_window, self._left_unsorted),
            (self._right_buffer, self.right_window, self._right_unsorted),
        ):
            if unsorted is None:
                continue
            size = window.size if window.kind is WindowKind.RANGE else 0
            for key in list(unsorted):
                bucket = buffer[key]
                live = [entry for entry in bucket if entry[0] + size >= watermark]
                if len(live) < len(bucket):
                    bucket.clear()
                    bucket.extend(live)
                if _in_time_order(live):
                    unsorted.discard(key)
            empty_keys = []
            for key, bucket in buffer.items():
                while bucket and bucket[0][0] + size < watermark:
                    bucket.popleft()
                if not bucket:
                    empty_keys.append(key)
            for key in empty_keys:
                del buffer[key]

    @property
    def buffered_rows(self) -> int:
        """Current state size (both sides) — used by state-bound tests."""
        return sum(len(d) for d in self._left_buffer.values()) + sum(
            len(d) for d in self._right_buffer.values()
        )

    def state_snapshot(self) -> dict:
        state = super().state_snapshot()
        # One element per buffered entry: a ROWS side's fifo names the
        # same elements its buckets hold.
        made: dict[int, StreamElement] = {}

        def element(entry: tuple, origin: tuple[Schema, str]) -> StreamElement:
            built = made.get(id(entry))
            if built is None:
                built = made[id(entry)] = StreamElement(Row.raw(origin[0], entry[1]), entry[0], origin[1])
            return built

        left, right = self._left_origin, self._right_origin
        state["left_buffer"] = {k: [element(e, left) for e in d] for k, d in self._left_buffer.items()}
        state["right_buffer"] = {k: [element(e, right) for e in d] for k, d in self._right_buffer.items()}
        state["left_fifo"] = [(k, element(e, left)) for k, e in self._left_fifo]
        state["right_fifo"] = [(k, element(e, right)) for k, e in self._right_fifo]
        state["watermarks"] = (
            self._left_watermark,
            self._right_watermark,
            self._sent_watermark,
        )
        return state

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        entries: dict[int, tuple] = {}

        def entry(element: StreamElement) -> tuple:
            made = entries.get(id(element))
            if made is None:
                made = entries[id(element)] = (element.timestamp, element.row.values)
            return made

        for side in ("left", "right"):
            buffer = {k: deque(map(entry, d)) for k, d in state[f"{side}_buffer"].items()}
            fifo = deque((k, entry(e)) for k, e in state[f"{side}_fifo"])
            first = next((d[0] for d in state[f"{side}_buffer"].values() if d), None)
            origin = (first.row.schema, first.source) if first is not None else None
            if side == "left":
                self._left_buffer, self._left_fifo = buffer, fifo
                self._left_origin = origin or self._left_origin
            else:
                self._right_buffer, self._right_fifo = buffer, fifo
                self._right_origin = origin or self._right_origin
        # The out-of-order marks follow from the buckets themselves.
        if self._left_unsorted is not None:
            self._left_unsorted = _unsorted_keys(self._left_buffer)
        if self._right_unsorted is not None:
            self._right_unsorted = _unsorted_keys(self._right_buffer)
        (
            self._left_watermark,
            self._right_watermark,
            self._sent_watermark,
        ) = state["watermarks"]


class AggregateOp(Operator):
    """Grouped, windowed aggregation.

    Two emission modes:

    * **Windowed** (RANGE window): window *k* covers ``(window.start(k),
      k * hop]`` (:meth:`~repro.data.windows.WindowSpec.indexes`; the hop
      is the slide, or the size when unset — tumbling) and is emitted,
      stamped ``k * hop``, by the first punctuation at or past its end.
      State is ``{window index -> {group key -> state}}``, not rows.
      Rows between two punctuations collect in a pending segment
      (``push_batch`` extends it, ``on_element`` appends to it); the
      punctuation folds the segment into every open window of each row
      with one generated call, then pops and emits, in index order,
      every window it closes — O(groups) per window, no scan. Each
      window folds its rows in arrival order, so float SUM/AVG and
      DISTINCT seen-sets equal a scan over the window's rows.
    * **Punctuation-driven** (no window): on every punctuation, emit the
      aggregate over *all* rows seen so far (continuous running totals —
      the semantics SmartCIS uses for "total resources by user"). A
      global one (no GROUP BY) that has folded no row emits nothing
      until the stream ends — a punctuation at :data:`END` — and then
      SQL's row over empty input (COUNT 0, every other call NULL).

    Lateness is a function of the watermark alone. The operator records
    the last window closed — none before the first punctuation, then
    ``closed_through(watermark)`` of every punctuation — and a row is
    late, and folded nowhere, when every window it belongs to ended at
    or before the watermark in force when its segment is folded (the
    punctuation before the one that folds it). Rows ahead of the first
    punctuation are never late. Punctuation is broadcast, so every
    stage-1 replica of an exchanged aggregate drops exactly the rows
    the single engine drops, whichever shard a row reaches.
    """

    #: The fold generator; :class:`PartialAggregateOp` folds into the
    #: partial layout instead.
    _compile = staticmethod(compile_accumulate)

    def __init__(
        self,
        group_by: list[tuple[Expr, str]],
        aggregates: list[tuple[AggregateCall, str]],
        output_schema: Schema,
        downstream: StreamConsumer,
        input_schema: Schema,
        window: WindowSpec | None = None,
    ):
        super().__init__(downstream)
        self.group_by = group_by
        self.aggregates = aggregates
        self.output_schema = output_schema
        self.window = window
        self._windowed = window is not None and window.kind is WindowKind.RANGE
        # The last window closed: none until a punctuation closes one.
        self._closed: int | float = float("-inf")
        self._bind(input_schema)

    def _bind(self, input_schema: Schema) -> None:
        """Schema-bound compilation: the whole fold — window lookup, key
        extraction, NULL skipping, per-group seen-sets for DISTINCT
        calls, state update — is one loop over value tuples, so a
        punctuation's segment or a running-mode ingest batch costs one
        Python call. Groups hold whatever state lists the fold builds
        and ``finalize`` reads."""
        self._fold, self._finalize = self._compile(
            [expr for expr, _ in self.group_by],
            [call for call, _ in self.aggregates],
            input_schema,
            self.window if self._windowed else None,
        )
        # Recorded in snapshots: generated slots and the interpreter's
        # accumulators cannot restore into one another.
        self._generated = hasattr(self._fold, "__compiled_source__")
        self._groups: dict[tuple, list] = {}  # running mode
        self._windows: dict[int, dict[tuple, list]] = {}  # windowed mode
        self._pending = Segment()  # rows since the last punctuation

    def _emit_groups(self, timestamp: float, groups: dict) -> None:
        if not groups:
            return
        schema = self.output_schema
        finalize = self._finalize
        out = [Row(schema, list(key) + finalize(state), validate=False) for key, state in groups.items()]
        # One batched dispatch per report: a window closing over many
        # groups clears the downstream (project/sink) in one call.
        self.emit_batch(out, [timestamp] * len(out))

    def _close_windows(self, watermark: float) -> None:
        """Fold the pending segment under the last watermark, then pop
        and emit, in index order, every window ``watermark`` closes."""
        pending = self._pending
        if pending:
            self._fold(pending.rows, pending.stamps, self._windows, self._closed)
            self._pending = Segment()
        last = self.window.closed_through(watermark)
        if last > self._closed:
            self._closed = last
            windows, hop = self._windows, self.window.hop
            for index in sorted(windows):
                if index > last:
                    break
                self._emit_groups(index * hop, windows.pop(index))

    # -- operator protocol -------------------------------------------------
    def on_element(self, element: StreamElement) -> None:
        if self._windowed:
            pending = self._pending
            if element.source == pending.source:
                # Segment.append inlined: one call per row on the row verb.
                pending.rows.append(element.row)
                pending.stamps.append(element.timestamp)
            else:
                pending.append(element)
        else:
            self._fold((element.row,), (element.timestamp,), self._groups)

    def push_batch(self, rows: list[Row], stamps: list[float], source: str) -> None:
        """Accumulate a whole run with one dispatch.

        Windowed mode extends the pending segment (two C-level
        ``extend``s; the next punctuation folds it); running mode folds
        each row into its group's accumulators within one call.
        """
        if self._windowed:
            self._pending.extend(rows, stamps, source)
        else:
            self._fold(rows, stamps, self._groups)
        self.rows_in += len(rows)

    def on_punctuation(self, punctuation: Punctuation) -> None:
        watermark = punctuation.watermark
        if self._windowed:
            self._close_windows(watermark)
        elif self._groups or self.group_by or watermark != END:
            self._emit_groups(watermark, self._groups)
        else:  # a running global aggregate at the end, no row folded
            values = [call.empty for call, _ in self.aggregates]
            self.emit(StreamElement(Row(self.output_schema, values, validate=False), watermark))
        self.downstream.push(punctuation)

    @staticmethod
    def _copy_groups(groups: dict) -> dict:
        return {key: _copy_group_state(state) for key, state in groups.items()}

    def state_snapshot(self) -> dict:
        """The state of the operator's mode: open windows, the last one
        closed and the pending segment, or the running groups."""
        state = super().state_snapshot()
        state["generated"] = self._generated
        if self._windowed:
            state["windows"] = {
                index: self._copy_groups(groups) for index, groups in self._windows.items()
            }
            state["closed"] = self._closed
            state["pending"] = self._pending.elements()
        else:
            state["groups"] = self._copy_groups(self._groups)
        return state

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        _refuse_row_buffer_layout(state)
        if state["generated"] != self._generated:
            raise ExecutionError(
                "checkpointed aggregate state does not match the recompiled "
                "operator (generated fold vs the interpreter's accumulators)"
            )
        if self._windowed:
            self._windows = {
                index: self._copy_groups(groups)
                for index, groups in state["windows"].items()
            }
            self._closed = state["closed"]
            self._pending = Segment.of(state["pending"])
        else:
            self._groups = self._copy_groups(state["groups"])


def _refuse_row_buffer_layout(state: dict) -> None:
    """Checkpoints written while windowed aggregates buffered rows carry
    ``buffer`` (and, before windows were tracked by index,
    ``next_boundary``); they cannot restore into operators that fold
    rows into per-window group state."""
    if "buffer" in state or "next_boundary" in state:
        raise ExecutionError(
            f"checkpointed {state['type']} state uses the row-buffer window "
            "layout ('buffer' / 'next_boundary'), which this engine does not "
            "restore: windows hold folded group state by index ('windows' / "
            "'closed')"
        )


class PartialAggregateOp(AggregateOp):
    """Stage 1 of a two-phase (exchanged) aggregation.

    Aggregates its shard's slice of the input exactly as
    :class:`AggregateOp` does — one generated fold per segment, the same
    window lookup, key and NULL handling and watermark-defined lateness —
    but into the partial slot layout
    (:func:`~repro.sql.compiled.compile_partial`), which keeps what the
    merge needs to re-fold in global arrival order: ``(ts, value)``
    pairs for SUM/AVG and DISTINCT calls, a count, an extreme. A group
    leaves as ``take``'s tagged payloads (``("c", n)``, ``("m", x)``,
    ``("s", pairs)``, ``("d", pairs)``) under the partial schema (group
    keys + one payload column per call).

    * **Windowed**: rows collect in the pending segment; a punctuation
      folds it into ``{window index -> {group key -> slots}}`` with one
      call, then pops and emits every window it closes, in index order,
      stamped ``k * hop`` — the single engine's timestamps, identical on
      every shard — so the merge is segment-local.
    * **Running**: per punctuation, every group folded into this segment
      emits the *delta* since the previous punctuation (``take`` resets
      it; the merge shard owns the running totals).
    """

    _compile = staticmethod(compile_partial)

    def _bind(self, input_schema: Schema) -> None:
        super()._bind(input_schema)
        # Running mode: the groups folded into since the last punctuation,
        # in first-touch order, bound to their state in `_groups`.
        self._touched: dict[tuple, list] = {}

    def on_element(self, element: StreamElement) -> None:
        if self._windowed:
            AggregateOp.on_element(self, element)
        else:
            self._fold((element.row,), (element.timestamp,), self._groups, self._touched)

    def push_batch(self, rows: list[Row], stamps: list[float], source: str) -> None:
        if self._windowed:
            self._pending.extend(rows, stamps, source)
        else:
            self._fold(rows, stamps, self._groups, self._touched)
        self.rows_in += len(rows)

    def on_punctuation(self, punctuation: Punctuation) -> None:
        if self._windowed:
            self._close_windows(punctuation.watermark)
        else:
            touched, self._touched = self._touched, {}
            self._emit_groups(punctuation.watermark, touched)
        self.downstream.push(punctuation)

    def state_snapshot(self) -> dict:
        state = super().state_snapshot()
        if not self._windowed:
            state["touched"] = list(self._touched)
        return state

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        if not self._windowed:
            self._touched = {key: self._groups[key] for key in state["touched"]}


class MergeAggregateOp(Operator):
    """Stage 2 of a two-phase aggregation: fold shard partials.

    Input rows carry group-key values followed by the tagged payloads a
    stage-1 :class:`PartialAggregateOp` takes from each group
    (:func:`~repro.sql.compiled.compile_partial`); output restores the
    original aggregate schema, folded by
    :func:`~repro.sql.compiled.merge_partials`.

    * **Windowed**: every shard closes window *W* within the same
      punctuation segment (boundaries are absolute slide-grid
      multiples), so merging is segment-local — group contributions by
      (boundary, key), fold, emit at the boundary, clear.
    * **Running**: contributions are per-segment deltas; persistent
      per-key states fold them, and every punctuation re-emits all
      groups — the single-engine running-totals contract, the
      empty-input row of a global aggregate at +∞ included
      (:class:`AggregateOp`).
    """

    def __init__(
        self,
        key_count: int,
        aggregates: list[tuple[AggregateCall, str]],
        output_schema: Schema,
        downstream: StreamConsumer,
        windowed: bool,
    ):
        super().__init__(downstream)
        self._key_count = key_count
        self.aggregates = aggregates
        self.output_schema = output_schema
        self._windowed = windowed
        self._start, self._fold, self._finalize = merge_partials(
            [call for call, _ in aggregates]
        )
        # windowed: boundary -> key -> [payload slice per arriving row]
        self._windows: dict[float, dict[tuple, list]] = {}
        # running: this segment's deltas, and the cumulative groups
        self._pending: dict[tuple, list] = {}
        self._groups: dict[tuple, list] = {}

    def _close_windows(self) -> None:
        if not self._windows:
            return
        schema = self.output_schema
        for boundary in sorted(self._windows):
            out = []
            for key, contributions in self._windows[boundary].items():
                state = self._start()
                self._fold(state, contributions)
                out.append(Row(schema, list(key) + self._finalize(state), validate=False))
            self.emit_batch(out, [boundary] * len(out))
        self._windows = {}

    def _merge_running(self, watermark: float) -> None:
        for key, contributions in self._pending.items():
            state = self._groups.get(key)
            if state is None:
                state = self._groups[key] = self._start()
            self._fold(state, contributions)
        self._pending = {}
        groups = self._groups
        if not groups:
            if self._key_count or watermark != END:
                return
            groups = {(): self._start()}  # a global aggregate at the end, no row folded
        schema = self.output_schema
        finalize = self._finalize
        out = [Row(schema, list(key) + finalize(state), validate=False) for key, state in groups.items()]
        self.emit_batch(out, [watermark] * len(out))

    def on_element(self, element: StreamElement) -> None:
        self._take(element.row.values, element.timestamp)

    def push_batch(self, rows: list[Row], stamps: list[float], source: str) -> None:
        self.rows_in += len(rows)
        take = self._take
        for row, stamp in zip(rows, stamps):
            take(row.values, stamp)

    def _take(self, values: tuple, stamp: float) -> None:
        """File one partial row's payloads under its group key."""
        key = tuple(values[: self._key_count])
        parts = values[self._key_count :]
        if self._windowed:
            bucket = self._windows.setdefault(stamp, {})
            bucket.setdefault(key, []).append(parts)
        else:
            self._pending.setdefault(key, []).append(parts)

    def on_punctuation(self, punctuation: Punctuation) -> None:
        if self._windowed:
            self._close_windows()
        else:
            self._merge_running(punctuation.watermark)
        self.downstream.push(punctuation)

    def state_snapshot(self) -> dict:
        state = super().state_snapshot()
        # Payload tuples are handed off by stage 1's take and never
        # mutated afterwards, so contribution lists copy shallowly.
        state["windows"] = {
            boundary: {key: list(c) for key, c in groups.items()}
            for boundary, groups in self._windows.items()
        }
        state["pending"] = {key: list(c) for key, c in self._pending.items()}
        state["groups"] = {
            key: [a.copy() for a in accumulators]
            for key, accumulators in self._groups.items()
        }
        return state

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        self._windows = {
            boundary: {key: list(c) for key, c in groups.items()}
            for boundary, groups in state["windows"].items()
        }
        self._pending = {key: list(c) for key, c in state["pending"].items()}
        self._groups = {
            key: [a.copy() for a in accumulators]
            for key, accumulators in state["groups"].items()
        }


class DistinctOp(Operator):
    """Forward only the first occurrence of each distinct row.

    State is the set of seen value tuples; for windowed queries put the
    window upstream (the join/aggregate) so distinct state stays
    proportional to the distinct-value count, which is small for
    SmartCIS queries (rooms, desks, machine names).

    Input stages: the plan compiler lowers the maximal Select/Project
    run directly below the DISTINCT into the operator as ``stages``
    (:data:`~repro.sql.compiled.FusedStage`, dataflow order, read
    against ``input_schema``, one :class:`~repro.sql.compiled.Chain`
    both generated functions splice), as the join takes the run above
    it. A run clears the stages and the dedup in one
    generated loop (:func:`~repro.sql.compiled.compile_distinct_batch`:
    ``_batch_fn``, None when it declined, and then ``on_element``
    loops), which tests each survivor's value tuple against the seen
    set and builds an output Row, under ``output_schema``, for a first
    occurrence only; a run that does not project forwards the Row
    itself. So a duplicate allocates
    nothing, and no operator sits below the DISTINCT for the run. The
    stages' per-element function (:func:`~repro.sql.compiled
    .compile_fused`) is generated first; when it cannot be,
    ``generated`` is False, nothing else is compiled, and the plan
    compiler lowers the run below a DISTINCT without stages instead.

    A run that raises part way forwards the first occurrences found
    before the raising element, as the per-element body does: the seen
    set never holds a row that was not forwarded.
    """

    def __init__(
        self,
        downstream: StreamConsumer,
        input_schema: Schema | None = None,
        stages: Sequence[FusedStage] = (),
        output_schema: Schema | None = None,
    ):
        super().__init__(downstream)
        self.input_schema = input_schema
        self.stages = list(stages)
        self.output_schema = output_schema
        self._seen: set[tuple] = set()
        # The stages' per-element function comes first: a run it cannot
        # generate is not lowered here, and nothing below is compiled.
        self.chain = Chain(stages, input_schema)
        self._fused = compile_fused(self.chain) if self.stages else None
        self.generated = not self.stages or self._fused is not None
        self._batch_fn = compile_distinct_batch(self.chain, output_schema) if self.generated else None

    def on_element(self, element: StreamElement) -> None:
        values = element.row.values
        if self._fused is not None:
            values = self._fused(values)
            if values is None:
                return
        if values in self._seen:
            return
        self._seen.add(values)
        if self.chain.projects:
            element = StreamElement(
                Row.raw(self.output_schema, values), element.timestamp, element.source
            )
        self.emit(element)

    def push_batch(self, rows: list[Row], stamps: list[float], source: str) -> None:
        """Deduplicate a whole run with one generated call, forwarding
        the first occurrences as one output run."""
        if self._batch_fn is None:
            Operator.push_batch(self, rows, stamps, source)
            return
        out: list[Row] = []
        out_stamps: list[float] = []
        try:
            self._batch_fn(rows, stamps, self._seen, out, out_stamps)
        finally:
            self.rows_in += len(rows)
            if out:
                self.emit_batch(out, out_stamps, source)

    def state_snapshot(self) -> dict:
        state = super().state_snapshot()
        state["seen"] = set(self._seen)
        return state

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        self._seen = set(state["seen"])


class OrderByOp(Operator):
    """Sort each punctuation-delimited batch.

    Streams never end, so a total sort is impossible; CQL-style engines
    sort per report. Elements arriving between two punctuations form one
    batch, sorted and re-emitted when the punctuation arrives.
    """

    def __init__(
        self,
        items: list[OrderItem],
        downstream: StreamConsumer,
        input_schema: Schema,
    ):
        super().__init__(downstream)
        self.items = items
        self._batch = Segment()
        self._key_fns = [compile_expr(item.expr, input_schema) for item in items]

    def on_element(self, element: StreamElement) -> None:
        self._batch.append(element)

    def push_batch(self, rows: list[Row], stamps: list[float], source: str) -> None:
        """Buffer a whole run with one ``extend``."""
        self._batch.extend(rows, stamps, source)
        self.rows_in += len(rows)

    def on_punctuation(self, punctuation: Punctuation) -> None:
        decorated = []
        for index, element in enumerate(self._batch.elements()):
            decorated.append((self._sort_key(element.row.values), index, element))
        decorated.sort(key=lambda entry: (entry[0], entry[1]))
        for _, _, element in decorated:
            self.emit(element)
        self._batch = Segment()
        self.downstream.push(punctuation)

    def state_snapshot(self) -> dict:
        state = super().state_snapshot()
        state["batch"] = self._batch.elements()
        return state

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        self._batch = Segment.of(state["batch"])

    def _sort_key(self, values: tuple) -> tuple:
        key: list[Any] = []
        for item, key_fn in zip(self.items, self._key_fns):
            value = key_fn(values)
            # NULLs sort first ascending, last descending.
            null_rank = 0 if value is None else 1
            if item.ascending:
                key.append((null_rank, value if value is not None else 0))
            else:
                key.append(_Descending((null_rank, value if value is not None else 0)))
        return tuple(key)


class _Descending:
    """Wrapper inverting comparison order for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Descending") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Descending) and self.value == other.value


class LimitOp(Operator):
    """Emit at most ``count`` rows per punctuation batch."""

    def __init__(self, count: int, downstream: StreamConsumer):
        super().__init__(downstream)
        self.count = count
        self._emitted_in_batch = 0

    def on_element(self, element: StreamElement) -> None:
        if self._emitted_in_batch < self.count:
            self._emitted_in_batch += 1
            self.emit(element)

    def push_batch(self, rows: list[Row], stamps: list[float], source: str) -> None:
        """Apply the per-report budget to a whole run in one dispatch:
        the prefix that still fits forwards as one output run."""
        self.rows_in += len(rows)
        fits = max(self.count - self._emitted_in_batch, 0)
        out = rows[:fits]
        if out:
            self._emitted_in_batch += len(out)
            self.emit_batch(out, stamps[:fits], source)

    def on_punctuation(self, punctuation: Punctuation) -> None:
        self._emitted_in_batch = 0
        self.downstream.push(punctuation)

    def state_snapshot(self) -> dict:
        state = super().state_snapshot()
        state["emitted_in_batch"] = self._emitted_in_batch
        return state

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        self._emitted_in_batch = state["emitted_in_batch"]


class OutputOp(Operator):
    """Deliver results to a display callback and forward them downstream.

    ``every`` throttles delivery: at most one batch per ``every`` seconds
    of stream time (the OUTPUT TO ... EVERY clause).
    """

    def __init__(
        self,
        display: str,
        deliver: Callable[[str, StreamElement], None],
        downstream: StreamConsumer,
        every: float | None = None,
    ):
        super().__init__(downstream)
        self.display = display
        self.deliver = deliver
        self.every = every
        self._last_delivery = float("-inf")

    def on_element(self, element: StreamElement) -> None:
        if self.every is None or element.timestamp - self._last_delivery >= self.every:
            self.deliver(self.display, element)
            if self.every is not None:
                self._last_delivery = element.timestamp
        self.emit(element)

    def state_snapshot(self) -> dict:
        state = super().state_snapshot()
        state["last_delivery"] = self._last_delivery
        return state

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        self._last_delivery = state["last_delivery"]
