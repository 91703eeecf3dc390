"""The PC-side stream engine: continuous queries over wrapper feeds.

One :class:`StreamEngine` hosts any number of continuous queries. Source
feeds (wrappers, the sensor-engine basestation, database tables) are
registered once; each running query's Scan ports subscribe to the feeds
they read. Stored tables are replayed into newly started queries so a
query joining streams against ``Machines`` sees the full table.

Ingestion is routed through a **source → ports index** maintained on
:meth:`execute`/:meth:`stop`, so pushing an element costs a dictionary
lookup plus one push per subscribed port — not a scan of every query's
every port. :meth:`push_many` amortizes the lookup (and the catalog
resolution) across a whole batch of rows and hands each port the whole
batch via the optional ``push_batch`` protocol, so vectorized operators
(Filter/Project/Fused) traverse it with one dispatch per operator — or,
for a stream whose one port feeds such an operator, runs ingest and its
stages as one generated loop (:meth:`StreamEngine._fuse_ingest`). Rows
enter every port under the catalog schema and keep it: operators read
them by position, and a row is built under another schema only by an
operator that builds rows anyway. A hand-built plan that forwards source
rows to its sink gets one label on the way out
(:func:`~repro.stream.compiler.result_sink`), applied in :meth:`execute`.

The engine is deliberately synchronous: pushing an element runs the
whole operator pipeline inline. Distribution (operators placed on
different PCs with LAN latency) is layered on top in
:mod:`repro.stream.distributed`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.catalog import Catalog, SourceEntry, SourceKind
from repro.data.schema import Schema
from repro.data.streams import (
    CollectingConsumer,
    LogView,
    Punctuation,
    StreamConsumer,
    StreamElement,
    edge,
    elements_from_columns,
    park,
    push_all,
)
from repro.data.tuples import Row
from repro.errors import ExecutionError
from repro.plan.logical import LogicalOp, RemoteSource
from repro.sql.compiled import compile_counts, compile_fused_ingest, compile_ingest, fallback_ingest
from repro.stream.compiler import (
    CompiledPlan,
    PlanCompiler,
    ScanPort,
    result_sink,
)
from repro.stream.multiplex import SharedChain, SubplanRegistry
from repro.stream.operators import StageOp, SymmetricHashJoin

_query_ids = itertools.count(1)


def counted(counts: dict, compile_fn: Callable, *args) -> Any:
    """``compile_fn(*args)``, the functions it generated (and its
    fallbacks) added to ``counts``."""
    before = compile_counts()
    compiled = compile_fn(*args)
    for key, total in compile_counts().items():
        counts[key] += total - before[key]
    return compiled


def generate_ingest_loop(loops: dict, counts: dict, schema: Schema, elements: bool) -> None:
    """Generate, at admission, the ingest loop for catalog ``schema``
    into ``loops`` (keyed by the schema's id, which the loop keeps
    alive) by :func:`~repro.sql.compiled.compile_ingest` over
    :meth:`StreamEngine._coerce_row`, its rung added to ``counts``."""
    if id(schema) not in loops:
        loops[id(schema)] = counted(
            counts, compile_ingest, schema, StreamEngine._coerce_row, elements
        )


def ingest_loop(loops: dict, schema: Schema, elements: bool) -> Callable:
    """The ingest loop for catalog ``schema``: the one admission
    generated, or, for a stream no query has scanned, the interpreter's
    (``_coerce_row`` over every row). Rows flowing never generate code."""
    loop = loops.get(id(schema))
    if loop is None:
        return fallback_ingest(schema, StreamEngine._coerce_row, elements)
    return loop


@dataclass
class QueryHandle:
    """A running continuous query.

    Attributes:
        query_id: Engine-assigned identifier.
        plan: The logical plan being executed.
        compiled: The operator pipeline.
        sink: Collects every result row the query emits — a
            :class:`LogView` over its shared chain's result log when the
            engine chose the sink and the query is shared.
        engine: The hosting engine (set by :meth:`StreamEngine.execute`);
            enables :meth:`stop` and use as a context manager.
    """

    query_id: int
    plan: LogicalOp
    compiled: CompiledPlan
    sink: CollectingConsumer | LogView
    engine: "StreamEngine | None" = field(default=None, repr=False)
    #: True when this query reads a shared chain (through a view of its
    #: log, or as a tee branch): ``compiled`` is empty and the chain's
    #: operators live in the registry.
    shared: bool = field(default=False, repr=False)
    # latest_batch incremental state: sink elements before _scan_pos have
    # been classified against _cached_watermark; _batch keeps the ones
    # at-or-after it. Repeated polling (the GUI case) is O(new elements).
    _cached_watermark: float = field(default=float("-inf"), init=False, repr=False)
    _scan_pos: int = field(default=0, init=False, repr=False)
    _seen_clears: int = field(default=0, init=False, repr=False)
    _batch: list[StreamElement] = field(default_factory=list, init=False, repr=False)

    @property
    def results(self) -> list[Row]:
        """All result rows emitted so far."""
        return self.sink.rows

    def stop(self) -> None:
        """Stop this query on its engine. Safe to call repeatedly."""
        if self.engine is not None:
            self.engine.stop(self)

    def __enter__(self) -> "QueryHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        # Idempotent: an explicit stop() followed by context exit (or a
        # Session.close after either) never raises.
        self.stop()

    def latest_batch(self) -> list[Row]:
        """Rows emitted since the last punctuation boundary observed."""
        elements, lo, hi, watermark = self.sink.extent()
        if self._seen_clears != self.sink.clears or watermark < self._cached_watermark:
            # Sink was cleared, or the watermark regressed: rescan.
            self._seen_clears = self.sink.clears
            self._scan_pos = 0
            self._batch = []
            self._cached_watermark = watermark
        elif watermark > self._cached_watermark:
            # Watermark advanced monotonically: previously excluded
            # elements stay excluded; prune the kept ones.
            self._batch = [e for e in self._batch if e.timestamp >= watermark]
            self._cached_watermark = watermark
        self._batch += [e for e in elements[lo + self._scan_pos : hi] if e.timestamp >= watermark]
        self._scan_pos = hi - lo
        return [e.row for e in self._batch]


@dataclass
class _Route:
    """One subscription of a running query's port to a source feed."""

    query_id: int
    port: ScanPort
    remote_schema: Schema | None = None  # set for RemoteSource ports
    #: ``(join, is_left)`` for an exchange port feeding a join side whose
    #: join takes a delivery whole (``SymmetricHashJoin.push_runs``).
    side: tuple | None = None


class StreamEngine:
    """Hosts continuous queries and routes source data into them.

    Args:
        catalog: Shared catalog (source schemas and kinds).
        deliver: Optional display callback for OUTPUT TO plans
            ``(display_name, element) -> None``.
        share_plans: Run structurally identical plans (and common
            prefixes) as shared chains via the subplan registry. Off by
            default at engine level; ``Session`` turns it on.
    """

    def __init__(
        self,
        catalog: Catalog,
        deliver: Callable[[str, StreamElement], None] | None = None,
        share_plans: bool = False,
    ):
        self._catalog = catalog
        self._compiler = PlanCompiler(deliver)
        self._queries: dict[int, QueryHandle] = {}
        self._tables: dict[str, list[StreamElement]] = {}
        self._watermarks: dict[str, float] = {}
        #: Routing index: lowercased source name -> subscribed ports.
        #: Maintained on execute/stop so ingestion never scans queries.
        self._routes: dict[str, list[_Route]] = {}
        #: id(catalog schema) -> this engine's ingest loop for it.
        self._ingest_loops: dict[int, Callable] = {}
        #: Lowercased source name -> (ingest and its one route's stages
        #: as one loop, that route's StageOp, the catalog schema); see
        #: :meth:`_fuse_ingest`.
        self._fused_ingest: dict[str, tuple[Callable, StageOp, Schema]] = {}
        self.elements_ingested = 0
        self.punctuations_seen = 0
        self.share_plans = share_plans
        #: Shared-subplan registry (chains live here; see multiplex.py).
        self.subplans = SubplanRegistry(self)
        #: query_id -> (the shared chain the query reads, its reader:
        #: a view of the chain's log, or its own branch on the tee).
        self._attachments: dict[int, tuple[SharedChain, Any]] = {}
        #: Recovery plumbing (see :mod:`repro.stream.checkpoint`). A
        #: coordinator attaches itself here; ingestion then appends to
        #: its bounded replay log (a recovery detaches it while it
        #: replays). ``failed`` marks a simulated crash: the engine drops
        #: its pipelines and tables and ignores ingestion until the
        #: coordinator's ``recover()`` brings it back.
        self.checkpointer = None
        self.failed = False

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    @edge
    def load_table(self, name: str, rows: list[Row | Mapping[str, Any]], timestamp: float = 0.0) -> None:
        """Load (or extend) a stored table; replayed into future queries
        and handed to each running one's ports as one run
        (:meth:`_dispatch_batch`)."""
        if self.failed:
            return
        entry = self._catalog.source(name)
        if entry.kind is not SourceKind.TABLE:
            raise ExecutionError(f"{name!r} is a stream; push elements instead")
        rows = list(rows)
        elements = [
            StreamElement(self._coerce_row(entry.schema, row), timestamp, name)
            for row in rows
        ]
        # Logged only once every row coerced: a rejected load must leave
        # no record for recovery to replay.
        if self.checkpointer is not None:
            self.checkpointer.record(("table", None, name, rows, timestamp))
        self._tables.setdefault(entry.name, []).extend(elements)
        self._dispatch_batch(entry.name, elements)

    def table_rows(self, name: str) -> list[Row]:
        """Current contents of a loaded table."""
        entry = self._catalog.source(name)
        return [e.row for e in self._tables.get(entry.name, [])]

    def drop_table(self, name: str) -> None:
        """Forget a stored table's contents (Session.detach). The name is
        matched case-insensitively; unknown names are a no-op so detach
        stays symmetric even when nothing was ever loaded."""
        if self.checkpointer is not None:
            # Recovery must not replay loads of a table dropped later.
            self.checkpointer.record(("drop", None, name))
        for key in list(self._tables):
            if key.lower() == name.lower():
                del self._tables[key]
        # A dropped table changes what a recompiled plan would see:
        # invalidate cached plans via the catalog's schema epoch.
        self._catalog.bump_epoch()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: LogicalOp,
        sink: StreamConsumer | None = None,
        share: bool | None = None,
    ) -> QueryHandle:
        """Start a continuous query; returns its handle immediately.

        ``sink`` overrides the terminal consumer — the sharded engine
        passes a per-shard merge feed so replica results flow into one
        merged sink. A custom sink that is not a
        :class:`~repro.data.streams.CollectingConsumer` leaves the
        handle's ``results``/``latest_batch`` accessors non-functional;
        such handles are internal plumbing, not user-facing.

        ``share`` overrides the engine's ``share_plans`` default for
        this one query (a pool's failover pins each replica to the
        sharing decision recorded at the barrier).

        What the sink is decides how a shared query reads its chain:
        with ``sink`` None, ``handle.sink`` is a
        :class:`~repro.data.streams.LogView` over the chain's one result
        log (see there for admission mid-fan-out, close, clear and
        observers); a custom sink is a tee branch of its own. Either way
        a private query (``share_plans=False``, or a declined plan) gets
        its own sink.

        A plan that hands its sink source rows as they were ingested
        (a hand-built one; see :func:`~repro.stream.compiler.result_sink`)
        feeds the sink (or the log) through its exit label;
        ``handle.sink`` is the sink itself either way.

        Stored tables are replayed into the new query before this
        returns; when that raises here, the query is stopped first, so
        a failed admission leaves nothing running.

        Under a checkpointer the admission is logged, with what the
        sink (a view's: its log) held before it and the sharing
        decision, so a recovery from an earlier barrier starts the query
        again at the same point of the replay
        (:meth:`~repro.stream.checkpoint.CheckpointCoordinator.restore_host`).
        """
        if self.failed:
            raise ExecutionError(
                "engine has failed; restore it from a checkpoint first "
                "(CheckpointCoordinator.recover)"
            )
        handle = QueryHandle(next(_query_ids), plan, None, sink, self)
        # A new sink held nothing; a custom consumer keeps no count.
        received = 0 if sink is None else getattr(sink, "received", None)
        self._start(handle, share)
        if self.checkpointer is not None:
            if isinstance(handle.sink, LogView):  # a shared admission emits nothing
                received = handle.sink.log.received
            self.checkpointer.record(("admit", None, handle.query_id, received, handle.shared))
        return handle

    def _start(self, handle: QueryHandle, share: bool | None, terminal=None) -> None:
        """Compile (or admit) ``handle.plan`` into ``handle`` and route
        it: the part of :meth:`execute` a recovery repeats for a handle
        the engine held at the failure. ``handle.sink`` None lets the
        engine choose the sink; ``terminal`` (the recovery's
        :class:`~repro.stream.checkpoint.SinkFeed`) stands between the
        pipeline and the sink, or a view's log."""
        plan, sink = handle.plan, handle.sink
        use_share = self.share_plans if share is None else share
        admitted = self.subplans.admit(plan, sink, terminal) if use_share else None
        if admitted is not None:
            handle.compiled = CompiledPlan(root=plan)  # the pipeline is the chain's
            if sink is None:
                handle.sink = admitted[1]
            self._attachments[handle.query_id] = admitted
        else:
            if sink is None:
                handle.sink = sink = CollectingConsumer()
            handle.compiled = self._compiler.compile(plan, result_sink(plan, terminal or sink))
        handle.shared = admitted is not None
        self._queries[handle.query_id] = handle
        self._register_routes(handle)
        try:
            self._replay_tables(handle)
        except BaseException:
            self.stop(handle)
            raise

    @edge
    def _replay_tables(self, handle: QueryHandle) -> None:
        """Replay stored tables into a new query's table scans."""
        for port in handle.compiled.ports:
            if port.scan is not None:
                for element in self._tables.get(port.scan.entry.name, ()):
                    port.consumer.push(element)

    def stop(self, handle: QueryHandle) -> None:
        """Stop routing data into a query. Idempotent: stopping a query
        that is already stopped (or was never started here) is a no-op.
        A shared query closes only its own view (or detaches only its
        own branch); sibling queries on the same chain are undisturbed."""
        if self._queries.pop(handle.query_id, None) is None:
            return
        self._drop_routes(handle.query_id)
        attachment = self._attachments.pop(handle.query_id, None)
        if attachment is not None:
            self.subplans.release(*attachment)
        elif isinstance(handle.sink, LogView):  # its chain died with the engine
            handle.sink.close()

    def _drop_routes(self, owner_id: int) -> None:
        """Remove every routing entry registered under ``owner_id`` (a
        query id or a shared chain id)."""
        for key in list(self._routes):
            routes = self._routes[key]
            kept = [r for r in routes if r.query_id != owner_id]
            if kept:
                self._routes[key] = kept
            else:
                del self._routes[key]
            if len(kept) != len(routes):
                self._fuse_ingest(key)

    @property
    def running_queries(self) -> list[QueryHandle]:
        """The queries running here; none while the engine is failed
        (it still holds their handles for a recovery)."""
        return [] if self.failed else list(self._queries.values())

    def sharing_stats(self) -> dict:
        """Shared-subplan counters (see :meth:`SubplanRegistry.stats`)."""
        return self.subplans.stats()

    def compile_stats(self) -> dict:
        """Whole functions generated, and whole-function fallbacks to
        the interpreter, across every plan and shared chain this engine
        lowered (see :func:`repro.sql.compiled.compile_counts`)."""
        return dict(self._compiler.counts)

    def subscribed(self, source: str) -> bool:
        """True when any running query reads ``source`` — the sharded
        engine probes this to skip feeding its designated fallback
        engine when no fallback query is listening."""
        return bool(self._routes.get(source.lower()))

    def _register_routes(self, handle: QueryHandle) -> None:
        for port in handle.compiled.ports:
            remote_schema = None
            if port.scan is None:
                remote_schema = self._remote_schema(handle, port.source_name)
            self._add_route(handle.query_id, port, remote_schema)

    def _register_chain_routes(self, chain) -> None:
        """Subscribe a shared chain's scan ports to source feeds. Chain
        ids share the query-id route namespace, so batched ingestion's
        multi-port interleaving treats a chain like any other query."""
        for port in chain.compiled.ports:
            self._add_route(chain.chain_id, port, None)

    def _add_route(self, owner_id: int, port: ScanPort, remote_schema: Schema | None) -> None:
        key = port.source_name.lower()
        side = None
        consumer = port.consumer
        if isinstance(consumer, SymmetricHashJoin._SidePort) and consumer._join._deliver is not None:
            side = (consumer._join, consumer._left)
        self._routes.setdefault(key, []).append(_Route(owner_id, port, remote_schema, side))
        if port.scan is not None and port.scan.entry.kind is not SourceKind.TABLE:
            # Generated at admission, with the plan's functions: rows
            # flowing never generate code.
            generate_ingest_loop(
                self._ingest_loops, self._compiler.counts, port.scan.entry.schema, True
            )
        self._fuse_ingest(key)

    def _fuse_ingest(self, key: str) -> None:
        """Rebuild or drop source ``key``'s fused-ingest loop after its
        routes changed — at admission, stop and chain re-lowering, never
        while rows flow. A stream with exactly one route whose consumer
        is a :class:`StageOp` with a generated batch loop gets ingest and
        those stages as one loop (:meth:`push_many`), splicing the
        operator's own lowering of them; any other keeps the two."""
        self._fused_ingest.pop(key, None)
        routes = self._routes.get(key, ())
        if len(routes) != 1:
            return
        port, op = routes[0].port, routes[0].port.consumer
        if (
            port.scan is None
            or port.scan.entry.kind is SourceKind.TABLE
            or not isinstance(op, StageOp)
            or op._batch_fn is None
        ):
            return
        schema = port.scan.entry.schema
        loop = counted(
            self._compiler.counts, compile_fused_ingest, schema, StreamEngine._coerce_row,
            op.chain, op.output_schema,
        )
        if loop is not None:
            self._fused_ingest[key] = (loop, op, schema)

    def _ingest_loop(self, schema: Schema) -> Callable:
        """This engine's element-building ingest loop for ``schema``."""
        return ingest_loop(self._ingest_loops, schema, True)

    # ------------------------------------------------------------------
    # Stream ingestion
    # ------------------------------------------------------------------
    @edge
    def push(
        self,
        source: str,
        row: Row | Mapping[str, Any],
        timestamp: float,
    ) -> None:
        """Push one element of ``source`` into every query scanning it."""
        if self.failed:
            return
        entry = self._catalog.source(source)
        (element,) = self._ingest_loop(entry.schema)((row,), (timestamp,), entry.name)
        # Logged after coercion: a rejected row leaves no replay record.
        if self.checkpointer is not None:
            self.checkpointer.record(("push", None, source, row, timestamp))
        self.elements_ingested += 1
        for route in self._routes.get(entry.name.lower(), ()):
            try:
                route.port.consumer.push(element)
            except Exception as exc:
                park(exc)

    @edge
    def push_many(
        self,
        source: str,
        rows: Sequence[Row | Mapping[str, Any]],
        timestamps: float | Sequence[float] = 0.0,
    ) -> int:
        """Batched ingestion: push many elements of ``source`` at once.

        The catalog entry and the routing-index lookup are resolved once
        for the whole batch. ``timestamps`` is either one timestamp
        applied to every row or a sequence (any iterable, including a
        generator — it is materialized up front) aligned with ``rows``.
        Returns the number of elements ingested. In order:

        1. One generated loop checks the rows (the catalog schema's
           :func:`ingest_loop`: a Row under the catalog schema passes
           through, a ``dict`` is read inline, the rest goes to
           :meth:`_coerce_row`), so a rejected row raises before
           anything is logged or forwarded.
        2. The batch is recorded for replay.
        3. It is handed downstream. A source whose one route feeds a
           :class:`~repro.stream.operators.StageOp` ran that operator's
           stages in the same loop (:meth:`_fuse_ingest`): a rejected
           row never became an element, and the survivors leave as the
           operator's ``push_batch`` would send them (``rows_in`` counts
           the batch, then ``emit_batch``). Otherwise each route gets
           the elements as one ``push_batch`` (per-element ``push``
           without it), in row order and one route after another —
           queries are independent pipelines — except that a query
           scanning the source through several ports (a self-join,
           whose ROWS windows evict by arrival count) keeps the
           element-major interleaving of repeated :meth:`push`.
        """
        if self.failed:
            return 0
        entry = self._catalog.source(source)
        rows = rows if isinstance(rows, list) else list(rows)
        if isinstance(timestamps, (int, float)):
            stamps: Sequence[float] = [float(timestamps)] * len(rows)
        else:
            # Materialize before the length check: a generator of
            # timestamps has no len() and could otherwise fail (or be
            # half-consumed) mid-ingest. Lists pass through uncopied
            # (Session.push_many has already materialized them).
            stamps = timestamps if isinstance(timestamps, list) else list(timestamps)
            if len(stamps) != len(rows):
                raise ExecutionError(
                    f"push_many got {len(rows)} rows but {len(stamps)} timestamps"
                )
        out = None
        fused = self._fused_ingest.get(entry.name.lower())
        if fused is not None and fused[2] is entry.schema:
            try:
                out = fused[0](rows, stamps, entry.name)
            except Exception:  # the two loops below raise (or park) it again
                pass
        if out is None:
            elements = self._ingest_loop(entry.schema)(rows, stamps, entry.name)
        # Logged only once the whole batch coerced (see push).
        if self.checkpointer is not None:
            self.checkpointer.record(("many", None, source, rows, stamps))
        self.elements_ingested += len(rows)
        if out is None:
            self._dispatch_batch(entry.name, elements)
        else:
            self._dispatch_fused(fused[1], out, entry, rows, stamps)
        return len(rows)

    def _dispatch_fused(
        self, op: StageOp, out: list, entry: SourceEntry, rows: list, stamps: Sequence[float]
    ) -> None:
        """Hand a fused-ingest run's survivors to the source's one route
        as ``op.push_batch`` would have; a route a callback admitted
        meanwhile reads the run in flight too, as in
        :meth:`_dispatch_batch`."""
        routes = self._routes.get(entry.name.lower(), ())
        op.rows_in += len(rows)
        if out:
            op.emit_batch(out)
        if len(routes) > 1:
            elements = self._ingest_loop(entry.schema)(rows, stamps, entry.name)
            for route in itertools.islice(routes, 1, None):
                try:
                    push_all(route.port.consumer, elements)
                except Exception as exc:
                    park(exc)

    @edge
    def push_values(
        self,
        source: str,
        values: Sequence[tuple],
        timestamps: Sequence[float],
    ) -> int:
        """Trusted hot-path batch ingest: positional value tuples.

        ``values`` must already be tuples of the source's catalog-schema
        arity — no coercion, validation or replay-log recording happens.
        This is the process-shard worker boundary: the parent has
        coerced and logged every row before shipping its values, so the
        worker rebuilds Row and StreamElement in a single pass.
        """
        if self.failed:
            return 0
        entry = self._catalog.source(source)
        elements = elements_from_columns(
            entry.schema, entry.name, values, timestamps
        )
        self.elements_ingested += len(elements)
        self._dispatch_batch(entry.name, elements)
        return len(elements)

    def _dispatch_batch(self, name: str, elements: list[StreamElement]) -> None:
        routes = self._routes.get(name.lower(), ())
        multi_port_queries = self._multi_port_queries(routes)
        interleaved = []
        for route in routes:
            if route.query_id in multi_port_queries:
                interleaved.append(route.port.consumer)
                continue
            try:
                push_all(route.port.consumer, elements)
            except Exception as exc:
                park(exc)
        if interleaved:
            # Element-major delivery across this query's ports, exactly
            # as repeated push() would interleave them.
            for element in elements:
                for consumer in interleaved:
                    try:
                        consumer.push(element)
                    except Exception as exc:
                        park(exc)

    @staticmethod
    def _multi_port_queries(routes: Sequence["_Route"]) -> set[int]:
        """Query ids appearing on more than one of ``routes``."""
        seen: set[int] = set()
        multi: set[int] = set()
        for route in routes:
            if route.query_id in seen:
                multi.add(route.query_id)
            seen.add(route.query_id)
        return multi

    @edge
    def push_exchange(self, runs: Sequence[tuple[str, list, list]]) -> int:
        """Trusted ingest of one exchange delivery: every run the pool's
        shuffle barrier routed to this engine, in delivery order.

        Each run is ``(name, values, timestamps)``: ``name`` an
        :func:`~repro.plan.exchange.exchange_name` port, ``values``
        positional tuples of the exchanged schema (stage-1 emissions).
        Consecutive runs into the sides of one join that takes a
        delivery whole enter it by one ``push_runs`` call, which builds
        their rows itself and parks what a run raises; every other run
        is built into elements once and pushed to its ports. No catalog entry exists and no
        replay-log recording happens — the pool logs exchange deliveries
        itself so failover can replay them deterministically. Returns
        the rows delivered to a port.
        """
        if self.failed:
            return 0
        count = 0
        join, taken = None, []
        for name, values, stamps in runs:
            routes = self._routes.get(name.lower(), ())
            if not routes:
                continue
            count += len(values)
            side = routes[0].side if len(routes) == 1 else None
            if taken and (side is None or side[0] is not join):
                join.push_runs(taken)
                taken = []
            if side is not None:
                join = side[0]
                taken.append((side[1], values, stamps, name))
                continue
            elements = elements_from_columns(routes[0].remote_schema, name, values, stamps)
            for route in routes:
                try:
                    push_all(route.port.consumer, elements)
                except Exception as exc:
                    park(exc)
        if taken:
            join.push_runs(taken)
        self.elements_ingested += count
        return count

    @edge
    def push_remote(
        self, name: str, values: Mapping[str, Any] | Row, timestamp: float
    ) -> None:
        """Push an element into RemoteSource ports (no catalog entry).

        ``values`` may be a mapping over the remote schema's bare or full
        names, or an already-shaped Row; each port gets a row built under
        its leaf's schema. Shaped before it is logged: a rejected tuple
        leaves no replay record.
        """
        if self.failed:
            return
        deliveries = [
            (
                route.port.consumer,
                StreamElement(self._remote_row(route.remote_schema, values), timestamp, name),
            )
            for route in self._routes.get(name.lower(), ())
            if route.port.scan is None
        ]
        if self.checkpointer is not None:
            self.checkpointer.record(("remote", None, name, values, timestamp))
        self.elements_ingested += 1
        for consumer, element in deliveries:
            try:
                consumer.push(element)
            except Exception as exc:
                park(exc)

    def _remote_schema(self, handle: QueryHandle, name: str) -> Schema:
        for node in handle.plan.walk():
            if isinstance(node, RemoteSource) and node.name.lower() == name.lower():
                return node.schema
        raise ExecutionError(f"query {handle.query_id} has no remote source {name!r}")

    @staticmethod
    def _remote_row(schema, values: Mapping[str, Any] | Row) -> Row:
        """``values`` shaped onto ``schema``; raises when it does not fit."""
        if isinstance(values, Row):
            return values.with_schema(schema)
        out = []
        for f in schema:
            if f.name in values:
                out.append(values[f.name])
            elif f.bare_name in values:
                out.append(values[f.bare_name])
            else:
                raise ExecutionError(f"remote tuple is missing field {f.name!r}")
        return Row(schema, out, validate=False)

    @edge
    def punctuate(self, watermark: float, sources: list[str] | None = None) -> None:
        """Advance the watermark on ``sources`` (default: every source any
        running query reads, including table scans)."""
        if self.failed:
            return
        punctuation = Punctuation(watermark)
        self.punctuations_seen += 1
        if sources is None:
            # The routing index holds every subscribed port — private
            # queries' and shared chains' alike (chains forward the
            # watermark to their tee branches), so one pass over it
            # punctuates each port exactly once. Exchange ports are
            # excluded: their watermark comes from the pool's shuffle
            # barrier *after* buffered rows are delivered.
            groups = self._routes.values()
        else:
            groups = (self._routes.get(source.lower(), ()) for source in sources)
        for routes in groups:
            for route in routes:
                if sources is None and route.port.exchange:
                    continue
                try:
                    route.port.consumer.push(punctuation)
                except Exception as exc:
                    park(exc)
        # Punctuation-aligned barriers: the coordinator logs the
        # watermark (replay must reproduce window emissions) and, when
        # its interval elapsed, snapshots post-punctuation state.
        if self.checkpointer is not None:
            self.checkpointer.on_punctuation(watermark, sources)

    # ------------------------------------------------------------------
    # Failure and recovery
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Simulate a crash: every pipeline, route, shared chain and
        stored table is lost and the engine ignores ingestion until a
        recovery (:meth:`~repro.stream.checkpoint.CheckpointCoordinator.recover`,
        or a :class:`ShardedStreamEngine` failover) brings it back. The
        query handles and their sinks survive — a caller holds them —
        and the recovery writes into them again. Driven by
        :mod:`repro.runtime.faults`."""
        self.failed = True
        self._routes.clear()
        self._fused_ingest.clear()
        self._tables.clear()
        self._attachments.clear()
        self.subplans.clear()

    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_row(schema, row: Row | Mapping[str, Any]) -> Row:
        if isinstance(row, Row):
            if row.schema is schema:  # hot path: wrappers reuse the catalog schema
                return row
            if len(row) != len(schema):
                raise ExecutionError(
                    f"row arity {len(row)} does not match schema arity {len(schema)}"
                )
            return row.with_schema(schema) if row.schema != schema else row
        return Row.from_mapping(schema, row)
