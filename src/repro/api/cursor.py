"""Cursors and prepared statements: the result side of the Session API.

A :class:`Cursor` is the one handle a caller holds over a running (or
completed) statement, whichever backend executes it:

* ``kind == "stream"``       — a continuous StreamEngine query; results
  accumulate as elements are pushed.
* ``kind == "federated"``    — a continuous query partitioned across the
  in-network sensor engine and the stream backend: the stream-side
  residual behaves exactly like a ``"stream"`` cursor, and ``close()``
  additionally stops the query's in-network fragment deployments
  (``federated_plan`` / ``fragments`` expose the partitioning).
* ``kind == "distributed"``  — a continuous query with operators placed
  across simulated LAN nodes; pump the session's simulator to deliver.
* ``kind == "batch"``        — a one-shot evaluation; rows were
  materialized when the cursor was created.
* ``kind == "view"``         — a CREATE VIEW registration; no rows.

A :class:`PreparedStatement` is parsed, analyzed and planned **once**,
with ``:name`` placeholders left in the plan as
:class:`~repro.sql.expressions.Parameter` slots. Batch executions rebind
the slots and re-run the same plan — the compiled closures the batch
evaluator memoizes on plan nodes are reused across executions, so only
the first execution pays compilation. Continuous executions (stream /
distributed) bake the bindings in as literals instead: a running
pipeline must own immutable parameter values, or a later ``execute()``
would mutate a live query's predicate.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterator

from repro.data.schema import Schema
from repro.data.streams import StreamElement
from repro.data.tuples import Row
from repro.errors import QueryError, SessionClosedError
from repro.sql.ast import (
    CreateView,
    OrderItem,
    SelectItem,
    SelectQuery,
)
from repro.sql.analyzer import AnalyzedQuery, AnalyzedRecursive
from repro.sql.expressions import collect_parameters, substitute_parameters


class Subscription:
    """One callback registered on a :class:`Cursor`.

    The cursor's sink hands each emitted run to every subscription in
    one call. ``mode="queue"`` appends the run to a deque and leaves
    draining to the consumer (:meth:`drain`, or :meth:`Cursor.drain`),
    so user code never runs inside a shard's (or engine's) emit stack
    and a slow or raising callback can never stall the producer.
    ``mode="direct"`` (the default) calls back inline: with nothing
    queued ahead of it, straight from the run; otherwise the run joins
    the queue and the queue drains.

    Either way delivery is at-least-once and in the order rows entered
    the cursor's sink: if the callback raises at element *k* of a run,
    *k* and everything behind it stay queued, in order, and the
    exception propagates (out of the emitting verb, for a direct
    subscription, after every sibling subscription got the run).
    """

    __slots__ = ("callback", "elements", "mode", "_pending", "_draining")

    def __init__(self, callback: Callable, *, elements: bool, mode: str):
        if mode not in ("direct", "queue"):
            raise QueryError(f"unknown subscription mode {mode!r}; expected 'direct' or 'queue'")
        self.callback = callback
        self.elements = elements
        self.mode = mode
        self._pending: deque[StreamElement] = deque()
        self._draining = False

    @property
    def pending(self) -> int:
        """Queued deliveries not yet drained; a run being called back
        is not counted."""
        return len(self._pending)

    def _enqueue(self, run: list[StreamElement]) -> None:
        """Take one run (the producer's list: read, never kept)."""
        if self.mode == "direct" and not self._pending and not self._draining:
            self._deliver(run)
            return
        self._pending.extend(run)
        if self.mode == "direct":
            self.drain()

    def _deliver(self, run: list[StreamElement]) -> int:
        """Call back every element of ``run`` in order; returns how many.
        When a callback raises, the failing element and the rest of the
        run go back to the head of the queue — ahead of anything queued
        meanwhile — before the exception propagates."""
        callback = self.callback
        rest = iter(run)
        try:
            if self.elements:
                for element in rest:
                    callback(element)
            else:
                for element in rest:
                    callback(element.row)
        except BaseException:
            self._pending.extendleft(reversed([element, *rest]))
            raise
        return len(run)

    def drain(self, limit: int | None = None) -> int:
        """Deliver up to ``limit`` queued items (all, by default) to the
        callback, in emission order; returns how many were delivered.

        Callback exceptions surface here — in the consumer's frame, not
        the producer's — with the failing item back at the head of the
        queue and nothing behind it lost; the next ``drain()`` retries
        it. Items queued while draining (a callback that feeds the
        session) are delivered by the same call, after the ones before
        them. A drain from inside this subscription's own callback is a
        no-op rather than a double delivery.
        """
        if self._draining:
            return 0
        self._draining = True
        pending = self._pending
        delivered = 0
        try:
            while pending and (limit is None or delivered < limit):
                take = len(pending) if limit is None else min(len(pending), limit - delivered)
                run = [pending.popleft() for _ in range(take)]
                delivered += self._deliver(run)
        finally:
            self._draining = False
        return delivered


class Cursor:
    """Handle over one executed statement. Iterate it, poll
    :meth:`results` / :meth:`latest_batch`, or :meth:`subscribe` a
    callback; ``close()`` (or the ``with`` statement) stops a continuous
    query and is always idempotent."""

    def __init__(
        self,
        session,
        sql: str,
        kind: str,
        schema: Schema | None,
        *,
        handle=None,
        query=None,
        rows: list[Row] | None = None,
        view_name: str | None = None,
    ):
        self.session = session
        self.sql = sql
        self.kind = kind
        self._schema = schema
        self._handle = handle  # stream: QueryHandle
        self._query = query  # distributed: DistributedQuery
        self._rows = rows  # batch: materialized rows
        self.view_name = view_name
        self._closed = False
        #: What drain() reaches; each also observes the sink (its fan-out).
        self._subscribers: list[Subscription] = []
        #: Federated execution state (set by FederatedBackend via
        #: _promote_federated; empty/None everywhere else).
        self.federated_plan = None
        self._deployments: list = []

    # -- constructors (used by Session) --------------------------------
    @classmethod
    def _stream(cls, session, sql: str, handle) -> "Cursor":
        return cls(session, sql, "stream", handle.plan.schema, handle=handle)

    @classmethod
    def _distributed(cls, session, sql: str, query) -> "Cursor":
        return cls(session, sql, "distributed", query.plan.schema, query=query)

    @classmethod
    def _materialized(cls, session, rows: list[Row], schema: Schema, sql: str) -> "Cursor":
        return cls(session, sql, "batch", schema, rows=list(rows))

    @classmethod
    def _view(cls, session, sql: str, name: str, schema: Schema) -> "Cursor":
        return cls(session, sql, "view", schema, view_name=name, rows=[])

    def _promote_federated(self, federated_plan, deployments: list) -> None:
        """Turn a delegate stream cursor into the handle of a federated
        execution: same sink/results plumbing, plus ownership of the
        in-network fragment deployments (stopped on :meth:`close`)."""
        self.kind = "federated"
        self.federated_plan = federated_plan
        self._deployments = list(deployments)

    @property
    def fragments(self) -> list:
        """The in-network fragment deployments this cursor owns
        (empty for non-federated cursors)."""
        return list(self._deployments)

    # -- results -------------------------------------------------------
    @property
    def schema(self) -> Schema | None:
        """Output schema of the statement (None for statements without one)."""
        return self._schema

    @property
    def description(self) -> list[str] | None:
        """Output column names (DB-API flavoured convenience)."""
        return None if self._schema is None else list(self._schema.names)

    @property
    def _sink(self):
        """The continuous query's sink (or view); None for one-shots."""
        owner = self._handle if self._handle is not None else self._query
        return None if owner is None else owner.sink

    def results(self) -> list[Row]:
        """Every result row produced so far (all rows, for one-shots)."""
        sink = self._sink
        return list(self._rows or []) if sink is None else sink.rows

    def latest_batch(self) -> list[Row]:
        """Rows since the last punctuation boundary (one-shots: all rows)."""
        if self._handle is not None:
            return self._handle.latest_batch()
        if self._query is None:
            return self.results()
        elements, lo, hi, watermark = self._query.sink.extent()
        return [e.row for e in elements[lo:hi] if e.timestamp >= watermark]

    def __iter__(self) -> Iterator[Row]:
        return iter(self.results())

    def __len__(self) -> int:
        """Result count, read off the sink (or view) without copying rows."""
        sink = self._sink
        return len(self._rows or ()) if sink is None else len(sink)

    # -- subscriptions -------------------------------------------------
    def subscribe(
        self,
        callback: Callable,
        *,
        elements: bool = False,
        mode: str = "direct",
    ) -> Subscription:
        """Invoke ``callback`` for every result row as it is emitted.

        ``elements=True`` delivers the full :class:`StreamElement`
        (row + timestamp) instead of the bare row. ``mode="queue"``
        defers delivery: emissions are buffered and the consumer drains
        them (:meth:`Subscription.drain` / :meth:`Cursor.drain`) at its
        own pace, so a slow callback never stalls the engine's — or a
        shard's — emit path; ``"direct"`` calls back inline. Each
        subscription observes the cursor's sink, which hands it each
        emitted run in one dispatch (see
        :meth:`~repro.data.streams.CollectingConsumer.observe`):

        * each subscription sees rows in the order they entered the
          sink (:meth:`results`), at least once — see
          :class:`Subscription`;
        * a fan-out finishes before it raises: a raising direct
          callback still lets every other subscription (and every other
          cursor the verb feeds) take the run, then the verb re-raises;
        * a callback that feeds the session (reentrant delivery): every
          subscription on the sink gets the rows it caused after the
          current run, exactly once;
        * a subscription made inside a callback starts with the next
          run: it gets exactly the rows that enter the sink after
          ``subscribe()`` returns.

        A shared query's sink is a view of its chain's one result log
        (:class:`~repro.data.streams.LogView`): a cursor admitted inside
        a callback starts with the next run, never the one in flight;
        ``close()`` freezes its results and unsubscribes it from the
        log; neither close nor clear touches a sibling cursor.

        On one-shot cursors the already-materialized rows are replayed
        (direct) or queued (queue) immediately, as one run. Returns the
        :class:`Subscription`.
        """
        subscription = Subscription(callback, elements=elements, mode=mode)
        self._subscribers.append(subscription)
        if self._rows is not None:
            # One-shot cursor: replay (direct) or enqueue (queue) the
            # materialized rows; the subscription stays registered so
            # Cursor.drain() reaches it like any other.
            subscription._enqueue([StreamElement(row, 0.0) for row in self._rows])
        else:
            self._sink.observe(subscription._enqueue)
        return subscription

    def drain(self, limit: int | None = None) -> int:
        """Drain every subscription's queue (see
        :meth:`Subscription.drain`): a queue-mode subscription's
        backlog, and whatever a raising direct-mode callback left
        behind. Returns total deliveries."""
        return sum(subscription.drain(limit) for subscription in self._subscribers)

    # -- lifecycle -----------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop the query — the stream residual *and*, for federated
        cursors, every in-network fragment deployment (idempotent;
        results remain readable)."""
        if self._closed:
            return
        self._closed = True
        if self._handle is not None:
            self._handle.stop()
        for deployment in self._deployments:
            deployment.stop()
        self.session._forget_cursor(self)

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<Cursor {self.kind} {state} rows={len(self)}>"


class PreparedStatement:
    """A statement compiled once and executed many times. See the
    module docstring for the rebinding contract."""

    def __init__(self, session, sql: str, *, placement=None, engine=None):
        self.session = session
        self.sql = sql
        self._placement = placement
        self._invalidated = False
        # The same memoized front end as Session.query: a statement
        # prepared (or queried) twice reuses the cached parse, analysis,
        # plan and route — Parameter slots live in the shared analyzed
        # expressions, so rebinding works identically on a cached entry.
        entry = session._compile_statement(sql, placement=placement, engine=engine)
        if isinstance(entry.statement, CreateView):
            raise QueryError("CREATE VIEW cannot be prepared; run it directly", sql=sql)
        self._analyzed: AnalyzedQuery | AnalyzedRecursive = entry.analyzed
        self._plan = entry.plan
        self._route = entry.route
        self._params = collect_parameters(self._expressions())
        self._schema = self._plan.schema

    @property
    def parameters(self) -> list[str]:
        """Declared parameter names, sorted."""
        return sorted(self._params)

    @property
    def route(self) -> str:
        """Backend this statement executes on ("stream"/"batch"/"distributed")."""
        return self._route

    @property
    def closed(self) -> bool:
        """True once the owning session closed; execute() then raises."""
        return self._invalidated

    def _invalidate(self) -> None:
        """Called by ``Session.close``: the engines this statement was
        planned against are stopping, so any later execute() must fail
        loudly instead of running against them."""
        self._invalidated = True

    def execute(self, **params: Any) -> Cursor:
        """Bind ``:name`` placeholders and run, returning a Cursor."""
        if self._invalidated:
            raise SessionClosedError(
                "prepared statement is invalid: its session was closed"
            )
        self.session._ensure_open()
        missing = sorted(set(self._params) - set(params))
        unknown = sorted(set(params) - set(self._params))
        if missing or unknown:
            problems = []
            if missing:
                problems.append(f"missing parameters: {', '.join(missing)}")
            if unknown:
                problems.append(f"unknown parameters: {', '.join(unknown)}")
            raise QueryError("; ".join(problems), sql=self.sql)
        if self._route == "batch":
            return self._execute_batch(params)
        return self._execute_continuous(params)

    def _execute_batch(self, params: dict[str, Any]) -> Cursor:
        # Rebind the shared slots; the plan (and the compiled closures
        # memoized on its nodes) is reused as-is.
        for name, occurrences in self._params.items():
            for parameter in occurrences:
                parameter.bind(params[name])
        try:
            rows = self.session._evaluate(self._plan)
        finally:
            for occurrences in self._params.values():
                for parameter in occurrences:
                    parameter.unbind()
        return Cursor._materialized(self.session, rows, self._schema, self.sql)

    def _execute_continuous(self, params: dict[str, Any]) -> Cursor:
        analyzed = self._analyzed
        bound = _bind_query(analyzed.query, params) if params else analyzed.query
        rebound = AnalyzedQuery(
            query=bound,
            tables=analyzed.tables,
            output_schema=analyzed.output_schema,
            is_aggregate=analyzed.is_aggregate,
            scope=analyzed.scope,
        )
        with self.session._compiling(self.sql):
            plan = self.session.builder.build_select(rebound)
        return self.session._start(plan, self._route, self._placement, self.sql)

    def _expressions(self):
        if isinstance(self._analyzed, AnalyzedRecursive):
            queries = [
                self._analyzed.base.query,
                self._analyzed.step.query,
                self._analyzed.main.query,
            ]
        else:
            queries = [self._analyzed.query]
        return [expr for query in queries for expr in query.expressions()]

    def __repr__(self) -> str:
        names = ", ".join(self.parameters) or "-"
        return f"<PreparedStatement route={self._route} params=[{names}]>"


def _bind_query(query: SelectQuery, values: dict[str, Any]) -> SelectQuery:
    """A copy of ``query`` with parameters replaced by literal values."""
    sub = lambda e: substitute_parameters(e, values)  # noqa: E731
    return SelectQuery(
        items=tuple(SelectItem(sub(i.expr), i.alias) for i in query.items),
        tables=query.tables,
        where=sub(query.where) if query.where is not None else None,
        group_by=tuple(sub(e) for e in query.group_by),
        having=sub(query.having) if query.having is not None else None,
        order_by=tuple(OrderItem(sub(o.expr), o.ascending) for o in query.order_by),
        limit=query.limit,
        distinct=query.distinct,
        output=query.output,
    )
