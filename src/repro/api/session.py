"""The Session façade: one stable surface from SQL text to live results.

``connect(...)`` returns a :class:`Session` that owns the whole query
lifecycle the rest of the package implements in layers: lexing/parsing
(:mod:`repro.sql`), semantic analysis, plan construction
(:mod:`repro.plan`), and execution on whichever backend fits the
statement. Callers never import a parser, an analyzer or a builder —
they hand the session SQL text and get a :class:`~repro.api.Cursor`
back.

Routing rules (``session.query(text)``):

* ``CREATE VIEW``            → registered in the catalog; the cursor is
  complete immediately (``kind == "view"``).
* ``WITH RECURSIVE``         → one-shot fixpoint over the current stored
  tables (``kind == "batch"``).
* ``SELECT`` over stored tables only → one-shot bounded evaluation
  (``kind == "batch"``; rows are materialized at call time). A bounded
  query runs on the same operator pipelines as a continuous one: the
  stored tables are a stream that ends
  (:func:`repro.stream.batch.evaluate`).
* ``SELECT`` scanning a **sensor-hosted** source (on a session with
  sensor capability — ``connect(network=...)`` or an injected
  ``sensor_engine``) → the **federated** backend (``kind ==
  "federated"``): the message-cost optimizer partitions the plan,
  pushes filters / periodic collection / key-covering aggregation
  in-network, and compiles the residual onto the stream backend with
  the fragments' outputs arriving as RemoteSource feeds.
* any other ``SELECT``       → continuous query on the session's stream
  backend (``kind == "stream"``): one
  :class:`~repro.stream.engine.StreamEngine`, or — with
  ``connect(shards=N)`` — a partition-parallel
  :class:`~repro.stream.sharded.ShardedStreamEngine` pool behind the
  identical surface. The federated backend's residual runs on this
  same delegate, so federation composes with sharding.
* ``placement=...`` (or ``engine="distributed"``) → operators placed
  across the LAN-simulated :class:`DistributedStreamEngine`
  (``kind == "distributed"``; requires ``connect(nodes=[...])``).

Each route is served by an :class:`~repro.api.backends.ExecutionBackend`
peer (see :mod:`repro.api.backends`); ``Session._route`` only picks the
backend name, and the backend compiles-and-runs the plan.

``engine="stream" | "batch" | "distributed" | "federated"`` overrides
the automatic choice. Every failure surfaces as :class:`~repro.errors.QueryError`
(compile-time, with source position when the parser provides one),
:class:`~repro.errors.SourceError` (attach/detach/ingest) or
:class:`~repro.errors.SessionClosedError` — all
:class:`~repro.errors.AspenError` subclasses.
"""

from __future__ import annotations

import warnings
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.analysis import (
    PlanAnalysisWarning,
    analyze_plan,
    explain_diagnostics,
)
from repro.catalog import Catalog, SourceKind
from repro.data.tuples import Row
from repro.errors import (
    AnalysisError,
    AspenError,
    CatalogError,
    ExecutionError,
    OptimizerError,
    ParseError,
    PlanError,
    QueryError,
    SchemaError,
    SessionClosedError,
    SourceError,
)
from repro.plan import PlanBuilder
from repro.plan.builder import RecursivePlan
from repro.plan.logical import LogicalOp, Output, RemoteSource, Scan
from repro.runtime import Simulator
from repro.sql.analyzer import Analyzer
from repro.sql.ast import CreateView, RecursiveQuery, SelectQuery
from repro.sql.expressions import collect_parameters
from repro.sql.lexer import tokenize
from repro.sql.normalize import scan_sql
from repro.sql.parser import parse
from repro.stream.batch import BoundedPipeline, evaluate, fixpoint
from repro.stream.engine import StreamEngine, counted
from repro.stream.multiplex import CachedStatement, PlanCache
from repro.wrappers.base import Punctuator

from repro.api.cursor import Cursor, PreparedStatement


def connect(
    *,
    catalog: Catalog | None = None,
    simulator: Simulator | None = None,
    engine: StreamEngine | None = None,
    sensor_engine: Any | None = None,
    network: Any | None = None,
    nodes: Sequence[str] | None = None,
    deliver: Any | None = None,
    seed: int = 0,
    shards: int = 1,
    workers: str = "inline",
    checkpoint_interval: float | None = None,
    share_plans: bool = True,
    analysis: str = "warn",
) -> "Session":
    """Open a :class:`Session`.

    With no arguments a fresh catalog, simulator and stream engine are
    created. Existing components can be injected (the SmartCIS app binds
    a session over the engines it already assembled). ``nodes`` enables
    distributed routing; ``network`` (a ``SensorNetwork``) enables
    :class:`~repro.api.SensorSource` attachments.

    ``shards=N`` (N > 1) replaces the single stream engine with a
    partition-parallel pool of N engines: partition-safe continuous
    queries run one replica per shard with merged results, rows are
    hash-partitioned by each source's declared key
    (``StreamSource(partition_by=...)``; round-robin otherwise), and
    everything else transparently falls back to one designated engine.
    The Session surface — ``query``/``push``/``push_many``/``Cursor`` —
    is unchanged.

    ``workers="process"`` (with ``shards=N``, N > 1) runs each shard in
    its own OS process for true multi-core ingest: partition-safe
    queries ship as SQL text to worker processes that recompile them
    locally, rows travel as value-tuple batches over bounded queues,
    and the parent keeps the merge coordinator — results are
    byte-identical to the in-process pool. When process workers cannot
    run (no usable multiprocessing start method, or ``shards=1``) the
    session degrades to the in-process pool and records an ``RA313``
    info diagnostic, surfaced through ``session.explain``. The default
    ``workers="inline"`` is the in-process pool.

    ``checkpoint_interval=W`` (watermark units) attaches a
    :class:`~repro.stream.checkpoint.CheckpointCoordinator` to the
    stream engine (or sharded pool): operator state is snapshotted at
    punctuation-aligned barriers every ``W`` of watermark progress, and
    a failed engine — ``repro.runtime.faults.kill_shard``, or a real
    crash in an embedding — is restored from the latest barrier plus a
    replay of the suffix of ingested elements (and admissions) since it,
    by one recovery routine that serves a single engine and each host
    of a pool alike. A barrier holds operator state and counts, never
    results: every cursor keeps its sink through the failure, and what
    the replay derives again is skipped, so ``results()`` and
    subscriptions read as if nothing had failed (a single engine's
    ``session.checkpointer.recover()`` returns the cursors' own
    handles). That holds for a cursor opened since the barrier too: its
    query starts again where the replay reaches its admission, so it
    reads neither rows from before it opened nor any result twice. A
    new process restored from a ``FileCheckpointStore`` starts new
    sinks that read from the barrier on. The coordinator is exposed as
    ``session.checkpointer``.

    ``share_plans`` (default True) turns on standing-query multiplexing
    on stream engines this session *builds*: continuous queries with a
    structurally identical plan — or a common scan/filter/aggregate
    prefix — execute one shared operator chain fanned out to per-query
    sinks (see :mod:`repro.stream.multiplex`), and repeated SQL text is
    served from a normalized-text plan cache (``PlanCache.CAPACITY``
    entries, least recently used evicted) that skips
    lex/parse/analyze/build on a hit.
    ``share_plans=False`` restores fully private per-query pipelines
    (the cache stays on — it never changes semantics, only compile
    cost). An *injected* engine keeps its own ``share_plans`` setting.

    ``analysis`` controls admission-time static analysis
    (:func:`repro.analysis.analyze_plan`: typed-plan inference,
    unbounded-state detection, progress soundness). ``"warn"`` (the
    default) records the verdict — available via ``session.explain``
    and the plan cache — and surfaces error-severity findings as
    :class:`~repro.analysis.PlanAnalysisWarning` Python warnings;
    ``"strict"`` turns them into :class:`~repro.errors.QueryError`
    before the engine sees a row; ``"off"`` skips analysis entirely.
    The verdict is cached with the compiled plan, so warm admissions
    pay nothing (``session.stats()["analysis"]`` counts runs vs hits).
    """
    return Session(
        catalog=catalog,
        simulator=simulator,
        engine=engine,
        sensor_engine=sensor_engine,
        network=network,
        nodes=nodes,
        deliver=deliver,
        seed=seed,
        shards=shards,
        workers=workers,
        checkpoint_interval=checkpoint_interval,
        share_plans=share_plans,
        analysis=analysis,
    )


class Session:
    """A connection-like façade over the ASPEN engines. See :func:`connect`."""

    def __init__(
        self,
        *,
        catalog: Catalog | None = None,
        simulator: Simulator | None = None,
        engine: StreamEngine | None = None,
        sensor_engine: Any | None = None,
        network: Any | None = None,
        nodes: Sequence[str] | None = None,
        deliver: Any | None = None,
        seed: int = 0,
        shards: int = 1,
        workers: str = "inline",
        checkpoint_interval: float | None = None,
        share_plans: bool = True,
        analysis: str = "warn",
    ):
        from repro.api.backends import (
            BatchBackend,
            DistributedBackend,
            FederatedBackend,
            ProcessShardBackend,
            ShardedStreamBackend,
            StreamBackend,
        )

        self.catalog = catalog if catalog is not None else Catalog()
        self.simulator = simulator if simulator is not None else Simulator(seed)
        self._deliver = deliver
        self._network = network
        self._sensor_engine = sensor_engine
        self._nodes = list(nodes) if nodes else []
        self._cursors: list[Cursor] = []  # open stream cursors
        self._distributed_cursors: list[Cursor] = []  # receive push forwards
        self._attachments: dict[str, Any] = {}  # name.lower() -> adapter
        self._attach_order: list[str] = []
        self._punctuators: list[Punctuator] = []
        self._statements: "weakref.WeakSet" = weakref.WeakSet()
        self._closed = False
        self._plan_cache = PlanCache()
        if analysis not in ("off", "warn", "strict"):
            raise QueryError(
                f"unknown analysis mode {analysis!r}; "
                "expected 'off', 'warn' or 'strict'"
            )
        self._analysis_mode = analysis
        #: Static-analysis observability: fresh runs, verdicts served
        #: from the plan cache, and compiles skipped under analysis="off".
        self._analysis_counters = {"runs": 0, "hits": 0, "skipped": 0}
        #: What compiled beside the stream engine — bounded evaluations
        #: (:meth:`_bounded`) and federated fragments' deployments —
        #: added to the stream engine's counts in ``stats()["compile"]``.
        self._compile_counts = {"generated": 0, "fallbacks": 0}
        if workers not in ("inline", "process"):
            raise QueryError(
                f"unknown workers mode {workers!r}; expected 'inline' or 'process'"
            )
        #: Session-level degradation diagnostics (e.g. RA313: process
        #: workers requested but unavailable), appended to every
        #: ``session.explain`` report.
        self._degradations: list[Any] = []
        if shards > 1:
            if engine is not None:
                raise QueryError(
                    "connect(shards=...) builds its own engine pool; "
                    "an injected engine cannot be sharded"
                )
            stream_backend: Any = None
            if workers == "process":
                from repro.analysis.diagnostics import INFO, diag
                from repro.stream.procshard import usable_start_method

                method = usable_start_method()
                if method is None:
                    self._degradations.append(
                        diag(
                            "RA313",
                            INFO,
                            "workers='process' requested but no usable "
                            "multiprocessing start method exists on this "
                            "platform; running the in-process shard pool",
                            hint="results are identical; only throughput differs",
                        )
                    )
                else:
                    try:
                        stream_backend = ProcessShardBackend(
                            self, shards, share_plans, method
                        )
                    except OSError as exc:
                        self._degradations.append(
                            diag(
                                "RA313",
                                INFO,
                                "workers='process' could not launch worker "
                                f"processes ({exc}); running the in-process "
                                "shard pool",
                                hint="results are identical; only throughput differs",
                            )
                        )
            if stream_backend is None:
                stream_backend = ShardedStreamBackend(self, shards, share_plans)
        else:
            if workers == "process":
                from repro.analysis.diagnostics import INFO, diag

                self._degradations.append(
                    diag(
                        "RA313",
                        INFO,
                        "workers='process' needs shards > 1; a single shard "
                        "runs in-process",
                        hint="connect(shards=N, workers='process') with N > 1",
                    )
                )
            stream_backend = StreamBackend(self, engine, share_plans)
        #: Routing key -> ExecutionBackend peer. The "stream" slot holds
        #: either the single-engine or the sharded backend; the
        #: federated backend delegates its residual plans to that same
        #: slot, and everything downstream of _route is backend-agnostic.
        self._backends: dict[str, Any] = {
            "stream": stream_backend,
            "batch": BatchBackend(self),
            "distributed": DistributedBackend(self, self._nodes),
            "federated": FederatedBackend(self, stream_backend),
        }
        self.engine = stream_backend.engine
        #: Recovery coordinator (None unless connect(checkpoint_interval=...)).
        self.checkpointer = None
        if checkpoint_interval is not None:
            from repro.stream.checkpoint import CheckpointCoordinator

            self.checkpointer = CheckpointCoordinator(
                self.engine, interval=checkpoint_interval
            )
        self.builder = PlanBuilder(self.catalog)
        self.analyzer = Analyzer(self.catalog)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the session: invalidate prepared statements, stop every
        open cursor, detach every source (stopping its wrapper / sensor
        collection), stop owned punctuators, and close every execution
        backend. Idempotent."""
        if self._closed:
            return
        self._closed = True
        # Invalidate first: an in-flight PreparedStatement must raise
        # SessionClosedError on its next execute() rather than compile
        # and run against engines this close() is about to stop.
        for statement in list(self._statements):
            statement._invalidate()
        for cursor in list(self._cursors) + list(self._distributed_cursors):
            cursor.close()
        for name in reversed(self._attach_order):
            adapter = self._attachments.pop(name, None)
            if adapter is None:
                continue
            try:
                adapter.detach(self)
            except Exception:
                # Shutdown must reach every adapter and the punctuators;
                # one failing detach (of any exception type) must not
                # leave the rest of the runtime running.
                pass
        self._attach_order.clear()
        for punctuator in self._punctuators:
            punctuator.stop()
        self._punctuators.clear()
        for backend in self._backends.values():
            backend.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise SessionClosedError("session is closed")

    # ------------------------------------------------------------------
    # Compilation (SQL text -> plan), with the QueryError funnel
    # ------------------------------------------------------------------
    @contextmanager
    def _compiling(self, sql: str):
        """Translate front-end failures into QueryError with position."""
        try:
            yield
        except ParseError as exc:
            raise QueryError(str(exc), line=exc.line, column=exc.column, sql=sql) from exc
        except (AnalysisError, CatalogError, PlanError, OptimizerError) as exc:
            raise QueryError(str(exc), sql=sql) from exc

    def _parse(self, sql: str, tokens: list | None = None):
        with self._compiling(sql):
            return parse(sql if tokens is None else tokens)

    def _compile_statement(
        self,
        sql: str,
        *,
        placement: Any | None = None,
        engine: str | None = None,
    ) -> CachedStatement:
        """SQL text -> :class:`CachedStatement`, memoized in the plan cache.

        The one front-end funnel behind both ``query()`` and
        ``prepare()``: normalize the text, and on a cache hit skip
        lexing, parsing, analysis, plan construction *and* routing —
        the entry carries the statement, analyzed form, plan and route.
        Entries are keyed on the normalized text and stamped with the
        catalog's schema epoch, so CREATE VIEW / attach / detach /
        drop_table (each bumps the epoch) invalidate every plan
        compiled against the old catalog.

        Not every call is cacheable: ``placement``/``engine`` overrides
        bake a routing decision into the entry that the default path
        must not inherit, so overridden calls compile fresh and are
        never stored. CREATE VIEW is returned uncompiled (``plan=None``,
        ``route="view"``) and never cached — running it mutates the
        catalog, and the two callers reject or handle it differently.
        """
        cacheable = placement is None and engine is None
        tokens = None
        if cacheable:
            # Inline rather than under ``_compiling``: a hit enters no
            # context manager. The lexer raises ParseError alone. Text
            # the memo has not seen comes with its tokens, which the
            # parse below reads instead of scanning the text again.
            try:
                key, tokens = scan_sql(sql)
            except ParseError as exc:
                raise QueryError(
                    str(exc), line=exc.line, column=exc.column, sql=sql
                ) from exc
            entry = self._plan_cache.lookup(key, self.catalog.schema_epoch)
            if entry is not None:
                self._analyze_entry(entry, sql, cached=True)
                return entry
        statement = self._parse(sql, tokens)
        parameters = tuple(sorted(_statement_parameter_names(statement)))
        if isinstance(statement, CreateView):
            return CachedStatement(
                statement, None, None, "view", parameters, self.catalog.schema_epoch
            )
        with self._compiling(sql):
            if isinstance(statement, RecursiveQuery):
                if engine not in (None, "batch") or placement is not None:
                    raise QueryError(
                        "WITH RECURSIVE always evaluates on the batch engine; "
                        f"engine={engine!r}, placement={placement!r} cannot apply",
                        sql=sql,
                    )
                analyzed: Any = self.analyzer.analyze_recursive(statement)
                plan: Any = self.builder.build_recursive(analyzed)
                route = "batch"
            elif isinstance(statement, SelectQuery):
                analyzed = self.analyzer.analyze_select(statement)
                plan = self.builder.build_select(analyzed)
                route = self._route(plan, placement, engine, sql)
            else:
                raise QueryError(
                    f"unsupported statement {type(statement).__name__}", sql=sql
                )
        entry = CachedStatement(
            statement, analyzed, plan, route, parameters, self.catalog.schema_epoch
        )
        if cacheable:
            self._plan_cache.store(key, entry)
        self._analyze_entry(entry, sql, cached=False)
        return entry

    def _analyze_entry(self, entry: CachedStatement, sql: str, *, cached: bool) -> None:
        """Run (or reuse) static analysis for one compiled statement.

        The verdict lives on the cache entry, so a warm admission costs
        one attribute read. Enforcement runs on every admission — a
        strict session must reject an unbounded plan whether or not the
        compile was served from cache. Stored before enforcement: the
        compile itself is valid, and the cached verdict is what makes
        the *next* strict rejection free.
        """
        if self._analysis_mode == "off":
            self._analysis_counters["skipped"] += 1
            return
        report = entry.analysis
        if report is None:
            if entry.plan is None:
                return  # CREATE VIEW: nothing to analyze until queried
            report = analyze_plan(entry.plan)
            entry.analysis = report
            self._analysis_counters["runs"] += 1
        elif cached:
            self._analysis_counters["hits"] += 1
        if report.ok:
            return
        rendered = "; ".join(d.render() for d in report.errors)
        if self._analysis_mode == "strict":
            raise QueryError(f"plan analysis failed: {rendered}", sql=sql)
        warnings.warn(rendered, PlanAnalysisWarning, stacklevel=4)

    def plan(self, sql: str) -> LogicalOp | RecursivePlan:
        """Compile SQL text to a logical plan without executing it.

        The EXPLAIN building block: the federated optimizer (or any other
        planner layered on top) consumes the returned plan.
        """
        self._ensure_open()
        with self._compiling(sql):
            return self.builder.build_sql(sql)

    def explain(self, sql: str):
        """Partition a SELECT through the federated optimizer without
        executing it; returns the costed
        :class:`~repro.core.federated.FederatedPlan` (fragments, stream
        residual, every alternative considered), with ``diagnostics``
        populated: the plan's static-analysis report plus the unified
        eligibility explanations — why the plan would fall back to one
        shard engine (``RA3xx``, sharded sessions), decline subplan
        sharing (``RA4xx``), or ship sensor samples raw (``RA5xx``).

        Works on any session — plans without sensor-hosted scans come
        back whole as the stream residual with no fragments. Every
        failure funnels through :class:`~repro.errors.QueryError`:
        unparsable text carries the source position, and non-SELECT
        statements are rejected here — with the statement's source
        position, like ``query``/``prepare`` — rather than deep in the
        optimizer.
        """
        self._ensure_open()
        statement = self._parse(sql)
        if not isinstance(statement, SelectQuery):
            # The parse succeeded, so the statement's first token is
            # where the wrong statement kind begins.
            first = tokenize(sql)[0]
            raise QueryError(
                f"explain requires a SELECT statement, got "
                f"{type(statement).__name__}",
                line=first.line,
                column=first.column,
                sql=sql,
            )
        with self._compiling(sql):
            plan = self.builder.build_select(self.analyzer.analyze_select(statement))
            federated = self._backends["federated"].partition(plan)
        report = analyze_plan(plan)
        shard_keys = (
            dict(getattr(self.engine, "_keys", {})) if self.shards > 1 else None
        )
        federated.diagnostics = (
            list(report.diagnostics)
            + explain_diagnostics(plan, federated, shard_keys=shard_keys)
            + list(self._degradations)
        )
        return federated

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        sql: str,
        *,
        params: Mapping[str, Any] | None = None,
        placement: Any | None = None,
        engine: str | None = None,
    ) -> Cursor:
        """Compile and run one statement of Stream SQL text.

        ``params`` binds ``:name`` placeholders for this one execution
        (equivalent to ``prepare(sql).execute(**params)``). ``placement``
        routes a SELECT to the distributed engine (pass a
        :class:`~repro.stream.distributed.Placement` or ``"auto"``);
        ``engine`` overrides routing with ``"stream"``, ``"batch"``,
        ``"distributed"`` or ``"federated"``.
        """
        self._ensure_open()
        if params:
            return self.prepare(sql, placement=placement, engine=engine).execute(**params)
        entry = self._compile_statement(sql, placement=placement, engine=engine)
        statement = entry.statement
        if entry.parameters:
            # Reject at compile time: an unbound Parameter reaching a
            # running pipeline would raise mid-ingestion, poisoning
            # every other query on the same source.
            raise QueryError(
                f"statement has unbound parameters: {', '.join(entry.parameters)}; "
                "pass params=... or use prepare()",
                sql=sql,
            )
        if isinstance(statement, CreateView):
            if engine is not None or placement is not None:
                raise QueryError(
                    "CREATE VIEW only registers a definition; "
                    f"engine={engine!r}, placement={placement!r} cannot apply",
                    sql=sql,
                )
            with self._compiling(sql):
                analyzed = self.analyzer.analyze_create_view(statement)
            self.catalog.register_view(statement.name, statement.query)
            return Cursor._view(self, sql, statement.name, analyzed.output_schema)
        if isinstance(statement, RecursiveQuery):
            return Cursor._materialized(
                self, self._bounded(entry.plan)(), entry.plan.schema, sql
            )
        return self._start(entry.plan, entry.route, placement, sql)

    def prepare(
        self,
        sql: str,
        *,
        placement: Any | None = None,
        engine: str | None = None,
    ) -> PreparedStatement:
        """Compile once; execute many times with named parameters.

        ``session.prepare("select ... where t.temp > :limit").execute(limit=30)``
        """
        self._ensure_open()
        statement = PreparedStatement(self, sql, placement=placement, engine=engine)
        # Tracked weakly so close() can invalidate in-flight statements
        # without keeping every statement ever prepared alive.
        self._statements.add(statement)
        return statement

    # -- routing -------------------------------------------------------
    _ROUTES = ("stream", "batch", "distributed", "federated")

    def _route(
        self,
        plan: LogicalOp,
        placement: Any | None,
        engine: str | None,
        sql: str,
    ) -> str:
        if engine is not None:
            if engine not in self._ROUTES:
                raise QueryError(
                    f"unknown engine {engine!r}; expected one of "
                    f"{', '.join(repr(r) for r in self._ROUTES)}",
                    sql=sql,
                )
            if placement is not None and engine != "distributed":
                raise QueryError(
                    f"placement=... requires the distributed engine, not engine={engine!r}",
                    sql=sql,
                )
            route = engine
        elif placement is not None:
            route = "distributed"
        else:
            # OUTPUT TO DISPLAY needs the stream engine's deliver hook;
            # a bounded evaluation delivers to no display, so a
            # table-only SELECT with an OUTPUT clause still runs
            # continuous.
            if self._has_output(plan) or not self._is_table_only(plan):
                # Sensor-hosted scans go through the federated
                # optimizer when this session can actually deploy
                # in-network fragments; without sensor capability the
                # stream engine serves them as plain feeds, as before.
                if self._sensor_capable and self._has_sensor_scan(plan):
                    return "federated"
                return "stream"
            return "batch"
        if route == "batch":
            if self._has_output(plan):
                raise QueryError(
                    "OUTPUT TO DISPLAY requires the stream engine "
                    "(a one-shot evaluation has no display delivery)",
                    sql=sql,
                )
            if not self._is_table_only(plan):
                raise QueryError(
                    "engine='batch' requires every scanned source to be a stored table",
                    sql=sql,
                )
        return route

    @property
    def _sensor_capable(self) -> bool:
        """True when this session can deploy in-network fragments."""
        return self._sensor_engine is not None or self._network is not None

    @staticmethod
    def _has_sensor_scan(plan: LogicalOp) -> bool:
        from repro.catalog import EngineLocation

        return any(
            isinstance(node, Scan) and node.entry.location is EngineLocation.SENSOR
            for node in plan.walk()
        )

    @staticmethod
    def _has_output(plan: LogicalOp) -> bool:
        return any(isinstance(node, Output) for node in plan.walk())

    @staticmethod
    def _is_table_only(plan: LogicalOp) -> bool:
        has_scan = False
        for node in plan.walk():
            if isinstance(node, RemoteSource):
                return False
            if isinstance(node, Scan):
                has_scan = True
                if node.entry.kind is not SourceKind.TABLE:
                    return False
        return has_scan

    # -- execution -----------------------------------------------------
    def backend(self, route: str) -> Any:
        """The :class:`~repro.api.backends.ExecutionBackend` serving a
        routing key ("stream", "batch", "distributed" or "federated")."""
        try:
            return self._backends[route]
        except KeyError:
            raise QueryError(
                f"unknown engine {route!r}; expected one of "
                f"{', '.join(repr(r) for r in self._ROUTES)}"
            ) from None

    def _start(
        self, plan: LogicalOp, route: str, placement: Any | None, sql: str
    ) -> Cursor:
        return self.backend(route).compile_and_run(plan, sql, placement=placement)

    def _bounded(self, plan: LogicalOp | RecursivePlan) -> Callable[[], list[Row]]:
        """``plan`` compiled once into a call that evaluates it over the
        current stored tables (a recursive plan's fixpoint compiles its
        pipelines per call). What it compiles, and any fallback, counts
        in ``stats()["compile"]`` as a continuous query's does."""
        if isinstance(plan, RecursivePlan):
            return lambda: counted(self._compile_counts, self._fixpoint, plan)
        pipeline = counted(self._compile_counts, BoundedPipeline, plan)
        return lambda: pipeline(self._scanned_tables(plan))

    def _fixpoint(self, plan: RecursivePlan) -> list[Row]:
        tables = self._scanned_tables(plan)
        tables[plan.recursive.name] = fixpoint(plan.recursive, tables)
        return evaluate(plan.main, tables)

    def _scanned_tables(self, plan: LogicalOp | RecursivePlan) -> dict[str, list[Row]]:
        """Current rows of just the stored tables ``plan`` scans.

        Copying only the scanned tables keeps repeated prepared-batch
        executions O(rows actually read), not O(all stored rows).
        Non-table scans are omitted, so the evaluator still raises its
        usual "no table provided" error for them.
        """
        if isinstance(plan, RecursivePlan):
            nodes = list(plan.recursive.walk()) + list(plan.main.walk())
        else:
            nodes = list(plan.walk())
        names = {
            node.entry.name
            for node in nodes
            if isinstance(node, Scan) and node.entry.kind is SourceKind.TABLE
        }
        return {name: self.engine.table_rows(name) for name in names}

    @property
    def distributed(self):
        """The session's DistributedStreamEngine (built on first use)."""
        self._ensure_open()
        return self._backends["distributed"].engine

    @property
    def shards(self) -> int:
        """How many stream shards serve this session (1 = unsharded)."""
        return getattr(self._backends["stream"], "shards", 1)

    def stats(self) -> dict:
        """Multiplexing observability counters.

        ``{"plan_cache": {...}, "sharing": {...}, "compile": {...},
        "analysis": {...}, "schema_epoch": n}`` — the plan cache's
        size/hits/misses/evictions/invalidations, the stream engine's
        shared-subplan counters (live chains, total fan-out, chains
        created/attached/detached/torn down, declined admissions; summed
        across every shard and the fallback engine under
        ``connect(shards=N)``), its codegen counters (whole functions
        ``generated``, and whole-function ``fallbacks`` to the
        interpreter — counted once per function at admission, never per
        row, summed the same way (a kernel a pool's shards share counts
        once: it was generated once), plus what each bounded evaluation and
        each federated fragment's deployment compiled; anything but 0
        fallbacks means a plan is running interpreted), the
        static-analysis counters (``runs``:
        fresh analyses on cache-miss compiles, ``hits``: cache hits that
        reused the stored verdict, ``skipped``: compiles under
        ``analysis="off"``, plus the session's ``mode``), and the
        catalog schema epoch the cache keys against.

        Under ``connect(shards=N)`` a ``"pool"`` entry carries the
        pool's own ``engine.stats()`` (elements routed, owner-cache
        counters, and the shuffle's ``exchange`` counters — identical
        whichever way the shards are reached); under
        ``connect(workers="process")`` an extra ``"workers"`` entry
        reports the process-transport counters: worker count,
        queue-depth high-water mark, batches flushed by size / timeout /
        barrier, rows and batches shipped, and worker restarts.

        A sensor-capable session (``connect(network=...)`` or an injected
        sensor engine) adds ``"sensor"``: the records its live in-network
        deployments put on the radio (``records_sent``) and those that
        counted nowhere (``records_lost``: unroutable, dropped by the
        radio, or late for an aggregation parent's slot), summed.
        """
        self._ensure_open()
        out = {
            "plan_cache": self._plan_cache.stats(),
            "sharing": self.engine.sharing_stats(),
            "compile": {
                key: value + self._compile_counts[key]
                for key, value in self.engine.compile_stats().items()
            },
            "analysis": dict(self._analysis_counters, mode=self._analysis_mode),
            "schema_epoch": self.catalog.schema_epoch,
        }
        if hasattr(self.engine, "shard_count"):
            out["pool"] = self.engine.stats()
            workers = self.engine.worker_stats()
            if workers:
                out["workers"] = workers
        if self._sensor_capable:
            deployed = self.sensor_engine.deployed
            out["sensor"] = {
                key: sum(getattr(d, key) for d in deployed)
                for key in ("records_sent", "records_lost")
            }
        return out

    def _forget_cursor(self, cursor: Cursor) -> None:
        for registry in (self._cursors, self._distributed_cursors):
            try:
                registry.remove(cursor)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def push(
        self,
        source: str,
        row: Row | Mapping[str, Any],
        timestamp: float | None = None,
    ) -> None:
        """Push one element of ``source`` into every query reading it —
        stream-engine queries and open distributed cursors alike."""
        if self._closed:
            raise SessionClosedError("session is closed")
        ts = self.simulator.now if timestamp is None else timestamp
        try:
            self.engine.push(source, row, ts)
        except (CatalogError, SchemaError, ExecutionError) as exc:
            raise SourceError(str(exc)) from exc
        if self._distributed_cursors:
            for cursor in self._distributed_cursors:
                cursor._query.push(source, row, ts)

    def push_many(
        self,
        source: str,
        rows: Sequence[Row | Mapping[str, Any]],
        timestamps: float | Sequence[float] | None = None,
    ) -> int:
        """Batched ingestion (see :meth:`StreamEngine.push_many`).

        The batch reaches the engine's vectorized ``push_batch`` path:
        each query's operator pipeline traverses the whole batch with
        one dispatch per operator instead of one per element. Like
        :meth:`push`, ``timestamps`` defaults to the simulator's current
        time — switching between the two never changes stamps.
        """
        self._ensure_open()
        if timestamps is None:
            timestamps = self.simulator.now
        # Materialize up front: generators would otherwise be consumed
        # by the engine before the distributed forwarding below (and a
        # generator of rows has no len()). Lists pass through uncopied.
        if not isinstance(rows, list):
            rows = list(rows)
        if not isinstance(timestamps, (int, float, list)):
            timestamps = list(timestamps)
        try:
            count = self.engine.push_many(source, rows, timestamps)
        except (CatalogError, SchemaError, ExecutionError) as exc:
            raise SourceError(str(exc)) from exc
        if self._distributed_cursors:
            stamps = (
                [float(timestamps)] * len(rows)
                if isinstance(timestamps, (int, float))
                else list(timestamps)
            )
            for cursor in self._distributed_cursors:
                for row, stamp in zip(rows, stamps):
                    cursor._query.push(source, row, stamp)
        return count

    def punctuate(self, watermark: float, sources: list[str] | None = None) -> None:
        """Advance watermarks on stream-engine queries and distributed
        cursors (windows close, reports fire)."""
        self._ensure_open()
        self.engine.punctuate(watermark, sources)
        for cursor in self._distributed_cursors:
            cursor._query.punctuate(watermark, sources)

    def load(self, name: str, rows: Iterable[Row | Mapping[str, Any]]) -> int:
        """Load rows into a registered stored table (and update the
        catalog's cardinality statistics)."""
        from repro.wrappers.database import load_table

        self._ensure_open()
        try:
            return load_table(self.engine, self.catalog, name, list(rows))
        except (CatalogError, ExecutionError) as exc:
            raise SourceError(str(exc)) from exc

    def table_rows(self, name: str) -> list[Row]:
        """Current contents of a stored table."""
        self._ensure_open()
        return self.engine.table_rows(name)

    # ------------------------------------------------------------------
    # Sources
    # ------------------------------------------------------------------
    def attach(self, source: Any) -> Any:
        """Attach one source behind the :class:`~repro.api.SourceAdapter`
        protocol: catalog registration, engine routing and wrapper /
        collection start happen in this one call.

        Accepts a SourceAdapter, or a bare
        :class:`~repro.wrappers.base.Wrapper` /
        :class:`~repro.sensor.SensorRelation` which is wrapped in the
        matching adapter. Returns the adapter (keyed by ``name`` for
        :meth:`detach`)."""
        self._ensure_open()
        adapter = self._coerce_adapter(source)
        key = adapter.name.lower()
        if key in self._attachments:
            raise SourceError(f"source {adapter.name!r} is already attached")
        try:
            adapter.attach(self)
        except BaseException as exc:
            # Roll back whatever the adapter managed to register before
            # failing — a half-attached source would be unreachable by
            # both retry and close() otherwise.
            try:
                adapter.detach(self)
            except Exception:
                pass
            if isinstance(exc, SourceError) or not isinstance(exc, AspenError):
                raise  # non-Aspen exceptions are bugs; surface them raw
            raise SourceError(f"attaching {adapter.name!r} failed: {exc}") from exc
        self._attachments[key] = adapter
        self._attach_order.append(key)
        return adapter

    def detach(self, name: str) -> None:
        """Symmetric inverse of :meth:`attach`: stops the source's
        runtime (wrapper poll loop, sensor collection), drops loaded
        rows and removes catalog registrations the attach created."""
        self._ensure_open()
        key = name.lower()
        adapter = self._attachments.get(key)
        if adapter is None:
            raise SourceError(f"no attached source named {name!r}")
        try:
            adapter.detach(self)
        except SourceError:
            raise
        except AspenError as exc:
            raise SourceError(f"detaching {name!r} failed: {exc}") from exc
        # Deregister only after a successful detach: a failing detach
        # leaves the source attached (and its runtime tracked) so close()
        # or a retry can still stop it.
        del self._attachments[key]
        self._attach_order.remove(key)

    def attached(self) -> list[str]:
        """Names of currently attached sources, in attach order."""
        return [self._attachments[key].name for key in self._attach_order]

    def _coerce_adapter(self, source: Any):
        from repro.api.sources import SensorSource, WrapperSource, _is_adapter
        from repro.sensor import SensorRelation
        from repro.wrappers.base import Wrapper

        if _is_adapter(source):
            return source
        if isinstance(source, Wrapper):
            return WrapperSource(wrapper=source)
        if isinstance(source, SensorRelation):
            return SensorSource(source)
        raise SourceError(
            f"cannot attach {type(source).__name__}; expected a SourceAdapter, "
            "Wrapper or SensorRelation"
        )

    def add_punctuator(self, period: float = 1.0, slack: float = 0.0) -> Punctuator:
        """Start a periodic watermark emitter owned by this session
        (stopped on :meth:`close`)."""
        self._ensure_open()
        punctuator = Punctuator(self.engine, self.simulator, period=period, slack=slack)
        punctuator.start()
        self._punctuators.append(punctuator)
        return punctuator

    # -- sensor integration --------------------------------------------
    @property
    def sensor_engine(self):
        """The session's SensorEngine (built on first use; requires
        ``connect(network=...)`` unless one was injected)."""
        if self._sensor_engine is None:
            if self._network is None:
                raise SourceError(
                    "sensor sources require connect(network=...) or an injected "
                    "sensor_engine"
                )
            from repro.sensor import SensorEngine

            self._sensor_engine = SensorEngine(
                self._network, on_result=self._on_sensor_result
            )
        return self._sensor_engine

    def _on_sensor_result(self, name: str, values: dict[str, Any], time: float) -> None:
        if self.catalog.has_source(name):
            self.engine.push(name, values, time)
        else:
            self.engine.push_remote(name, values, time)


def _statement_parameter_names(statement) -> set[str]:
    """Names of every ``:parameter`` occurring in a parsed statement."""
    if isinstance(statement, SelectQuery):
        queries = [statement]
    elif isinstance(statement, CreateView):
        queries = [statement.query]
    elif isinstance(statement, RecursiveQuery):
        queries = [statement.base, statement.step, statement.main]
    else:
        return set()
    exprs = [expr for query in queries for expr in query.expressions()]
    return set(collect_parameters(exprs))
