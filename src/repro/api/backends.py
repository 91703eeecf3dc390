"""Execution backends: the peers behind ``Session.query`` routing.

Until this layer existed, the Session's routing was an if/elif chain
that knew how to start a query on each engine inline. An
:class:`ExecutionBackend` makes each path a first-class peer with one
contract — ``compile_and_run(plan, sql, placement=...) -> Cursor`` plus
a ``close()`` lifecycle hook — so new execution substrates (the sharded
pool today; process pools or remote fleets tomorrow) plug in behind the
unchanged Session surface.

The installed backends:

* :class:`StreamBackend` — continuous queries on the session's single
  :class:`~repro.stream.engine.StreamEngine`.
* :class:`ShardedStreamBackend` — continuous queries on a
  :class:`~repro.stream.sharded.ShardedStreamEngine` pool
  (``connect(shards=N)``): partition-safe plans run one replica per
  shard with merged results, everything else transparently falls back
  to the pool's designated engine. Same Cursor, same routing name
  (``"stream"``) — callers cannot tell except by throughput.
* :class:`ProcessShardBackend` — the pool with one worker *process*
  per shard (``connect(shards=N, workers="process")``): partition-safe
  plans ship as SQL text to worker processes for true multi-core
  ingest; everything else falls back exactly like the in-process pool.
* :class:`BatchBackend` — one-shot evaluation over stored tables.
* :class:`DistributedBackend` — operators placed across the simulated
  LAN (built lazily; requires ``connect(nodes=[...])``).
* :class:`FederatedBackend` — the paper's core: plans touching
  sensor-hosted sources are partitioned by the message-cost optimizer
  (:func:`~repro.sensor.optimizer.partition_plan`); the chosen
  fragments run *in-network* on the session's
  :class:`~repro.sensor.SensorEngine` and the residual compiles onto
  the **delegate** stream backend — the single engine, or the sharded
  pool under ``connect(shards=N)`` — with the fragments' outputs
  arriving as RemoteSource feeds.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Protocol, runtime_checkable

from repro.errors import AspenError, QueryError
from repro.plan.logical import LogicalOp
from repro.stream.engine import StreamEngine
from repro.stream.sharded import ShardedStreamEngine

from repro.api.cursor import Cursor


@runtime_checkable
class ExecutionBackend(Protocol):
    """Anything that can execute a compiled logical plan for a Session.

    ``name`` is the routing key ``Session._route`` resolves
    (``"stream"``, ``"batch"``, ``"distributed"``). ``compile_and_run``
    starts (or completes) the plan and returns the uniform
    :class:`~repro.api.Cursor`; ``close`` releases whatever runtime the
    backend owns and is always called by ``Session.close``.
    """

    name: str

    def compile_and_run(
        self, plan: LogicalOp, sql: str, *, placement: Any | None = None
    ) -> Cursor: ...

    def close(self) -> None: ...


class StreamBackend:
    """Continuous queries on one in-process stream engine."""

    name = "stream"

    def __init__(
        self,
        session,
        engine: StreamEngine | None = None,
        share_plans: bool = False,
    ):
        self._session = session
        self._owns_engine = engine is None
        # An injected engine keeps its own share_plans setting — it may
        # already host queries admitted under the opposite policy.
        self.engine = engine if engine is not None else StreamEngine(
            session.catalog, deliver=session._deliver, share_plans=share_plans
        )

    def compile_and_run(
        self, plan: LogicalOp, sql: str, *, placement: Any | None = None
    ) -> Cursor:
        handle = self.engine.execute(plan)
        cursor = Cursor._stream(self._session, sql, handle)
        self._session._cursors.append(cursor)
        return cursor

    def close(self) -> None:
        """Stop every query still running on an engine this backend
        built (cursors the session tracked are already stopped by
        ``Session.close``; an *injected* engine may host queries the
        session never started, so it is left untouched)."""
        if not self._owns_engine:
            return
        for handle in self.engine.running_queries:
            self.engine.stop(handle)


class ShardedStreamBackend(StreamBackend):
    """Partition-parallel continuous queries on an engine pool.

    Routing-compatible with :class:`StreamBackend` (both answer to
    ``"stream"``): the Session installs exactly one of them, chosen by
    ``connect(shards=...)``, and ``compile_and_run``/``close`` are the
    inherited single-engine implementations — the pool mirrors the
    engine surface, so only construction differs.
    """

    def __init__(self, session, shards: int, share_plans: bool = False):
        self._session = session
        self._owns_engine = True  # the pool is always ours to stop
        self.engine = ShardedStreamEngine(
            session.catalog,
            shards=shards,
            deliver=session._deliver,
            share_plans=share_plans,
        )

    @property
    def shards(self) -> int:
        return self.engine.shard_count


class ProcessShardBackend(ShardedStreamBackend):
    """Process-parallel continuous queries: one worker OS process per
    shard (``connect(shards=N, workers="process")``).

    The same pool as :class:`ShardedStreamBackend`, constructed over
    the framed-queue channel; the only behavioral addition is the
    *shippability* gate: workers receive plan **text**
    (never pickled plan objects), so a plan is shipped only when
    recompiling the query's SQL reproduces it exactly. Federated
    residuals, prepared statements with bound parameters and recursive
    plans fail that check and run on the pool's in-parent fallback
    engine — same results, no process parallelism.
    """

    def __init__(
        self,
        session,
        shards: int,
        share_plans: bool = False,
        start_method: str | None = None,
    ):
        from repro.stream.procshard import ProcessShardEngine

        self._session = session
        self._owns_engine = True
        self.engine = ProcessShardEngine(
            session.catalog,
            shards=shards,
            deliver=session._deliver,
            share_plans=share_plans,
            start_method=start_method,
        )

    def compile_and_run(
        self, plan: LogicalOp, sql: str, *, placement: Any | None = None
    ) -> Cursor:
        handle = self.engine.execute(plan, sql=self._shippable_sql(plan, sql))
        cursor = Cursor._stream(self._session, sql, handle)
        self._session._cursors.append(cursor)
        return cursor

    def _shippable_sql(self, plan: LogicalOp, sql: str) -> str | None:
        """The SQL text to ship to workers, or None when ``plan`` is not
        what ``sql`` compiles to (the plan was transformed after
        parsing — federated residual, bound parameters — or is not a
        plain streaming plan)."""
        if not sql:
            return None
        try:
            rebuilt = self._session.builder.build_sql(sql)
        except Exception:
            return None
        if not isinstance(rebuilt, LogicalOp) or not isinstance(plan, LogicalOp):
            return None
        return sql if rebuilt.explain() == plan.explain() else None

    def close(self) -> None:
        super().close()
        self.engine.shutdown()


class FederatedBackend:
    """Cross-engine queries partitioned by the message-cost optimizer.

    The one plan-partitioning implementation in the codebase: every
    SELECT routed here (automatically, when its scans include a
    sensor-hosted source; or explicitly via ``engine="federated"``)
    goes through :class:`~repro.core.federated.FederatedOptimizer` —
    filters, periodic collection and key-covering aggregation push
    in-network as sensor fragments, and the residual (joins against
    streams/tables, windows, ORDER BY/LIMIT) compiles onto the
    *delegate* stream backend. The delegate is whatever serves the
    session's ``"stream"`` route, so under ``connect(shards=N)`` the
    residual composes with the sharded pool: row-local residues over a
    fragment feed run one replica per shard (round-robin RemoteSource
    ingestion), everything else on the pool's designated engine.

    The returned cursor is the delegate's stream cursor promoted to
    ``kind == "federated"``: closing it (or ``Session.close``) stops
    the in-network fragment deployments along with the residual query.
    """

    name = "federated"

    #: Total tries (first attempt + retries) per fragment deployment.
    DEPLOY_ATTEMPTS = 3
    #: Base delay for repair-path redeploys (doubles per attempt).
    RETRY_BACKOFF = 0.5

    def __init__(self, session, delegate: StreamBackend):
        self._session = session
        self._delegate = delegate
        self._optimizer = None  # lazily built FederatedOptimizer
        #: Transient deployment failures retried away (observability).
        self.deploy_retries = 0
        #: Completed self-healing repairs: {"mote", "sql", "mode"} dicts.
        self.repairs: list[dict] = []
        self._repair_installed = False

    @property
    def delegate(self) -> StreamBackend:
        """The stream backend executing residual plans."""
        return self._delegate

    @property
    def engine(self):
        """The delegate's engine (single or sharded pool)."""
        return self._delegate.engine

    @property
    def optimizer(self):
        """The session's FederatedOptimizer (built on first use).

        Exposed so applications can install deployment knowledge —
        SmartCIS sets ``optimizer.sensor_optimizer.pairing_provider``
        for its in-network joins.
        """
        if self._optimizer is None:
            from repro.core.federated import FederatedOptimizer

            session = self._session
            network = session._network
            if network is None and session._sensor_engine is not None:
                network = session._sensor_engine.network
            self._optimizer = FederatedOptimizer(session.catalog, network)
        return self._optimizer

    def partition(self, plan: LogicalOp):
        """Partition ``plan`` without executing it (EXPLAIN); returns
        the :class:`~repro.core.federated.FederatedPlan`."""
        from repro.sensor.optimizer import partition_plan

        return partition_plan(plan, optimizer=self.optimizer)

    def compile_and_run(
        self, plan: LogicalOp, sql: str, *, placement: Any | None = None
    ) -> Cursor:
        if placement is not None:
            raise QueryError(
                "placement=... requires the distributed engine, "
                "not the federated optimizer",
                sql=sql,
            )
        with self._session._compiling(sql):
            federated = self.partition(plan)
        if federated.pushed and self._session._sensor_engine is None and (
            self._session._network is None
        ):
            raise QueryError(
                "federated execution needs in-network fragments deployed; "
                "connect(network=...) or inject a sensor_engine",
                sql=sql,
            )
        # Residual first (exactly like FederatedExecutor.execute): its
        # RemoteSource ports must exist before the first fragment
        # delivery, or early results would be dropped.
        cursor = self._delegate.compile_and_run(federated.stream_plan, sql)
        if not federated.pushed:
            # Nothing sensor-hosted: the delegate's plain stream cursor
            # is the whole execution.
            return cursor
        from repro.core.executor import FederatedExecutor

        executor = FederatedExecutor(self._session.sensor_engine, self.engine)
        deployments = []
        try:
            for fragment in federated.pushed:
                deployments.append(self._deploy_with_retry(executor, fragment))
        except BaseException as exc:
            # Roll back whatever started — a leaked deployment would
            # keep motes sampling and transmitting forever, and the
            # residual query would keep running against a feed that
            # will never be completed.
            for deployment in deployments:
                deployment.stop()
            cursor.close()
            if not isinstance(exc, AspenError):
                raise  # non-Aspen exceptions are bugs; surface them raw
            raise QueryError(
                f"deploying federated fragment failed: {exc}", sql=sql
            ) from exc
        cursor._promote_federated(federated, deployments)
        self._install_repair()
        return cursor

    # ------------------------------------------------------------------
    # Deployment retries and self-healing repair
    # ------------------------------------------------------------------
    def _deploy_with_retry(self, executor, fragment):
        """Deploy one fragment, absorbing transient failures.

        Up to ``DEPLOY_ATTEMPTS`` synchronous tries: a lost deployment
        acknowledgement (any :class:`AspenError`) is retried instead of
        rolling the whole federated query back. A *deterministic*
        failure still exhausts the attempts and re-raises the last
        error, so the caller's rollback path is unchanged for real
        planning bugs.
        """
        for attempt in range(self.DEPLOY_ATTEMPTS):
            try:
                return executor.deploy(fragment)
            except AspenError:
                if attempt + 1 >= self.DEPLOY_ATTEMPTS:
                    raise
                self.deploy_retries += 1

    def _install_repair(self) -> None:
        """Hang the self-healing hook on the sensor engine (once)."""
        if self._repair_installed:
            return
        self._session.sensor_engine.on_mote_death.append(self._on_mote_death)
        self._repair_installed = True

    def _on_mote_death(self, mote_id: int) -> None:
        """A mote died: route around the corpse and repair every open
        federated cursor against the degraded network."""
        sensor_engine = self._session.sensor_engine
        sensor_engine.network.rebuild_topology(include_dead=False)
        for cursor in [
            c
            for c in self._session._cursors
            if c.kind == "federated" and not c.closed
        ]:
            mode = self._repair(cursor)
            self.repairs.append({"mote": mote_id, "sql": cursor.sql, "mode": mode})

    def _repair(self, cursor) -> str:
        """Re-partition one federated cursor's plan against the degraded
        network and redeploy.

        Three outcomes, in decreasing order of luck:

        * ``"redeploy"`` — the new partitioning has the same fragment
          shape (kind + relations); fragments are redeployed under
          their *old* RemoteSource names, so the running residual (and
          all its accumulated window/join state) is untouched.
        * ``"replan"`` — the partitioning changed shape; the residual
          is restarted on the new stream plan, reusing the cursor's
          sink so results-so-far survive.
        * ``"absorb"`` — no in-network partition exists anymore; the
          original plan runs wholly on the stream delegate (sensor
          scans become plain feeds) and nothing stays in-network.
        """
        from repro.core.executor import FederatedExecutor

        old_plan = cursor.federated_plan
        old_fragments = list(old_plan.pushed)
        for deployment in cursor._deployments:
            deployment.stop()
        cursor._deployments = []

        try:
            federated = self.partition(old_plan.original)
        except AspenError:
            federated = None

        executor = FederatedExecutor(self._session.sensor_engine, self.engine)
        if federated is not None:
            matched = _match_fragments(old_fragments, federated.pushed)
            if matched is not None:
                # Same shape: keep the residual, redeploy each fragment
                # under its old feed name (RemoteSource ports bind by
                # fragment name, so deliveries keep flowing).
                for old_fragment, new_fragment in matched:
                    renamed = dataclasses.replace(new_fragment, name=old_fragment.name)
                    self._redeploy_with_backoff(executor, renamed, cursor)
                return "redeploy"
            # Shape changed: restart the residual on the new stream
            # plan, then deploy the new fragments.
            self._restart_residual(cursor, federated.stream_plan)
            cursor.federated_plan = federated
            for fragment in federated.pushed:
                self._redeploy_with_backoff(executor, fragment, cursor)
            return "replan"
        # No in-network partition survives the failure: absorb the
        # whole query into the stream delegate.
        self._restart_residual(cursor, old_plan.original)
        return "absorb"

    def _restart_residual(self, cursor, plan) -> None:
        """Swap the cursor's stream query for ``plan``, reusing its sink
        (results and subscriptions survive the restart)."""
        old_handle = cursor._handle
        old_handle.stop()
        cursor._handle = self.engine.execute(plan, sink=old_handle.sink)

    def _redeploy_with_backoff(self, executor, fragment, cursor, attempt: int = 0) -> None:
        """Repair-path deployment: failures reschedule on the simulator
        with exponential backoff instead of blocking the death event."""
        try:
            deployment = executor.deploy(fragment)
        except AspenError:
            if attempt + 1 >= self.DEPLOY_ATTEMPTS:
                return  # gave up; the residual runs degraded
            self.deploy_retries += 1
            self._session.simulator.schedule_in(
                self.RETRY_BACKOFF * (2 ** attempt),
                lambda: None
                if cursor.closed
                else self._redeploy_with_backoff(executor, fragment, cursor, attempt + 1),
            )
            return
        if cursor.closed:
            deployment.stop()
            return
        cursor._deployments.append(deployment)

    def close(self) -> None:
        """Nothing owned beyond the cursors: fragment deployments stop
        with their cursor (``Session.close`` closes every cursor before
        the backends), and the delegate closes through its own slot in
        the session's backend registry."""


def _match_fragments(old_fragments, new_fragments):
    """Pair old and new pushed fragments 1:1 by shape (deployment kind
    + relation set). Returns ``[(old, new), ...]`` covering both lists,
    or None when the partitioning changed shape."""
    if len(old_fragments) != len(new_fragments):
        return None

    def shape(fragment):
        return (fragment.deployment.kind, tuple(sorted(fragment.deployment.relations)))

    remaining = list(new_fragments)
    matched = []
    for old in old_fragments:
        partner = next((n for n in remaining if shape(n) == shape(old)), None)
        if partner is None:
            return None
        remaining.remove(partner)
        matched.append((old, partner))
    return matched


class BatchBackend:
    """One-shot evaluation over the current stored tables."""

    name = "batch"

    def __init__(self, session):
        self._session = session

    def compile_and_run(
        self, plan: LogicalOp, sql: str, *, placement: Any | None = None
    ) -> Cursor:
        rows = self._session._evaluate(plan)
        return Cursor._materialized(self._session, rows, plan.schema, sql)

    def close(self) -> None:
        pass  # nothing runs between calls


class DistributedBackend:
    """Continuous queries with operators placed across simulated nodes."""

    name = "distributed"

    def __init__(self, session, nodes):
        self._session = session
        self._nodes = list(nodes or [])
        self._engine = None  # lazily built DistributedStreamEngine

    @property
    def engine(self):
        """The DistributedStreamEngine, built on first use."""
        return self._ensure_engine("")

    def _ensure_engine(self, sql: str):
        if self._engine is None:
            if not self._nodes:
                raise QueryError(
                    "distributed routing requires connect(nodes=[...])", sql=sql
                )
            from repro.stream.distributed import DistributedStreamEngine

            self._engine = DistributedStreamEngine(
                self._session.catalog, self._session.simulator, self._nodes
            )
        return self._engine

    def compile_and_run(
        self, plan: LogicalOp, sql: str, *, placement: Any | None = None
    ) -> Cursor:
        engine = self._ensure_engine(sql)
        if placement is None or placement == "auto" or placement is True:
            placement = engine.default_placement(plan)
        query = engine.execute(plan, placement)
        cursor = Cursor._distributed(self._session, sql, query)
        self._session._distributed_cursors.append(cursor)
        return cursor

    def close(self) -> None:
        pass  # the simulated LAN holds no external runtime
