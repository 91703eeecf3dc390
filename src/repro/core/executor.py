"""Federated plan execution: deploy fragments, wire engines together.

For each pushed fragment of a
:class:`~repro.core.federated.FederatedPlan` whose stream residual is
already running, the executor

1. deploys the fragment on the :class:`SensorEngine` (collection /
   aggregation / pairwise join, with the optimizer's per-pair join
   strategies), and
2. wires the basestation delivery callback so fragment results are
   pushed into the :class:`StreamEngine` as RemoteSource feeds.

A collection or join delivery is a Row under the scanned relation's
schema qualified by the scan binding (a join's: both, concatenated) and
is projected to the fragment's output schema first: the fragment's
non-leaf operators above the in-network primitive (Projects and Selects
introduced by view expansion) are re-applied at the basestation by
composing their expressions into one projection, compiled once at
deploy — the network already filtered and joined, so this is just
column shaping. An aggregation's epoch record is a row under the record
schema already and is pushed as it arrives; the residual's own
Aggregate finishes it.
"""

from __future__ import annotations

from typing import Callable

from repro.data.schema import Schema
from repro.data.tuples import Row
from repro.errors import ExecutionError
from repro.plan.logical import (
    Join,
    LogicalOp,
    Project,
    Scan,
    Select,
)
from repro.core.federated import PushedFragment
from repro.sensor.engine import DeployedQuery, ResultCallback, SensorEngine
from repro.sql.compiled import compile_projection
from repro.sql.expressions import ColumnRef, Expr, substitute_columns
from repro.stream.engine import StreamEngine


class FederatedExecutor:
    """Deploys federated plans across the two engines.

    ``stream_engine`` is anything with ``push_remote(name, row, time)``:
    the single :class:`StreamEngine`, a
    :class:`~repro.stream.sharded.ShardedStreamEngine` pool, or a test
    double — fragment deliveries are handed to it as RemoteSource feeds
    either way. The Session's ``FederatedBackend`` runs the residual on
    its delegate backend first, then calls :meth:`deploy` fragment by
    fragment.
    """

    def __init__(self, sensor_engine: SensorEngine, stream_engine: StreamEngine):
        self.sensor_engine = sensor_engine
        self.stream_engine = stream_engine

    # ------------------------------------------------------------------
    def deploy(self, fragment: PushedFragment) -> DeployedQuery:
        """Deploy one pushed fragment in-network; its deliveries are
        projected to the fragment's output schema and pushed into the
        stream engine as the fragment's RemoteSource feed."""
        deployment = fragment.deployment
        projector = _FragmentProjector(fragment)
        push = self.stream_engine.push_remote
        engine = self.sensor_engine
        scan = next(n for n in fragment.fragment.walk() if isinstance(n, Scan))
        if deployment.kind == "collection":
            return engine.deploy_collection(
                deployment.relations[0],
                projector.rewrite_to_base(deployment.predicate),
                target_name=fragment.name,
                key_prefix=scan.binding,
                on_result=projector.deliver(self._delivered(scan), push),
            )
        if deployment.kind == "aggregation":
            return engine.deploy_aggregation(
                deployment.relations[0],
                [projector.rewrite_to_base(a) for a in deployment.arguments],
                projector.rewrite_to_base(deployment.predicate),
                target_name=fragment.name,
                key_prefix=scan.binding,
                on_result=lambda _, record, time: push(fragment.name, record, time),
            )
        if deployment.kind == "join":
            join = next(n for n in fragment.fragment.walk() if isinstance(n, Join))
            left_scan = next(n for n in join.left.walk() if isinstance(n, Scan))
            right_scan = next(n for n in join.right.walk() if isinstance(n, Scan))
            # Local filters below the join run at the join site together
            # with the join predicate.
            local = projector.rewrite_to_base(self._local_predicate(fragment.fragment))
            return engine.deploy_join(
                left_scan.entry.name,
                right_scan.entry.name,
                deployment.pairs,
                local,
                target_name=fragment.name,
                left_prefix=left_scan.binding,
                right_prefix=right_scan.binding,
                on_result=projector.deliver(
                    self._delivered(left_scan).concat(self._delivered(right_scan)), push
                ),
            )
        raise ExecutionError(f"unknown deployment kind {deployment.kind!r}")

    def _delivered(self, scan: Scan) -> Schema:
        """The schema the sensor engine delivers ``scan``'s tuples under."""
        return self.sensor_engine.relation(scan.entry.name).bound(scan.binding)

    @staticmethod
    def _local_predicate(fragment: LogicalOp) -> Expr | None:
        from repro.sql.expressions import conjoin, split_conjuncts

        conjuncts: list[Expr] = []
        for node in fragment.walk():
            if isinstance(node, Select):
                conjuncts.extend(split_conjuncts(node.predicate))
            if isinstance(node, Join) and node.predicate is not None:
                conjuncts.extend(split_conjuncts(node.predicate))
        return conjoin(conjuncts)


class _FragmentProjector:
    """Re-applies a fragment's column shaping at the basestation.

    The sensor engine delivers collection and join tuples as Rows under
    the scans' qualified schemas (``sa.room``). The projector composes
    the fragment's Project layers into one expression per output field
    and compiles them into one projection over a delivery's values.
    """

    def __init__(self, fragment: PushedFragment):
        self._name = fragment.name
        self._schema = fragment.fragment.schema
        items = _compose_projection(fragment.fragment)
        if items is None:
            items = [(ColumnRef(f.name), f.name) for f in self._schema]
        self._items = items

    def rewrite_to_base(self, expr: Expr | None) -> Expr | None:
        """Rewrite derived-column references in a pushed predicate or
        aggregate argument back to base-column expressions.

        View expansion can leave predicates like ``t.celsius > 0`` above
        a renaming Project (``wt.temp_c AS t.celsius``); the mote only
        sees base columns, so the expression must be substituted through
        the composed projection before deployment.
        """
        if expr is None:
            return None
        mapping = {name: item for item, name in self._items}
        return substitute_columns(expr, mapping)

    def deliver(self, schema: Schema, push: Callable[[str, Row, float], None]) -> ResultCallback:
        """The delivery callback for rows under ``schema``: each is
        projected by one call compiled here and pushed as the
        fragment's feed."""
        project = compile_projection([expr for expr, _ in self._items], schema)
        name, output = self._name, self._schema
        return lambda _, row, time: push(name, Row.raw(output, project(row.values)), time)


def _compose_projection(node: LogicalOp) -> list[tuple[Expr, str]] | None:
    """Flatten stacked Projects into expressions over base columns.

    Returns None when the fragment has no Project (identity over the
    base schema). Selects are transparent (already applied in-network);
    Join/Scan terminate composition.
    """
    if isinstance(node, Project):
        inner = _compose_projection(node.child)
        if inner is None:
            return [(item.expr, item.name) for item in node.items]
        mapping = {name: expr for expr, name in inner}
        return [
            (substitute_columns(item.expr, mapping), item.name) for item in node.items
        ]
    if isinstance(node, Select):
        return _compose_projection(node.child)
    return None
