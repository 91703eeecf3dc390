"""The in-network sensor query engine.

Reproduces the DMSN'08 substrate the paper builds on: selection and
aggregation over sensor devices *plus in-network joins between devices*,
with the join site chosen per sensor pair.

Three deployment primitives:

* :meth:`SensorEngine.deploy_collection` — each mote samples every
  epoch, applies the pushed-down predicate locally, and routes passing
  tuples up the collection tree (acquisitional processing à la TinyDB).
* :meth:`SensorEngine.deploy_aggregation` — TAG-style tree aggregation:
  each mote folds its filtered reading into one ``(count, sum, min,
  max)`` partial state record (PSR) group per argument, records combine
  at every tree level — one message per tree edge per epoch regardless
  of fan-in — and the base delivers the epoch's record stamped with the
  sample time. The record is a partial, not an answer: the federated
  residual's own Aggregate finishes it under the query's running,
  tumbling or sliding semantics. Float sums associate in tree order,
  not in the stream engine's arrival order, so SUM/AVG may differ from
  a stream fold of the same readings in the last bit (they agree
  exactly whenever every partial sum is exact).
* :meth:`SensorEngine.deploy_join` — pairwise in-network join (e.g.
  seat-light ⋈ machine-temperature on the same desk). Each pair runs one
  of three strategies; the per-pair choice is the sensor optimizer's
  output (paper §3: "decides, on a sensor-by-sensor basis, where to
  perform the join").

Each primitive compiles its predicate and arguments once, at deploy
time, with :func:`~repro.sql.compiled.compile_expr` against the schema
they are written in: the relation's, qualified by the scan binding the
caller passes (a join's two qualified schemas, concatenated). An epoch
reads the sampler's dict once into a value tuple in schema order, and a
collection or join delivers it as a :class:`~repro.data.tuples.Row`
under that schema, checked against its types as any input from outside
the program is.

Results arrive at the basestation and are handed to the engine's
``on_result`` callback — in SmartCIS that callback pushes into the
stream engine, closing the federation loop.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.data.schema import Schema
from repro.data.tuples import Row
from repro.data.types import size_in_bytes
from repro.errors import SensorNetworkError
from repro.runtime import PeriodicTask
from repro.sensor.mote import Mote
from repro.sensor.network import HOP_LATENCY, SensorNetwork
from repro.sql.compiled import CompiledExpr, compile_expr
from repro.sql.expressions import Expr

#: Callback type for results surfacing at the basestation: (relation
#: name, the delivered tuple — a Row under the deployment's schema, or
#: an aggregation's epoch record keyed by :func:`psr_name` —, sample
#: timestamp).
ResultCallback = Callable[[str, Row | dict[str, Any], float], None]

#: One folded argument's partial state record, in delivery order. sum,
#: min and max are NULL while count is 0 (and always, for the row).
PSR_FIELDS = ("count", "sum", "min", "max")
#: Radio payload of one argument's PSR: four 8-byte slots.
PSR_BYTES = 4 * 8


def psr_name(argument: int, name: str) -> str:
    """The flattened epoch record's column for one argument's PSR field
    (``a0_count``). The record is ``psr_name(i, f)`` for each argument
    ``i`` and each of :data:`PSR_FIELDS` in turn: the one definition of
    its layout, which the federated optimizer reads for the residual's
    feed schema and combiners."""
    return f"a{argument}_{name}"


def _single_psr(value: Any) -> tuple:
    """The PSR of one reading's value (a NULL folds into nothing)."""
    return (0, None, None, None) if value is None else (1, value, value, value)


def _nulls(combine: Callable[[Any, Any], Any], left: Any, right: Any) -> Any:
    return right if left is None else left if right is None else combine(left, right)


def _merge_psr(existing: tuple | None, incoming: tuple | None) -> tuple | None:
    """Combine two records group by group; ``None`` is no record."""
    if existing is None or incoming is None:
        return incoming if existing is None else existing
    return tuple(
        (
            a[0] + b[0],
            _nulls(operator.add, a[1], b[1]),
            _nulls(min, a[2], b[2]),
            _nulls(max, a[3], b[3]),
        )
        for a, b in zip(existing, incoming)
    )


class JoinStrategy(enum.Enum):
    """Where a pairwise in-network join executes."""

    AT_BASE = "at-base"      # ship both sides to the basestation
    AT_LEFT = "at-left"      # ship the right tuple to the left mote
    AT_RIGHT = "at-right"    # ship the left tuple to the right mote


@dataclass
class SensorRelation:
    """A sensor-hosted relation: which motes produce it and how.

    Attributes:
        name: Catalog name (``SeatSensors``, ``WorkstationTemps``, ...).
        schema: Tuple layout (bare column names).
        mote_ids: Producing motes.
        sampler: ``sampler(mote) -> dict`` builds one tuple from the
            mote's sensors plus its static metadata (room, desk, ...).
        period: Seconds between samples (the epoch).
    """

    name: str
    schema: Schema
    mote_ids: list[int]
    sampler: Callable[[Mote], dict[str, Any]]
    period: float

    def row_bytes(self) -> int:
        return sum(size_in_bytes(f.dtype) for f in self.schema)

    def bound(self, binding: str | None) -> Schema:
        """The schema a deployment's expressions are written in and its
        tuples are delivered under: qualified by the scan ``binding``,
        or bare without one."""
        return self.schema.qualified(binding) if binding else self.schema

    def read(self, mote: Mote) -> tuple:
        """One sample: the sampler's dict read once, in schema order."""
        sample = self.sampler(mote)
        return tuple([sample[field.name] for field in self.schema])


@dataclass
class JoinPair:
    """One joinable mote pair with its chosen execution site."""

    left_mote: int
    right_mote: int
    strategy: JoinStrategy = JoinStrategy.AT_BASE


@dataclass
class DeployedQuery:
    """Handle over a running in-network query.

    ``on_result`` overrides the engine-wide callback for this query's
    deliveries (the federated executor uses this to project fragment
    outputs before handing them to the stream engine). ``engine`` is
    the deploying :class:`SensorEngine` (set by the deploy methods):
    :meth:`stop` cancels the mote tasks *and* retires the handle from
    the engine's ``deployed`` registry, so a federated cursor closing
    its fragments leaves no ghost deployments behind. Idempotent.
    """

    name: str
    tasks: list[PeriodicTask] = field(default_factory=list)
    results_delivered: int = 0
    epochs: int = 0
    on_result: ResultCallback | None = None
    engine: "SensorEngine | None" = field(default=None, repr=False)
    stopped: bool = field(default=False, init=False)

    def stop(self) -> None:
        if self.stopped:
            return
        self.stopped = True
        for task in self.tasks:
            task.stop()
        if self.engine is not None:
            self.engine.undeploy(self)


class SensorEngine:
    """Runs queries inside the simulated sensor network."""

    def __init__(self, network: SensorNetwork, on_result: ResultCallback | None = None):
        self.network = network
        self.on_result = on_result or (lambda name, values, time: None)
        self._relations: dict[str, SensorRelation] = {}
        self.deployed: list[DeployedQuery] = []
        #: Subscribers called as ``callback(mote_id)`` when a mote is
        #: first observed dead (each mote is reported exactly once).
        #: The federated backend hangs its self-healing repair here.
        self.on_mote_death: list[Callable[[int], None]] = []
        self._dead_reported: set[int] = set()

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------
    def _report_mote_death(self, mote_id: int) -> None:
        """Fire death subscribers the first time ``mote_id`` is seen dead."""
        if mote_id in self._dead_reported:
            return
        self._dead_reported.add(mote_id)
        for callback in list(self.on_mote_death):
            callback(mote_id)

    def _scan_for_deaths(self) -> None:
        """Report every newly dead mote.

        Run at the top of each deployment epoch so deaths surface even
        for pure-relay motes that no sampler ever touches.
        """
        for mote_id, mote in self.network.motes.items():
            if not mote.alive and mote_id not in self._dead_reported:
                self._report_mote_death(mote_id)

    def _drop_disconnected(self, mote_id: int) -> None:
        """Account a message lost because its route no longer exists."""
        self.network.stats.drops += 1
        self.network._trace("drop", {"reason": "disconnected", "mote": mote_id})

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def register_relation(self, relation: SensorRelation) -> SensorRelation:
        key = relation.name.lower()
        if key in self._relations:
            raise SensorNetworkError(f"sensor relation {relation.name!r} already registered")
        for mote_id in relation.mote_ids:
            self.network.mote(mote_id)  # validates existence
        self._relations[key] = relation
        return relation

    def relation(self, name: str) -> SensorRelation:
        rel = self._relations.get(name.lower())
        if rel is None:
            raise SensorNetworkError(
                f"unknown sensor relation {name!r}; have {sorted(self._relations)}"
            )
        return rel

    # ------------------------------------------------------------------
    # Collection (selection pushed to the mote)
    # ------------------------------------------------------------------
    def deploy_collection(
        self,
        relation_name: str,
        predicate: Expr | None = None,
        *,
        target_name: str | None = None,
        key_prefix: str | None = None,
        on_result: ResultCallback | None = None,
    ) -> DeployedQuery:
        """Sample-filter-forward: only tuples passing ``predicate`` are
        transmitted. ``key_prefix`` is the scan binding the predicate is
        written in (``room`` → ``sa.room``); a tuple is delivered as a
        Row under :meth:`SensorRelation.bound`."""
        relation = self.relation(relation_name)
        deployed = DeployedQuery(
            target_name or relation.name, on_result=on_result, engine=self
        )
        out_name = deployed.name
        schema = relation.bound(key_prefix)
        keep = _compiled(predicate, schema)

        def make_epoch(mote_id: int) -> Callable[[], None]:
            def epoch() -> None:
                self._scan_for_deaths()
                mote = self.network.mote(mote_id)
                if not mote.alive:
                    self._report_mote_death(mote_id)
                    return
                values = relation.read(mote)
                mote.account_cpu()
                if keep is not None and keep(values) is not True:
                    return
                # Deliver with the *sample* timestamp: downstream latency
                # measurements then include real network delay.
                sample_time = self.network.simulator.now
                try:
                    self.network.send_to_base(
                        mote_id,
                        relation.row_bytes(),
                        payload=Row(schema, values),
                        on_delivered=lambda payload, time, sample_time=sample_time: self._deliver(
                            deployed, out_name, payload, sample_time
                        ),
                    )
                except SensorNetworkError:
                    # A dead relay severed the route. Best-effort
                    # collection drops the tuple; repair (if installed)
                    # re-routes future epochs.
                    self._drop_disconnected(mote_id)
            return epoch

        for mote_id in relation.mote_ids:
            task = self.network.simulator.schedule_periodic(relation.period, make_epoch(mote_id))
            deployed.tasks.append(task)
        self.deployed.append(deployed)
        return deployed

    # ------------------------------------------------------------------
    # Aggregation (TAG-style tree combining)
    # ------------------------------------------------------------------
    def deploy_aggregation(
        self,
        relation_name: str,
        arguments: Sequence[Expr | None],
        predicate: Expr | None = None,
        *,
        target_name: str | None = None,
        key_prefix: str | None = None,
        on_result: ResultCallback | None = None,
    ) -> DeployedQuery:
        """One message per collection-tree edge per epoch: every member
        mote samples, applies ``predicate`` as :meth:`deploy_collection`
        does, and folds each of ``arguments`` (``None`` stands for the
        row, for ``COUNT(*)``) into a ``(count, sum, min, max)`` group.
        Both are written in the scan binding ``key_prefix``.
        A mote combines its children's partial state records with its
        own and forwards a single PSR to its parent; a mote with nothing
        to report stays silent.

        The base delivers the flattened record (:func:`psr_name`) as
        one tuple stamped with the sample time, one tree depth of
        ``HOP_LATENCY`` later — no earlier than that epoch's collection
        tuples would arrive. It is a partial, not an answer: the stream
        residual's own Aggregate finishes it.
        """
        relation = self.relation(relation_name)
        deployed = DeployedQuery(
            target_name or f"{relation.name}_psr", on_result=on_result, engine=self
        )
        member_ids = set(relation.mote_ids)
        base_id = self.network.basestation.mote_id
        names = [psr_name(i, name) for i in range(len(arguments)) for name in PSR_FIELDS]
        psr_bytes = PSR_BYTES * len(arguments)

        schema = relation.bound(key_prefix)
        keep = _compiled(predicate, schema)
        folds = [_compiled(argument, schema) for argument in arguments]

        def sample(mote: Mote) -> tuple | None:
            values = relation.read(mote)
            if keep is not None and keep(values) is not True:
                return None
            return tuple(
                (1, None, None, None) if fold is None else _single_psr(fold(values))
                for fold in folds
            )

        def epoch() -> None:
            deployed.epochs += 1
            self._scan_for_deaths()
            self.network._ensure_topology()
            # Post-order over the collection tree: children before parents,
            # so a mote's inbox is complete by the time it runs. The inbox
            # is keyed by *recipient*: child PSRs accumulate at the parent.
            inbox: dict[int, tuple] = {}
            for mote_id in self._postorder():
                mote = self.network.mote(mote_id)
                if not mote.alive:
                    self._report_mote_death(mote_id)
                    continue
                psr = inbox.pop(mote_id, None)
                if mote_id in member_ids:
                    psr = _merge_psr(psr, sample(mote))
                if psr is None:
                    continue  # nothing to report this epoch
                mote.account_cpu()
                if mote_id == base_id:
                    record = dict(zip(names, itertools.chain.from_iterable(psr)))
                    self.network.simulator.schedule_in(
                        HOP_LATENCY * self.network.diameter,
                        lambda record=record, sample_time=self.network.simulator.now: (
                            self._deliver(deployed, deployed.name, record, sample_time)
                        ),
                    )
                    continue
                try:
                    parent = self.network.parent_of(mote_id)
                    # One PSR message up the tree edge (loss modelled as
                    # a single-hop send).
                    self.network.send(mote_id, parent, psr_bytes)
                except SensorNetworkError:
                    # Disconnected from the tree: this mote's partial
                    # state is lost for the epoch.
                    self._drop_disconnected(mote_id)
                    continue
                inbox[parent] = _merge_psr(inbox.get(parent), psr)

        task = self.network.simulator.schedule_periodic(relation.period, epoch)
        deployed.tasks.append(task)
        self.deployed.append(deployed)
        return deployed

    def _postorder(self) -> list[int]:
        """Collection-tree post-order (children before parents)."""
        base_id = self.network.basestation.mote_id
        order: list[int] = []

        def visit(mote_id: int) -> None:
            for child in sorted(self.network.children_of(mote_id)):
                visit(child)
            order.append(mote_id)

        visit(base_id)
        return order

    # ------------------------------------------------------------------
    # In-network pairwise join
    # ------------------------------------------------------------------
    def deploy_join(
        self,
        left_relation: str,
        right_relation: str,
        pairs: list[JoinPair],
        predicate: Expr | None,
        *,
        target_name: str,
        period: float | None = None,
        left_prefix: str,
        right_prefix: str,
        on_result: ResultCallback | None = None,
    ) -> DeployedQuery:
        """Join tuples of paired motes every epoch.

        The joined tuple is both sides' values under both sides' schemas
        qualified by their scan bindings and concatenated — ``sa.room``,
        ``ss.room`` — which is the schema ``predicate`` is written in.
        """
        left = self.relation(left_relation)
        right = self.relation(right_relation)
        epoch_period = period or max(left.period, right.period)
        deployed = DeployedQuery(target_name, on_result=on_result, engine=self)
        joined_bytes = left.row_bytes() + right.row_bytes()
        schema = left.bound(left_prefix).concat(right.bound(right_prefix))
        keep = _compiled(predicate, schema)

        def run_pair(pair: JoinPair) -> None:
            left_mote = self.network.mote(pair.left_mote)
            right_mote = self.network.mote(pair.right_mote)
            if not (left_mote.alive and right_mote.alive):
                for mote in (left_mote, right_mote):
                    if not mote.alive:
                        self._report_mote_death(mote.mote_id)
                return
            sample_time = self.network.simulator.now
            left_values = left.read(left_mote)
            right_values = right.read(right_mote)

            def joined() -> Row | None:
                values = left_values + right_values
                if keep is None or keep(values) is True:
                    return Row(schema, values)
                return None

            if pair.strategy is JoinStrategy.AT_BASE:
                # Both tuples travel to the base independently; the base
                # performs the join when the second one arrives.
                arrived: list[Any] = []

                def at_base(payload: Any, time: float) -> None:
                    arrived.append(payload)
                    row = joined() if len(arrived) == 2 else None
                    if row is not None:
                        self._deliver(deployed, target_name, row, sample_time)

                for mote_id, rel, values in (
                    (pair.left_mote, left, left_values),
                    (pair.right_mote, right, right_values),
                ):
                    try:
                        self.network.send_to_base(mote_id, rel.row_bytes(), values, at_base)
                    except SensorNetworkError:
                        self._drop_disconnected(mote_id)
                return

            # Local join: ship one side to the other, evaluate there, and
            # forward matches to the base.
            if pair.strategy is JoinStrategy.AT_LEFT:
                carrier, join_site = pair.right_mote, pair.left_mote
                carried_bytes = right.row_bytes()
            else:
                carrier, join_site = pair.left_mote, pair.right_mote
                carried_bytes = left.row_bytes()

            def at_join_site(payload: Any, time: float) -> None:
                site_mote = self.network.mote(join_site)
                site_mote.account_cpu()
                row = joined()
                if row is not None:
                    try:
                        self.network.send_to_base(
                            join_site,
                            joined_bytes,
                            row,
                            lambda p, t: self._deliver(deployed, target_name, p, sample_time),
                        )
                    except SensorNetworkError:
                        self._drop_disconnected(join_site)

            try:
                self.network.send(carrier, join_site, carried_bytes, None, at_join_site)
            except SensorNetworkError:
                self._drop_disconnected(carrier)

        def epoch() -> None:
            deployed.epochs += 1
            self._scan_for_deaths()
            for pair in pairs:
                run_pair(pair)

        task = self.network.simulator.schedule_periodic(epoch_period, epoch)
        deployed.tasks.append(task)
        self.deployed.append(deployed)
        return deployed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def undeploy(self, deployed: DeployedQuery) -> None:
        """Retire a deployment: cancel its tasks and drop it from the
        registry. Fully idempotent and entry-order-agnostic — callers
        may race ``Cursor.close()`` against ``Session.close()``, so
        both ``undeploy(d)`` and ``d.stop()`` must converge on the same
        final state (tasks stopped, handle absent) no matter how many
        times or in which order they run."""
        if not deployed.stopped:
            # Route through stop() so tasks are cancelled exactly once;
            # stop() re-enters undeploy with stopped=True to do the
            # registry removal below.
            deployed.stop()
            return
        try:
            self.deployed.remove(deployed)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    def _deliver(
        self, deployed: DeployedQuery, name: str, values: Row | dict[str, Any], time: float
    ) -> None:
        deployed.results_delivered += 1
        callback = deployed.on_result or self.on_result
        callback(name, values, time)


def _compiled(expr: Expr | None, schema: Schema) -> CompiledExpr | None:
    """``expr`` compiled once against ``schema``; ``None`` stays ``None``."""
    return None if expr is None else compile_expr(expr, schema)
