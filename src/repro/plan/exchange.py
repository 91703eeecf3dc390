"""Exchange plan nodes: mid-plan repartitioning between shard engines.

When :func:`~repro.stream.partition.partition_safe` rejects a plan, the
pool can often still run it partitioned by cutting the plan at the
offending operator and re-routing rows between shards there — the
classic exchange-operator design. This module holds the *plan-side*
vocabulary (pure tree nodes and rewrite helpers; no engine imports —
the decision logic lives in :mod:`repro.stream.partition`):

* :class:`PStrategy` — the partitioning-strategy vocabulary
  (ShuffleByKey / Broadcast / RoundRobin, after ray-streaming's
  ``PScheme``/``PStrategy``).
* :class:`ExchangeSource` — the stage-2 leaf standing in for a shuffled
  feed. It subclasses :class:`~repro.plan.logical.RemoteSource`, so the
  compiler and engine treat it as a named port; ``partition_by``
  declares the key the feed is hashed on and ``window`` (inherited)
  carries the replaced subtree's window, so a shuffled join side keeps
  the window its scans declared.
* :class:`PartialAggregate` / :class:`MergeAggregate` — the two halves
  of two-phase aggregation. Stage 1 emits per-shard *partial* state
  (opaque payload columns); stage 2 merges partials into the original
  output schema.
* :func:`replace_node` — rebuild a plan with one subtree swapped,
  sharing every untouched subtree (plans are shared objects; rewrites
  must never mutate the original).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.data.schema import Field, Schema
from repro.data.types import DataType
from repro.data.windows import WindowSpec
from repro.errors import PlanError
from repro.plan.logical import (
    Aggregate,
    LogicalOp,
    RemoteSource,
    replace_child,
)
from repro.sql.expressions import ColumnRef


class PStrategy(enum.Enum):
    """How rows move between shard engines at an exchange boundary."""

    #: Route each row to ``stable_hash(key) % shards`` — equal keys meet.
    SHUFFLE_BY_KEY = "shuffle_by_key"
    #: Replicate to every shard (small stored tables).
    BROADCAST = "broadcast"
    #: Spray keyless rows evenly (stage-1 ingest of undeclared sources).
    ROUND_ROBIN = "round_robin"


def exchange_name(token: int, ordinal: int) -> str:
    """Engine-unique port name of one exchange feed.

    The ``#x`` prefix cannot collide with catalog sources or federated
    fragment names (neither may contain ``#``); the token (the pool
    query id) keeps concurrent exchanged queries apart on one engine,
    and makes the name reproducible in process workers, which rebuild
    the recipe from (SQL text, query id).
    """
    return f"#x{token}:{ordinal}"


class ExchangeSource(RemoteSource):
    """Stage-2 leaf: a feed of rows shuffled in from every shard.

    ``partition_by`` names the columns of ``schema`` the feed is hashed
    on (empty = everything gathers on one merge shard), which
    ``partition_safe`` consumes exactly like a declared source key.
    ``window`` is the :func:`~repro.plan.logical.side_window` of the
    stage-1 subtree this leaf replaced.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        window: WindowSpec,
        partition_by: tuple[str, ...] = (),
        ordinal: int = 0,
    ):
        super().__init__(name, schema, partition_by=partition_by, window=window)
        self.ordinal = ordinal

    def describe(self) -> str:
        key = ", ".join(self.partition_by) or "<gather>"
        return f"ExchangeSource({self.name}, key={key})"


def _partial_schema(original: Aggregate) -> Schema:
    """Group keys (bare names, original dtypes) followed by one opaque
    payload column per aggregate. Payload cells hold encoded partial
    state (tagged tuples), never surfaced to users, so they type as
    NULL."""
    fields = [
        Field(name, f.dtype)
        for name, f in zip(original.key_names, original.schema)
    ]
    fields += [Field(item.name, DataType.NULL) for item in original.aggregates]
    return Schema(fields)


class PartialAggregate(Aggregate):
    """Stage 1 of a two-phase aggregation: per-shard partial state.

    Shares the original Aggregate's child, grouping and window, but
    emits *encoded partial* payloads under :func:`_partial_schema`
    instead of finalized values. Construction bypasses
    ``Aggregate.__init__`` deliberately: the original's schema
    computation would re-derive dtypes we are replacing.
    """

    def __init__(self, original: Aggregate):
        LogicalOp.__init__(self)
        self.original = original
        self.child = original.child
        self.group_by = list(original.group_by)
        self.aggregates = list(original.aggregates)
        self.window = original.window
        self.key_names = list(original.key_names)
        self._schema = _partial_schema(original)

    def describe(self) -> str:
        return f"Partial{self.original.describe()}"


class MergeAggregate(Aggregate):
    """Stage 2 of a two-phase aggregation: merge shard partials.

    Reads the exchanged partial feed and restores the *original* output
    schema. ``group_by`` is rebuilt over the partial schema's key
    columns (the original key expressions referenced stage-1 child
    columns that no longer exist here), which also lets
    ``partition_safe`` prove a keyed merge covered by the exchange key.
    """

    def __init__(self, original: Aggregate, source: ExchangeSource):
        if len(source.schema) != len(original.schema):
            raise PlanError("exchange partial schema arity mismatch")
        LogicalOp.__init__(self)
        self.original = original
        self.child = source
        self.group_by = [ColumnRef(name) for name in original.key_names]
        self.aggregates = list(original.aggregates)
        self.window = original.window
        self.key_names = list(original.key_names)
        self._schema = original.schema

    def describe(self) -> str:
        return f"Merge{self.original.describe()}"


@dataclass(frozen=True)
class ExchangeSpec:
    """One shuffled feed of a repartitioned plan.

    ``stage1`` runs one replica per shard; its emissions are routed by
    ``stable_hash`` of the ``key_positions`` columns (empty = gather to
    the single merge shard) and re-enter destination pipelines through
    the port named ``source.name``.
    """

    ordinal: int
    strategy: PStrategy
    stage1: LogicalOp
    source: ExchangeSource
    key_positions: tuple[int, ...]
    label: str

    @property
    def name(self) -> str:
        return self.source.name


@dataclass(frozen=True)
class ExchangeRecipe:
    """How to run a partition-unsafe plan on the whole pool.

    ``stage2`` is the original plan with the offending subtree(s)
    replaced by :class:`ExchangeSource` leaves. When ``distributed``,
    stage 2 itself proves partition-safe over the shuffled feeds and
    runs one replica per shard; otherwise it runs once on the merge
    shard (shard 0) — stage 1 still parallelizes.

    ``broadcasts`` and ``round_robin`` record the passive transport
    facts (replicated tables reach every shard via table broadcast;
    keyless sources spray round-robin into stage 1) for diagnostics.
    """

    code: str
    note: str
    specs: tuple[ExchangeSpec, ...]
    stage2: LogicalOp
    distributed: bool
    broadcasts: tuple[str, ...] = ()
    round_robin: tuple[str, ...] = ()


def replace_node(
    root: LogicalOp, target: LogicalOp, replacement: LogicalOp
) -> LogicalOp:
    """Return ``root`` with the subtree ``target`` (matched by identity)
    swapped for ``replacement``.

    The spine from root to target is rebuilt (``replace_child``
    constructs fresh nodes); every other subtree is shared with the
    original plan, which stays untouched. Spine schemas recompute
    unchanged because exchanges preserve the replaced subtree's schema.
    """
    if root is target:
        return replacement
    for child in root.children:
        rebuilt = replace_node(child, target, replacement)
        if rebuilt is not child:
            return replace_child(root, child, rebuilt)
    return root
