"""Partition-safety analysis for sharded continuous queries.

The :class:`~repro.stream.sharded.ShardedStreamEngine` hash-partitions
each stream source's rows across N shard engines by a declared
partition key. A plan may run as one replica per shard — with the
replicas' outputs merged — only when partitioning cannot change its
result. :func:`partition_safe` decides that, conservatively: anything
it does not positively recognize as safe falls back to a single
designated engine that receives the full, unpartitioned feed, so
**correctness never depends on this analysis being aggressive** — a
too-timid verdict costs parallelism, never answers.

A plan is partition-safe when every operator is either row-local
(Filter / Project / Output) or *key-aligned*: all rows that the
operator must observe together are guaranteed to share the partition
key value, and therefore the shard. Concretely:

* Filter/Project chains over any partitioned stream (including
  round-robin sources — no cross-row state). Remote-source feeds (a
  federated query's in-network fragment outputs) count as round-robin
  streams here, so a row-local residual over a sensor fragment runs
  one replica per shard too;
* grouped aggregation whose GROUP BY keys *cover* the partition key
  (every group lives wholly on one shard);
* equi-joins whose join keys align both sides' partition keys
  (co-partitioned build/probe), or joins of a partitioned stream
  against a stored table (tables are replicated to every shard);
* DISTINCT whose input rows still carry the partition key column.

Everything else is unsafe: ROWS windows (arrival-count semantics need
the global arrival order), ORDER BY / LIMIT (per-report total order and
global row budget), global or non-covering aggregates, joins without an
aligned key (remote sources never carry a key, so joins and aggregates
over them always fall back), DISTINCT after the key was projected away,
and plans reading only replicated tables (a replica per shard would
emit N copies).

The analysis tracks the partition key *positionally*: for every node it
computes which output columns are verbatim copies of a partition key
column, so projections may rename or reorder freely without losing
safety.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.catalog import SourceKind
from repro.data.schema import Schema
from repro.data.windows import WindowKind
from repro.plan.exchange import (
    ExchangeRecipe,
    ExchangeSource,
    ExchangeSpec,
    MergeAggregate,
    PartialAggregate,
    PStrategy,
    exchange_name,
    replace_node,
)
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
    side_window,
)
from repro.sql.expressions import ColumnRef


@dataclass(frozen=True)
class PartitionAnalysis:
    """Verdict of :func:`partition_safe` for one plan.

    Attributes:
        safe: True when one replica per shard merges to the exact
            unsharded result.
        reason: Why the plan is (un)safe — surfaced by EXPLAIN-style
            introspection and the sharded engine's handle.
        key_columns: Output column names that carry a partition key
            value (empty for safe-but-keyless plans, e.g. pure
            filter/project chains over a round-robin source).
        code: The verdict's stable diagnostic code, so
            ``session.explain`` and tooling report fallback reasons
            without string-matching ``reason``.
    """

    safe: bool
    reason: str
    key_columns: tuple[str, ...] = ()
    #: Stable diagnostic code (``RA300`` safe; ``RA3xx`` fallback
    #: reasons — see :mod:`repro.analysis.diagnostics`).
    code: str = "RA300"
    #: For unsafe plans: the repartition recipe that still runs them on
    #: the whole pool (None when no exchange strategy applies and the
    #: plan genuinely falls back). Built with a zero token — executors
    #: rebuild it with their query id via :func:`build_exchange`.
    exchange: "ExchangeRecipe | None" = None


@dataclass(frozen=True)
class _Part:
    """Per-node partitioning state during the recursive analysis."""

    #: Positions in the node's output schema holding the partition key.
    key_positions: frozenset[int] = frozenset()
    #: Subtree reads at least one hash/round-robin partitioned stream.
    partitioned: bool = False
    #: Subtree reads only replicated inputs (stored tables).
    replicated: bool = False


class _Unsafe(Exception):
    """Internal control flow: carries the coded, human-readable reason
    plus the offending plan node — the exchange planner pivots there."""

    def __init__(self, code: str, reason: str, node: LogicalOp | None = None):
        self.code = code
        self.reason = reason
        self.node = node
        super().__init__(reason)


def partition_safe(
    plan: LogicalOp, keys: Mapping[str, str]
) -> PartitionAnalysis:
    """Decide whether ``plan`` may run one replica per shard.

    ``keys`` maps lowercased source names to their declared bare
    partition column (sources absent from the mapping are round-robin
    partitioned). Returns a :class:`PartitionAnalysis`; unrecognized
    plan shapes are unsafe by construction.
    """
    try:
        part = _analyze(plan, keys)
    except _Unsafe as verdict:
        return PartitionAnalysis(
            False,
            verdict.reason,
            code=verdict.code,
            exchange=_recipe_for(plan, keys, verdict, token=0),
        )
    if part.replicated:
        return PartitionAnalysis(
            False,
            "plan reads only replicated tables; one designated engine suffices",
            code="RA304",
        )
    if not part.partitioned:
        return PartitionAnalysis(
            False, "plan reads no partitioned stream", code="RA305"
        )
    names = tuple(
        sorted(plan.schema.names[pos] for pos in part.key_positions)
    )
    return PartitionAnalysis(True, "all operators are partition-aligned", names)


# ----------------------------------------------------------------------
def _resolve(schema: Schema, name: str) -> int | None:
    """Position of ``name`` in ``schema`` — exact name first, then a
    unique bare-name match. None when absent or ambiguous."""
    if schema.has(name):
        return schema.index_of(name)
    matches = [i for i, f in enumerate(schema) if f.bare_name == name]
    return matches[0] if len(matches) == 1 else None


def _analyze(node: LogicalOp, keys: Mapping[str, str]) -> _Part:
    if isinstance(node, Scan):
        return _analyze_scan(node, keys)
    if isinstance(node, RemoteSource):
        # A remote feed carries whatever key it declares: the federated
        # optimizer stamps a fragment's GROUP BY / join-site key on its
        # RemoteSource, and exchange feeds stamp their shuffle key. An
        # undeclared (or unresolvable) key leaves the feed keyless —
        # row-local chains above it stay partition-parallel, anything
        # needing co-located rows finds no key positions and falls back
        # (or repartitions via an exchange).
        if node.partition_by:
            positions = [_resolve(node.schema, name) for name in node.partition_by]
            if all(pos is not None for pos in positions):
                return _Part(
                    key_positions=frozenset(positions), partitioned=True
                )
        return _Part(partitioned=True)
    if isinstance(node, (Select, Output)):
        # Row-local: partitioning state flows through untouched.
        return _analyze(node.child, keys)
    if isinstance(node, Project):
        return _analyze_project(node, keys)
    if isinstance(node, Aggregate):
        return _analyze_aggregate(node, keys)
    if isinstance(node, Join):
        return _analyze_join(node, keys)
    if isinstance(node, Distinct):
        child = _analyze(node.child, keys)
        if child.partitioned and not child.key_positions:
            raise _Unsafe(
                "RA306",
                "DISTINCT without the partition key would deduplicate per shard only",
                node,
            )
        return child
    if isinstance(node, OrderBy):
        raise _Unsafe(
            "RA301", "ORDER BY needs a total order per report across all shards"
        )
    if isinstance(node, Limit):
        raise _Unsafe("RA302", "LIMIT budgets rows globally per report")
    raise _Unsafe(
        "RA312", f"{type(node).__name__} is not recognized as partition-safe"
    )


def _analyze_scan(node: Scan, keys: Mapping[str, str]) -> _Part:
    window = node.window
    if window is not None and window.kind is WindowKind.ROWS:
        raise _Unsafe(
            "RA303", f"ROWS window on {node.entry.name!r} counts global arrivals"
        )
    if node.entry.kind is SourceKind.TABLE:
        return _Part(replicated=True)
    key = keys.get(node.entry.name.lower())
    if key is None:
        return _Part(partitioned=True)
    position = _resolve(node.schema, f"{node.binding}.{key}")
    if position is None:
        position = _resolve(node.schema, key)
    if position is None:
        raise _Unsafe(
            "RA311",
            f"partition key {key!r} is not a column of {node.entry.name!r}",
        )
    return _Part(key_positions=frozenset([position]), partitioned=True)


def _analyze_project(node: Project, keys: Mapping[str, str]) -> _Part:
    child = _analyze(node.child, keys)
    kept: set[int] = set()
    for out_pos, item in enumerate(node.items):
        if not isinstance(item.expr, ColumnRef):
            continue
        in_pos = _resolve(node.child.schema, item.expr.name)
        if in_pos is not None and in_pos in child.key_positions:
            kept.add(out_pos)
    return _Part(
        key_positions=frozenset(kept),
        partitioned=child.partitioned,
        replicated=child.replicated,
    )


def _analyze_aggregate(node: Aggregate, keys: Mapping[str, str]) -> _Part:
    child = _analyze(node.child, keys)
    if child.replicated:
        raise _Unsafe(
            "RA307", "aggregate over replicated tables would emit once per shard"
        )
    if not child.key_positions:
        raise _Unsafe(
            "RA308",
            "aggregate input does not carry the partition key "
            "(round-robin source or key projected away)",
            node,
        )
    covered: set[int] = set()
    for key_pos, expr in enumerate(node.group_by):
        if not isinstance(expr, ColumnRef):
            continue
        in_pos = _resolve(node.child.schema, expr.name)
        if in_pos is not None and in_pos in child.key_positions:
            # Output schema lists group keys first, aggregates after.
            covered.add(key_pos)
    if not covered:
        raise _Unsafe(
            "RA309",
            "GROUP BY keys do not cover the partition key; "
            "groups would straddle shards",
            node,
        )
    return _Part(key_positions=frozenset(covered), partitioned=True)


def _analyze_join(node: Join, keys: Mapping[str, str]) -> _Part:
    left = _analyze(node.left, keys)
    right = _analyze(node.right, keys)
    if left.replicated and right.replicated:
        return _Part(replicated=True)
    offset = len(node.left.schema)
    if left.replicated or right.replicated:
        # Stream against a replicated table: every shard holds the full
        # table, so each stream row meets every table row it would have
        # met on one engine.
        streamed = right if left.replicated else left
        positions = (
            frozenset(pos + offset for pos in streamed.key_positions)
            if left.replicated
            else streamed.key_positions
        )
        return _Part(key_positions=positions, partitioned=True)
    # Two partitioned streams: some equi-key must align both partition
    # keys, or matching rows could live on different shards.
    aligned = any(
        node.left.schema.index_of(a) in left.key_positions
        and node.right.schema.index_of(b) in right.key_positions
        for a, b in node.equi
    )
    if not aligned:
        raise _Unsafe(
            "RA310",
            "join predicate does not align the two sides' partition keys",
            node,
        )
    merged = frozenset(left.key_positions) | frozenset(
        pos + offset for pos in right.key_positions
    )
    return _Part(key_positions=merged, partitioned=True)


# ----------------------------------------------------------------------
# Exchange planning: repartition recipes for unsafe plans
# ----------------------------------------------------------------------
def build_exchange(
    plan: LogicalOp, keys: Mapping[str, str], token: int = 0
) -> ExchangeRecipe | None:
    """Plan a mid-plan repartition that runs ``plan`` on the whole pool.

    Returns None for safe plans and for unsafe shapes no exchange
    helps (ORDER BY / LIMIT / ROWS windows — those need the global feed
    and legitimately fall back). ``token`` (the pool query id) keys the
    exchange port names, so the recipe is reproducible anywhere the
    same (plan, keys, token) are known — process workers rebuild it
    from shipped SQL text.
    """
    try:
        _analyze(plan, keys)
        return None
    except _Unsafe as verdict:
        return _recipe_for(plan, keys, verdict, token)


def _recipe_for(
    plan: LogicalOp, keys: Mapping[str, str], verdict: _Unsafe, token: int
) -> ExchangeRecipe | None:
    node = verdict.node
    if verdict.code in ("RA308", "RA309") and isinstance(node, Aggregate):
        return _aggregate_recipe(plan, node, keys, token)
    if verdict.code == "RA310" and isinstance(node, Join):
        return _join_recipe(plan, node, keys, token)
    if verdict.code == "RA306" and isinstance(node, Distinct):
        return _distinct_recipe(plan, node, keys, token)
    return None


def _stage2_distributed(stage2: LogicalOp, keys: Mapping[str, str]) -> bool:
    """True when the rewritten plan proves partition-safe over its
    exchange feeds, so stage 2 may run one replica per shard with keyed
    routing; False degrades to a single merge shard (stage 1 still
    parallelizes, stage 2 sees the full shuffled feed on shard 0)."""
    try:
        part = _analyze(stage2, keys)
    except _Unsafe:
        return False
    return part.partitioned and not part.replicated


def _transport_notes(
    plan: LogicalOp, keys: Mapping[str, str]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(replicated tables broadcast to every shard, keyless stream
    sources round-robining into stage 1) — diagnostics facts."""
    tables: set[str] = set()
    keyless: set[str] = set()
    for n in plan.walk():
        if isinstance(n, Scan):
            if n.entry.kind is SourceKind.TABLE:
                tables.add(n.entry.name)
            elif n.entry.name.lower() not in keys:
                keyless.add(n.entry.name)
    return tuple(sorted(tables)), tuple(sorted(keyless))


def _aggregate_recipe(
    plan: LogicalOp, agg: Aggregate, keys: Mapping[str, str], token: int
) -> ExchangeRecipe:
    """Two-phase aggregation: per-shard partials shuffled by group key
    (or gathered to one merge shard for global aggregates)."""
    partial = PartialAggregate(agg)
    key_count = len(agg.group_by)
    key_names = tuple(partial.schema.names[:key_count])
    source = ExchangeSource(
        exchange_name(token, 0),
        partial.schema,
        side_window(partial),
        partition_by=key_names,
        ordinal=0,
    )
    merge = MergeAggregate(agg, source)
    stage2 = replace_node(plan, agg, merge)
    distributed = _stage2_distributed(stage2, keys)
    spec = ExchangeSpec(
        ordinal=0,
        strategy=PStrategy.SHUFFLE_BY_KEY,
        stage1=partial,
        source=source,
        key_positions=tuple(range(key_count)) if distributed else (),
        label="Aggregate",
    )
    if distributed:
        # The user-facing note names the GROUP BY expressions as written
        # (key_names above are the partial schema's synthesized labels).
        display = tuple(e.render() for e in agg.group_by) or key_names
        note = (
            "two-phase aggregation: shard partials shuffled by "
            f"({', '.join(display)}), merged on the owning shard"
        )
    elif key_names:
        note = (
            "two-phase aggregation: shard partials gathered to one "
            "merge shard"
        )
    else:
        note = (
            "two-phase global aggregation: shard partials gathered to "
            "one merge shard"
        )
    tables, keyless = _transport_notes(plan, keys)
    return ExchangeRecipe(
        code="RA321",
        note=note,
        specs=(spec,),
        stage2=stage2,
        distributed=distributed,
        broadcasts=tables,
        round_robin=keyless,
    )


def _join_recipe(
    plan: LogicalOp, join: Join, keys: Mapping[str, str], token: int
) -> ExchangeRecipe | None:
    """Hash-shuffle both join inputs on their first equi-key so
    matching rows meet on one shard. None when the join has no equi-key
    (a theta/cross join needs the full cross feed)."""
    if not join.equi:
        return None
    left_key, right_key = join.equi[0]
    a_pos = join.left.schema.index_of(left_key)
    b_pos = join.right.schema.index_of(right_key)
    left_window, right_window = join.windows
    left_source = ExchangeSource(
        exchange_name(token, 0),
        join.left.schema,
        left_window,
        partition_by=(left_key,),
        ordinal=0,
    )
    right_source = ExchangeSource(
        exchange_name(token, 1),
        join.right.schema,
        right_window,
        partition_by=(right_key,),
        ordinal=1,
    )
    stage2 = replace_node(
        plan, join, Join(left_source, right_source, join.predicate)
    )
    distributed = _stage2_distributed(stage2, keys)
    specs = (
        ExchangeSpec(
            ordinal=0,
            strategy=PStrategy.SHUFFLE_BY_KEY,
            stage1=join.left,
            source=left_source,
            key_positions=(a_pos,) if distributed else (),
            label="Join.left",
        ),
        ExchangeSpec(
            ordinal=1,
            strategy=PStrategy.SHUFFLE_BY_KEY,
            stage1=join.right,
            source=right_source,
            key_positions=(b_pos,) if distributed else (),
            label="Join.right",
        ),
    )
    tables, keyless = _transport_notes(plan, keys)
    return ExchangeRecipe(
        code="RA320",
        note=(
            f"join inputs hash-shuffled on {left_key} = {right_key}; "
            + (
                "co-partitioned join runs on every shard"
                if distributed
                else "joined on one merge shard"
            )
        ),
        specs=specs,
        stage2=stage2,
        distributed=distributed,
        broadcasts=tables,
        round_robin=keyless,
    )


def _distinct_recipe(
    plan: LogicalOp, node: Distinct, keys: Mapping[str, str], token: int
) -> ExchangeRecipe:
    """Shuffle the DISTINCT input by whole-row hash: every duplicate
    lands on one shard, so per-shard dedup is global dedup."""
    child = node.child
    source = ExchangeSource(
        exchange_name(token, 0),
        child.schema,
        side_window(child),
        partition_by=tuple(child.schema.names),
        ordinal=0,
    )
    stage2 = replace_node(plan, node, Distinct(source))
    distributed = _stage2_distributed(stage2, keys)
    spec = ExchangeSpec(
        ordinal=0,
        strategy=PStrategy.SHUFFLE_BY_KEY,
        stage1=child,
        source=source,
        key_positions=tuple(range(len(child.schema))) if distributed else (),
        label="Distinct",
    )
    tables, keyless = _transport_notes(plan, keys)
    return ExchangeRecipe(
        code="RA322",
        note=(
            "DISTINCT rows hash-shuffled by the full row; "
            + (
                "each shard deduplicates its hash range"
                if distributed
                else "deduplicated on one merge shard"
            )
        ),
        specs=(spec,),
        stage2=stage2,
        distributed=distributed,
        broadcasts=tables,
        round_robin=keyless,
    )
