"""Set-oriented evaluation of logical plans over in-memory tables.

The recursive-view maintainer (semi-naive fixpoint, DRed deletion
rewrites) repeatedly evaluates the *step* plan over deltas; a push
pipeline is the wrong tool for that, so this module provides a direct
batch evaluator. It is also the oracle that integration tests compare
the streaming operators against.

Evaluation uses the schema-bound evaluators of
:mod:`repro.sql.compiled`: predicates, projections, join keys and group
keys resolve column positions once per plan node instead of per row,
and compilation is memoized on the node so the fixpoint's repeated step
evaluations reuse the same closures.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.data.schema import Schema
from repro.data.tuples import Row
from repro.errors import ExecutionError, SchemaError
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
    Recursive,
    RemoteSource,
    Scan,
    Select,
)
from repro.sql.compiled import compile_expr, compile_projection
from repro.sql.expressions import (
    Accumulator,
    conjoin,
    is_equijoin_conjunct,
    split_conjuncts,
)
from repro.stream.operators import _Descending, _positional_key


def _node_compiled(node, factory):
    """Compiled artifacts memoized on the plan node itself.

    The recursive-view maintainer evaluates the same (immutable) plan
    tree thousands of times over tiny deltas; an attribute read per call
    is the only per-call cost this cache adds, unlike key-hashing the
    expression tree.
    """
    cached = node.__dict__.get("_batch_compiled")
    if cached is None:
        cached = factory()
        node.__dict__["_batch_compiled"] = cached
    return cached


def evaluate(plan: LogicalOp, tables: dict[str, Iterable[Row]]) -> list[Row]:
    """Evaluate ``plan`` against ``tables``.

    ``tables`` maps *source names* (and CTE names) to row collections;
    Scan leaves look up by their catalog entry name, CteRef leaves by
    their CTE name. Rows are re-qualified to the plan's binding names.
    """
    if isinstance(plan, Scan):
        return _scan_rows(plan.entry.name, plan.schema, tables)
    if isinstance(plan, CteRef):
        return _scan_rows(plan.name, plan.schema, tables)
    if isinstance(plan, RemoteSource):
        return _scan_rows(plan.name, plan.schema, tables)
    if isinstance(plan, Select):
        rows = evaluate(plan.child, tables)
        predicate = _node_compiled(
            plan, lambda: compile_expr(plan.predicate, plan.child.schema)
        )
        return [row for row in rows if predicate(row.values) is True]
    if isinstance(plan, Project):
        schema = plan.schema
        rows = _input_rows(plan.child, tables)
        project = _node_compiled(
            plan,
            lambda: compile_projection(
                [item.expr for item in plan.items], plan.child.schema
            ),
        )
        raw = Row.raw
        return [raw(schema, project(row.values)) for row in rows]
    if isinstance(plan, Join):
        return _join(plan, tables)
    if isinstance(plan, Aggregate):
        return _aggregate(plan, tables)
    if isinstance(plan, Distinct):
        seen: set[tuple] = set()
        out = []
        for row in evaluate(plan.child, tables):
            if row.values not in seen:
                seen.add(row.values)
                out.append(row)
        return out
    if isinstance(plan, OrderBy):
        rows = evaluate(plan.child, tables)
        key_fns = _node_compiled(
            plan,
            lambda: [compile_expr(item.expr, plan.child.schema) for item in plan.items],
        )

        def key(row: Row) -> tuple:
            parts = []
            for item, key_fn in zip(plan.items, key_fns):
                value = key_fn(row.values)
                null_rank = 0 if value is None else 1
                base = (null_rank, value if value is not None else 0)
                parts.append(base if item.ascending else _Descending(base))
            return tuple(parts)

        return sorted(rows, key=key)
    if isinstance(plan, Limit):
        return evaluate(plan.child, tables)[: plan.count]
    if isinstance(plan, Output):
        return evaluate(plan.child, tables)
    if isinstance(plan, Recursive):
        return fixpoint(plan, tables)
    raise ExecutionError(f"batch evaluator cannot handle {type(plan).__name__}")


def _scan_rows(name: str, schema: Schema, tables: dict[str, Iterable[Row]]) -> list[Row]:
    rows = _table_rows(name, tables)
    return [row if row.schema is schema else row.with_schema(schema) for row in rows]


def _table_rows(name: str, tables: dict[str, Iterable[Row]]) -> list[Row]:
    for key, rows in tables.items():
        if key.lower() == name.lower():
            return rows if isinstance(rows, list) else list(rows)
    raise ExecutionError(f"no table provided for {name!r}; have {sorted(tables)}")


def _input_rows(node: LogicalOp, tables: dict[str, Iterable[Row]]) -> list[Row]:
    """Child rows for an operator that *rebuilds* its output rows.

    Positional evaluation never consults row schemas, and a
    Project/Join parent constructs fresh rows under its own schema — so
    leaf rows can skip the per-row binding rebase entirely. Arity is
    checked once per table instead of once per row.
    """
    if isinstance(node, Scan):
        rows = _table_rows(node.entry.name, tables)
    elif isinstance(node, (CteRef, RemoteSource)):
        rows = _table_rows(node.name, tables)
    else:
        return evaluate(node, tables)
    arity = len(node.schema.fields)
    if any(len(row.values) != arity for row in rows):
        bad = next(row for row in rows if len(row.values) != arity)
        raise SchemaError(
            f"row has {len(bad.values)} values but schema has {arity} fields"
        )
    return rows


def _classify_join(plan: Join) -> tuple[list[tuple[str, str]], list]:
    """Split the join predicate into usable equi-key pairs + residual."""
    left_schema = plan.left.schema
    right_schema = plan.right.schema
    equi: list[tuple[str, str]] = []
    residual = []
    for conjunct in split_conjuncts(plan.predicate):
        pair = is_equijoin_conjunct(conjunct)
        if pair is not None:
            a, b = pair
            if left_schema.has(a) and right_schema.has(b):
                equi.append((a, b))
                continue
            if left_schema.has(b) and right_schema.has(a):
                equi.append((b, a))
                continue
        residual.append(conjunct)
    return equi, residual


def _compile_join(plan: Join):
    """One-time compiled state for a Join node: key extractors and the
    residual predicate, bound to the children's schemas."""
    equi, residual = _classify_join(plan)
    left_key = _positional_key(plan.left.schema, [lk for lk, _ in equi])
    right_key = _positional_key(plan.right.schema, [rk for _, rk in equi])
    residual_fn = compile_expr(conjoin(residual), plan.schema) if residual else None
    return len(equi), left_key, right_key, residual_fn


def _join(plan: Join, tables: dict[str, Iterable[Row]]) -> list[Row]:
    left_rows = _input_rows(plan.left, tables)
    right_rows = _input_rows(plan.right, tables)
    key_count, left_key, right_key, residual_fn = _node_compiled(
        plan, lambda: _compile_join(plan)
    )
    joined_schema = plan.schema  # == left.concat(right), built once
    raw = Row.raw
    out: list[Row] = []
    if key_count:
        index: dict[Any, list[Row]] = {}
        for row in right_rows:
            index.setdefault(right_key(row.values), []).append(row)
        # A NULL key component matches nothing (NULL = NULL is not
        # TRUE), so such a row never probes — which also leaves the
        # index's NULL-keyed buckets unreachable. _positional_key keys a
        # single column by its bare value, several by a tuple.
        single = key_count == 1
        for left_row in left_rows:
            left_values = left_row.values
            key = left_key(left_values)
            if (key is None) if single else (None in key):
                continue
            for right_row in index.get(key, ()):  # hash probe
                joined = raw(joined_schema, left_values + right_row.values)
                if residual_fn is None or residual_fn(joined.values) is True:
                    out.append(joined)
    else:
        for left_row in left_rows:
            left_values = left_row.values
            for right_row in right_rows:
                joined = raw(joined_schema, left_values + right_row.values)
                if residual_fn is None or residual_fn(joined.values) is True:
                    out.append(joined)
    return out


def _aggregate(plan: Aggregate, tables: dict[str, Iterable[Row]]) -> list[Row]:
    rows = evaluate(plan.child, tables)
    key_fn = _node_compiled(
        plan, lambda: compile_projection(plan.group_by, plan.child.schema)
    )
    groups: dict[tuple, list[Accumulator]] = {}
    for row in rows:
        key = key_fn(row.values)
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = [Accumulator(item.call) for item in plan.aggregates]
            groups[key] = accumulators
        for accumulator in accumulators:
            accumulator.add(row)
    if not groups and not plan.group_by:
        # Global aggregate over empty input still produces one row.
        groups[()] = [Accumulator(item.call) for item in plan.aggregates]
    out = []
    for key, accumulators in groups.items():
        values = list(key) + [a.result() for a in accumulators]
        out.append(Row(plan.schema, values, validate=False))
    return out


def fixpoint(plan: Recursive, tables: dict[str, Iterable[Row]]) -> list[Row]:
    """Naive-from-scratch fixpoint of a Recursive plan (set semantics).

    Used as the recomputation baseline for the incremental maintainer
    and for correctness oracles in tests.
    """
    cte_schema = plan.cte_schema
    # When a branch already produces the CTE schema (the planner's
    # _coerce_arity usually guarantees it), the per-row rebase is a no-op
    # for set semantics (Row equality/hash treat equal schemas alike).
    base_rebase = plan.base.schema != cte_schema
    step_rebase = plan.step.schema != cte_schema
    base_rows = evaluate(plan.base, tables)
    if base_rebase:
        base_rows = [row.with_schema(cte_schema) for row in base_rows]
    total: set[Row] = set(base_rows)
    delta = set(total)
    iterations = 0
    while delta:
        iterations += 1
        if iterations > 10_000:
            raise ExecutionError(f"recursive plan {plan.name} did not converge")
        step_tables = dict(tables)
        step_tables[plan.name] = list(delta)
        produced = evaluate(plan.step, step_tables)
        new_delta: set[Row] = set()
        for row in produced:
            rebased = row.with_schema(cte_schema) if step_rebase else row
            if rebased not in total:
                total.add(rebased)
                new_delta.add(rebased)
        delta = new_delta
    return list(total)
