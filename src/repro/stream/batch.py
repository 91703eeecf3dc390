"""Bounded evaluation: a logical plan over in-memory tables.

A bounded input is a stream that ends (CQL: a relation is a stream).
:func:`evaluate` lowers the plan with the one compiler every continuous
query takes (:class:`~repro.stream.compiler.PlanCompiler`), pushes each
table into its ports as one run, punctuates them to
:data:`~repro.stream.operators.END` and returns what the sink collected.
It serves one-shot table queries (``kind == "batch"`` cursors), the
recursive-view maintainer (semi-naive fixpoint, DRed deletion rewrites)
and the tests' oracles.

Ports are fed in reverse plan order, each run followed by its
punctuation. So a join's right side is buffered before its left side
probes it, and the join emits left-major: each left row's matches, in
right-side order. A side below an operator that holds rows until a
punctuation (an aggregate, an ORDER BY) has emitted before its sibling
arrives. A running global aggregate that folded no row emits SQL's
empty-input row at the end (:class:`~repro.stream.operators.AggregateOp`).

Leaves are fed by name, case-insensitively: a Scan by its catalog entry
name, a CteRef or RemoteSource by its own. Rows go in as the caller
holds them, each checked once against the leaf's arity; operators read
them by position, and a result that forwards leaf rows gets the plan's
schema on the way out (:func:`~repro.stream.compiler.result_sink`).
:func:`evaluate` compiles the plan on every call; a caller that
evaluates one plan many times keeps a :class:`BoundedPipeline`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable

from repro.data.streams import CollectingConsumer, Punctuation, push_all
from repro.data.tuples import Row
from repro.errors import ExecutionError, SchemaError
from repro.plan.logical import LogicalOp, Recursive, Scan
from repro.stream.compiler import PlanCompiler, result_sink
from repro.stream.operators import END


def evaluate(plan: LogicalOp, tables: dict[str, Iterable[Row]]) -> list[Row]:
    """Evaluate ``plan`` against ``tables``.

    ``tables`` maps *source names* (and CTE names) to row collections;
    Scan leaves look up by their catalog entry name, CteRef leaves by
    their CTE name. A Recursive plan goes to :func:`fixpoint` instead.
    """
    return BoundedPipeline(plan)(tables)


class BoundedPipeline:
    """``plan`` compiled once, for evaluating again and again: each call
    first restores every operator to its state before any row (the
    checkpoint pair, ``state_snapshot`` / ``state_restore``). The
    recursive-view maintainer evaluates its step thousands of times over
    small deltas and compiles it once."""

    def __init__(self, plan: LogicalOp):
        self._sink = CollectingConsumer()
        self._compiled = PlanCompiler().compile(plan, result_sink(plan, self._sink))
        self._fresh = [op.state_snapshot() for op in self._compiled.operators]
        self._arities = {
            (node.entry.name if isinstance(node, Scan) else node.name).lower(): len(node.schema)
            for node in plan.walk()
            if not node.children
        }

    def __call__(self, tables: dict[str, Iterable[Row]]) -> list[Row]:
        for op, state in zip(self._compiled.operators, self._fresh):
            op.state_restore(state)
        self._sink.clear()
        runs: dict[str, list[Row]] = {}
        for port in reversed(self._compiled.ports):
            name = port.source_name.lower()
            run = runs.get(name)
            if run is None:
                run = runs[name] = _run(port.source_name, self._arities[name], tables)
            push_all(port.consumer, run, [0.0] * len(run), "")
            port.consumer.push(_END)
        return self._sink.rows


_END = Punctuation(END)
_values = attrgetter("values")


def _run(name: str, arity: int, tables: dict[str, Iterable[Row]]) -> list[Row]:
    """One table's rows as a run, every row checked for arity."""
    for key, rows in tables.items():
        if key.lower() == name.lower():
            rows = rows if isinstance(rows, list) else list(rows)
            if set(map(len, map(_values, rows))) - {arity}:
                bad = next(row for row in rows if len(row.values) != arity)
                raise SchemaError(
                    f"row has {len(bad.values)} values but schema has {arity} fields"
                )
            return rows
    raise ExecutionError(f"no table provided for {name!r}; have {sorted(tables)}")


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
    step = BoundedPipeline(plan.step)
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
        produced = step(step_tables)
        new_delta: set[Row] = set()
        for row in produced:
            rebased = row.with_schema(cte_schema) if step_rebase else row
            if rebased not in total:
                total.add(rebased)
                new_delta.add(rebased)
        delta = new_delta
    return list(total)
