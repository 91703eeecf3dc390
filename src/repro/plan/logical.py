"""Logical query plans.

A logical plan is an operator tree independent of any engine. The
federated optimizer partitions logical plans between the sensor and
stream engines; each engine then instantiates physical operators for its
fragment.

Operators are immutable; rewrites build new trees. That is load-bearing:
a node caches what is derived from its subtree alone on itself, once,
when first read — a join's shape (:attr:`Join.equi`, ...), the
structural :attr:`~LogicalOp.fingerprint` and the :attr:`~LogicalOp
.sharing` verdict — and the plan cache hands one plan object to every
admission of a statement, so a write after construction would leave
those values describing another tree. The engine-invariant linter
enforces it (RA908): a subclass assigns attributes in its own
``__init__`` only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Iterator

from repro.catalog import SourceEntry, SourceKind
from repro.data.schema import Field, Schema
from repro.data.windows import DEFAULT_STREAM_WINDOW, WindowKind, WindowSpec
from repro.errors import PlanError
from repro.sql.ast import OrderItem
from repro.sql.expressions import (
    AggregateCall,
    Expr,
    conjoin,
    is_equijoin_conjunct,
    split_conjuncts,
)

_plan_ids = itertools.count(1)


class LogicalOp:
    """Base class for logical operators."""

    def __init__(self) -> None:
        self.plan_id = next(_plan_ids)

    @property
    def schema(self) -> Schema:
        """Output schema of this operator."""
        raise NotImplementedError

    @property
    def children(self) -> tuple["LogicalOp", ...]:
        return ()

    def relations(self) -> set[str]:
        """Binding names of all base relations under this operator."""
        out: set[str] = set()
        for node in self.walk():
            if isinstance(node, Scan):
                out.add(node.binding)
            elif isinstance(node, CteRef):
                out.add(node.binding)
            elif isinstance(node, RemoteSource):
                quals = {f.qualifier for f in node.schema if f.qualifier is not None}
                out |= quals or {node.name}
        return out

    @cached_property
    def fingerprint(self) -> tuple | None:
        """Structural identity of this subtree, or None when it is never
        shared.

        Two subtrees with equal fingerprints compile to operator
        pipelines that transform identical inputs into identical
        outputs: every semantic detail — source, binding, window,
        predicate and projection renders, aggregate calls, key names —
        participates. Bindings matter because a chain's output schema is
        binding-qualified: a projecting or aggregating chain builds its
        rows under that schema, so sharing across bindings would deliver
        rows under another query's field names. A subtree over a node
        without one has none. Output (display side effects would
        dedupe), RemoteSource and ExchangeSource (fed by name from
        another engine or shard), CteRef and Recursive keep this None.
        """
        return None

    @cached_property
    def sharing(self) -> tuple[bool, str, str]:
        """Why this plan may (or may not) run as a shared chain
        (:mod:`repro.stream.multiplex`).

        ``(shareable, code, reason)`` with a stable ``RA4xx`` code (see
        :mod:`repro.analysis.diagnostics`): the registry acts on it at
        admission and ``session.explain`` reports it. Chain-warmth
        declines are runtime state, not eligibility, and are not
        reported here.
        """
        for node in self.walk():
            if isinstance(node, Output):
                return (
                    False,
                    "RA401",
                    "OUTPUT TO DISPLAY has per-query side effects; a shared "
                    "chain would fire the display once for N queries",
                )
            if isinstance(node, CteRef):
                return (
                    False,
                    "RA403",
                    "recursive CTE references evaluate per query on the batch "
                    "engine and are never shared",
                )
            if isinstance(node, RemoteSource):
                return (
                    False,
                    "RA402",
                    f"remote feed {node.name!r} is delivered per engine; "
                    "tee-sharing it would double-deliver fragment outputs",
                )
            if isinstance(node, Scan) and node.entry.kind is not SourceKind.STREAM:
                return (
                    False,
                    "RA404",
                    f"stored table {node.entry.name!r} is replayed into fresh "
                    "queries at execute time, which a late tee attach cannot "
                    "reproduce",
                )
        if self.fingerprint is None:
            return (
                False,
                "RA405",
                "plan shape has no structural fingerprint; identity cannot be "
                "established across queries",
            )
        return True, "RA400", "structurally fingerprintable over stream scans only"

    def walk(self) -> Iterator["LogicalOp"]:
        """Pre-order traversal."""
        yield self
        for child in self.children:
            yield from child.walk()

    def describe(self) -> str:
        """One-line description (no children)."""
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        """Multi-line plan rendering, children indented."""
        lines = ["  " * indent + self.describe()]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} #{self.plan_id} {self.describe()}>"


class Scan(LogicalOp):
    """Leaf: scan one catalog source (stream or table), optionally windowed.

    The schema is the source schema qualified by the query binding, so a
    plan over ``SeatSensors ss`` produces ``ss.room``, ``ss.desk``, ...
    """

    def __init__(self, entry: SourceEntry, binding: str, window: WindowSpec | None = None):
        super().__init__()
        self.entry = entry
        self.binding = binding
        self.window = window
        self._schema = entry.schema.qualified(binding)

    @property
    def schema(self) -> Schema:
        return self._schema

    @cached_property
    def fingerprint(self) -> tuple:
        # The column layout participates: a source detached and attached
        # again under the same name with other columns is another scan.
        return (
            "scan",
            self.entry.name.lower(),
            self.binding,
            self.window.render() if self.window is not None else None,
            tuple((f.name, f.dtype.value) for f in self._schema),
        )

    def describe(self) -> str:
        window = f" {self.window.render()}" if self.window else ""
        return f"Scan({self.entry.name} AS {self.binding}{window}) @{self.entry.location.value}"


class RemoteSource(LogicalOp):
    """Leaf: a stream arriving from another engine (already qualified).

    The federated optimizer replaces a pushed-down sensor fragment with a
    RemoteSource carrying the fragment's output schema and estimated
    arrival rate; the stream engine treats it like any other feed whose
    port is wired to the basestation delivery callback. ``window`` is
    the window of the subtree the leaf replaced (:func:`side_window`),
    so a join over the feed buffers it as it would the subtree.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        rate: float = 1.0,
        partition_by: tuple[str, ...] = (),
        window: WindowSpec = DEFAULT_STREAM_WINDOW,
    ):
        super().__init__()
        self.name = name
        self._schema = schema
        self.rate = rate
        self.window = window
        #: Columns of ``schema`` the feed is already hashed on (the
        #: fragment's GROUP BY / join-site key, set by the federated
        #: optimizer; exchange feeds set their shuffle key). Empty means
        #: the feed carries no key and round-robins across shards.
        self.partition_by = tuple(partition_by)

    @property
    def schema(self) -> Schema:
        return self._schema

    def relations(self) -> set[str]:
        # A remote source stands in for every relation its fragment read;
        # expose its own name so join enumeration treats it atomically.
        quals = {f.qualifier for f in self._schema if f.qualifier is not None}
        return quals or {self.name}

    def describe(self) -> str:
        return f"RemoteSource({self.name}, rate={self.rate:g}/s)"


class CteRef(LogicalOp):
    """Leaf: reference to a recursive CTE's working relation."""

    def __init__(self, name: str, binding: str, schema: Schema):
        super().__init__()
        self.name = name
        self.binding = binding
        self._schema = schema.qualified(binding)

    @property
    def schema(self) -> Schema:
        return self._schema

    def describe(self) -> str:
        return f"CteRef({self.name} AS {self.binding})"


class Select(LogicalOp):
    """Filter rows by a boolean predicate."""

    def __init__(self, child: LogicalOp, predicate: Expr):
        super().__init__()
        self.child = child
        self.predicate = predicate

    @cached_property
    def fingerprint(self) -> tuple | None:
        child = self.child.fingerprint
        return None if child is None else ("select", child, self.predicate.render())

    @property
    def schema(self) -> Schema:
        return self.child.schema

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Select({self.predicate.render()})"


@dataclass(frozen=True)
class ProjectItem:
    """One computed output column."""

    expr: Expr
    name: str


class Project(LogicalOp):
    """Compute output columns from input rows."""

    def __init__(self, child: LogicalOp, items: list[ProjectItem]):
        super().__init__()
        if not items:
            raise PlanError("Project requires at least one item")
        self.child = child
        self.items = list(items)
        self._schema = Schema(
            Field(item.name, item.expr.dtype(child.schema)) for item in items
        )

    @cached_property
    def fingerprint(self) -> tuple | None:
        child = self.child.fingerprint
        if child is None:
            return None
        return (
            "project",
            child,
            tuple((item.expr.render(), item.name) for item in self.items),
        )

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def describe(self) -> str:
        inner = ", ".join(
            item.name if item.expr.render() == item.name else f"{item.expr.render()} AS {item.name}"
            for item in self.items
        )
        return f"Project({inner})"


class Join(LogicalOp):
    """Binary (window) join. ``predicate`` may be None for a cross product.

    The join's physical shape — :attr:`windows`, :attr:`equi` and
    :attr:`residual` — is resolved on the node, once, when first read:
    the compiler, the analyses and the partitioner all read it there.
    (Lazily, so the join orders an optimizer only prices never pay.)
    """

    def __init__(self, left: LogicalOp, right: LogicalOp, predicate: Expr | None = None):
        super().__init__()
        self.left = left
        self.right = right
        self.predicate = predicate
        self._schema = left.schema.concat(right.schema)

    @cached_property
    def fingerprint(self) -> tuple | None:
        left, right = self.left.fingerprint, self.right.fingerprint
        if left is None or right is None:
            return None
        predicate = self.predicate.render() if self.predicate is not None else None
        return ("join", left, right, predicate)

    @cached_property
    def windows(self) -> tuple[WindowSpec, WindowSpec]:
        """Each side's :func:`side_window`: how long its rows stay buffered."""
        return side_window(self.left), side_window(self.right)

    @cached_property
    def equi(self) -> tuple[tuple[str, str], ...]:
        """``(left column, right column)`` per conjunct ``a = b`` that
        compares one side with the other: the join's hash keys."""
        pairs = map(self._oriented, split_conjuncts(self.predicate))
        return tuple(pair for pair in pairs if pair is not None)

    @cached_property
    def residual(self) -> Expr | None:
        """Every conjunct that is not an :attr:`equi` key, conjoined
        (None when there is none)."""
        conjuncts = split_conjuncts(self.predicate)
        return conjoin([c for c in conjuncts if self._oriented(c) is None])

    def _oriented(self, conjunct: Expr) -> tuple[str, str] | None:
        pair = is_equijoin_conjunct(conjunct)
        if pair is None:
            return None
        a, b = pair
        left, right = self.left.schema, self.right.schema
        if left.has(a) and right.has(b):
            return (a, b)
        if left.has(b) and right.has(a):
            return (b, a)
        return None

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        pred = self.predicate.render() if self.predicate is not None else "TRUE"
        left, right = (window.render()[1:-1] for window in self.windows)
        return f"Join({pred}) [{left} | {right}]"


@dataclass(frozen=True)
class AggregateItem:
    """One aggregate output column (``SUM(m.cpu) AS total_cpu``)."""

    call: AggregateCall
    name: str


class Aggregate(LogicalOp):
    """Grouped (windowed) aggregation.

    Output schema is group keys followed by aggregate columns. The
    ``window`` is the one the query declared; :attr:`closing_window` is
    the one that decides when groups are emitted.
    """

    def __init__(
        self,
        child: LogicalOp,
        group_by: list[Expr],
        aggregates: list[AggregateItem],
        window: WindowSpec | None = None,
        key_names: list[str] | None = None,
    ):
        super().__init__()
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        self.window = window
        names = key_names or [e.render() for e in group_by]
        if len(names) != len(group_by):
            raise PlanError("key_names must match group_by length")
        self.key_names = names
        fields = [
            Field(name, expr.dtype(child.schema))
            for name, expr in zip(names, group_by)
        ]
        fields += [
            Field(item.name, item.call.dtype(child.schema)) for item in aggregates
        ]
        self._schema = Schema(fields)

    @cached_property
    def fingerprint(self) -> tuple | None:
        child = self.child.fingerprint
        if child is None:
            return None
        return (
            "aggregate",
            child,
            tuple(expr.render() for expr in self.group_by),
            tuple(self.key_names),
            tuple((item.call.render(), item.name) for item in self.aggregates),
            self.window.render() if self.window is not None else None,
        )

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    @property
    def closing_window(self) -> WindowSpec | None:
        """The RANGE window whose close emits the groups, or None: the
        aggregate then emits running totals at every punctuation (a
        declared ROWS or NOW window is not applied)."""
        window = self.window
        if window is not None and window.kind is WindowKind.RANGE:
            return window
        return None

    def describe(self) -> str:
        keys = ", ".join(e.render() for e in self.group_by) or "<global>"
        aggs = ", ".join(f"{i.call.render()} AS {i.name}" for i in self.aggregates)
        window = f" {self.window.render()}" if self.window else ""
        return f"Aggregate(keys=[{keys}], aggs=[{aggs}]{window})"


class Distinct(LogicalOp):
    """Duplicate elimination over the full row."""

    def __init__(self, child: LogicalOp):
        super().__init__()
        self.child = child

    @cached_property
    def fingerprint(self) -> tuple | None:
        child = self.child.fingerprint
        return None if child is None else ("distinct", child)

    @property
    def schema(self) -> Schema:
        return self.child.schema

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def describe(self) -> str:
        return "Distinct"


class OrderBy(LogicalOp):
    """Sort (per punctuation batch, since streams never end)."""

    def __init__(self, child: LogicalOp, items: list[OrderItem]):
        super().__init__()
        self.child = child
        self.items = list(items)

    @cached_property
    def fingerprint(self) -> tuple | None:
        child = self.child.fingerprint
        if child is None:
            return None
        return ("orderby", child, tuple(item.render() for item in self.items))

    @property
    def schema(self) -> Schema:
        return self.child.schema

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def describe(self) -> str:
        inner = ", ".join(i.render() for i in self.items)
        return f"OrderBy({inner})"


class Limit(LogicalOp):
    """Emit at most ``count`` rows per punctuation batch."""

    def __init__(self, child: LogicalOp, count: int):
        super().__init__()
        if count < 0:
            raise PlanError("LIMIT must be non-negative")
        self.child = child
        self.count = count

    @cached_property
    def fingerprint(self) -> tuple | None:
        child = self.child.fingerprint
        return None if child is None else ("limit", child, self.count)

    @property
    def schema(self) -> Schema:
        return self.child.schema

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Limit({self.count})"


class Recursive(LogicalOp):
    """Fixpoint of ``base UNION step`` — the transitive-closure operator.

    ``step`` contains one or more :class:`CteRef` leaves naming this
    operator. Output schema is the CTE schema (unqualified column names).
    """

    def __init__(self, name: str, cte_schema: Schema, base: LogicalOp, step: LogicalOp):
        super().__init__()
        self.name = name
        self.cte_schema = cte_schema
        self.base = base
        self.step = step
        if len(base.schema) != len(cte_schema) or len(step.schema) != len(cte_schema):
            raise PlanError(
                f"recursive plan {name}: base/step arity does not match CTE schema"
            )

    @property
    def schema(self) -> Schema:
        return self.cte_schema

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.base, self.step)

    def describe(self) -> str:
        return f"Recursive({self.name})"


class Output(LogicalOp):
    """Route results to a registered display (the paper's OUTPUT TO extension)."""

    def __init__(self, child: LogicalOp, display: str, every: float | None = None):
        super().__init__()
        self.child = child
        self.display = display
        self.every = every

    @property
    def schema(self) -> Schema:
        return self.child.schema

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def describe(self) -> str:
        every = f" EVERY {self.every:g}s" if self.every is not None else ""
        return f"Output(display={self.display!r}{every})"


def scans_of(plan: LogicalOp) -> list[Scan]:
    """All Scan leaves of a plan, left-to-right."""
    return [node for node in plan.walk() if isinstance(node, Scan)]


def scan_window(scan: Scan) -> WindowSpec:
    """The window ``scan`` runs under: the declared one, else UNBOUNDED
    for a stored table and :data:`DEFAULT_STREAM_WINDOW` for a stream."""
    if scan.window is not None:
        return scan.window
    if scan.entry.kind is SourceKind.TABLE:
        return WindowSpec.unbounded()
    return DEFAULT_STREAM_WINDOW


def side_window(node: LogicalOp) -> WindowSpec:
    """The window a join buffers ``node``'s rows under.

    The widest RANGE window among the leaves beneath ``node``, else the
    widest ROWS window, else the first NOW; UNBOUNDED when every leaf
    is (the side reads only stored tables). A scan contributes
    :func:`scan_window`, a remote or exchange feed the window it
    carries.
    """
    finite: list[WindowSpec] = []
    for leaf in node.walk():
        if isinstance(leaf, Scan):
            window = scan_window(leaf)
        elif isinstance(leaf, RemoteSource):
            window = leaf.window
        else:
            continue
        if window.kind is not WindowKind.UNBOUNDED:
            finite.append(window)
    if not finite:
        return WindowSpec.unbounded()
    for kind in (WindowKind.RANGE, WindowKind.ROWS):
        sized = [w for w in finite if w.kind is kind]
        if sized:
            return max(sized, key=lambda w: w.size)
    return finite[0]


def replace_child(op: LogicalOp, old: LogicalOp, new: LogicalOp) -> LogicalOp:
    """Rebuild ``op`` with ``old`` (an immediate child) replaced by ``new``."""
    if isinstance(op, Select):
        return Select(new if op.child is old else op.child, op.predicate)
    if isinstance(op, Project):
        return Project(new if op.child is old else op.child, op.items)
    if isinstance(op, Join):
        left = new if op.left is old else op.left
        right = new if op.right is old else op.right
        return Join(left, right, op.predicate)
    if isinstance(op, Aggregate):
        return Aggregate(
            new if op.child is old else op.child,
            op.group_by,
            op.aggregates,
            op.window,
            op.key_names,
        )
    if isinstance(op, Distinct):
        return Distinct(new if op.child is old else op.child)
    if isinstance(op, OrderBy):
        return OrderBy(new if op.child is old else op.child, op.items)
    if isinstance(op, Limit):
        return Limit(new if op.child is old else op.child, op.count)
    if isinstance(op, Output):
        return Output(new if op.child is old else op.child, op.display, op.every)
    if isinstance(op, Recursive):
        base = new if op.base is old else op.base
        step = new if op.step is old else op.step
        return Recursive(op.name, op.cte_schema, base, step)
    raise PlanError(f"cannot replace child of {type(op).__name__}")
