"""Scalar and aggregate expressions.

One expression tree serves three layers: the Stream SQL parser produces
it, the analyzer/typing pass validates it against schemas, and the
physical operators evaluate it against :class:`~repro.data.tuples.Row`
values. Keeping a single representation avoids a lowering step and makes
plans renderable back to SQL (used by the federated optimizer when it
ships a fragment to a remote engine).
"""

from __future__ import annotations

import fnmatch
import math
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.data.schema import Schema
from repro.data.types import (
    NUMERIC_TYPES,
    ORDERED_TYPES,
    DataType,
    common_type,
    infer_type,
)
from repro.errors import AnalysisError, ExecutionError, TypeMismatchError


class Expr:
    """Base class for scalar expressions."""

    def eval(self, row: Any) -> Any:
        """Evaluate against a row (anything supporting ``row[name]``)."""
        raise NotImplementedError

    def dtype(self, schema: Schema) -> DataType:
        """Static result type under ``schema``; raises on type errors."""
        raise NotImplementedError

    def columns(self) -> list[str]:
        """All column names referenced, in first-appearance order."""
        out: list[str] = []
        for node in self.walk():
            if isinstance(node, ColumnRef) and node.name not in out:
                out.append(node.name)
        return out

    def relations(self) -> set[str]:
        """Relation qualifiers referenced by this expression."""
        quals = set()
        for name in self.columns():
            if "." in name:
                quals.add(name.rsplit(".", 1)[0])
        return quals

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def children(self) -> tuple["Expr", ...]:
        return ()

    def render(self) -> str:
        """Render back to Stream SQL surface syntax."""
        raise NotImplementedError

    def contains_aggregate(self) -> bool:
        """True if any node in the tree is an :class:`AggregateCall`."""
        return any(isinstance(node, AggregateCall) for node in self.walk())

    # Convenience builders so plans can be written fluently in Python.
    def __and__(self, other: "Expr") -> "Expr":
        return BinaryOp("AND", self, other)

    def __or__(self, other: "Expr") -> "Expr":
        return BinaryOp("OR", self, other)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.render()}>"


@dataclass(frozen=True, repr=False)
class Literal(Expr):
    """A constant value."""

    value: Any

    def eval(self, row: Any) -> Any:
        return self.value

    def dtype(self, schema: Schema) -> DataType:
        return infer_type(self.value)

    def render(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if self.value is None:
            return "NULL"
        return f"{self.value:g}" if isinstance(self.value, float) else str(self.value)


@dataclass(frozen=True, repr=False)
class ColumnRef(Expr):
    """A (possibly qualified) column reference."""

    name: str

    def eval(self, row: Any) -> Any:
        return row[self.name]

    def dtype(self, schema: Schema) -> DataType:
        return schema.dtype(self.name)

    def render(self) -> str:
        return self.name

    @property
    def bare_name(self) -> str:
        return self.name.rsplit(".", 1)[-1]

    @property
    def qualifier(self) -> str | None:
        return self.name.rsplit(".", 1)[0] if "." in self.name else None


class Parameter(Expr):
    """A named placeholder (``:name``) bound at execution time.

    Prepared statements (:meth:`repro.api.Session.prepare`) parse, analyze
    and plan a statement once with Parameter leaves left in place. Each
    execution rebinds the parameter's value slot; compiled evaluators
    (:mod:`repro.sql.compiled`) read the slot per call, so the plan — and
    its memoized compiled closures — are reused across executions.

    Instances are identity-equal: every ``:name`` occurrence in the text
    is its own node, and a prepared statement binds all occurrences of a
    name together. Evaluating an unbound parameter raises
    :class:`~repro.errors.ExecutionError`.
    """

    _UNBOUND = object()

    def __init__(self, name: str):
        self.name = name
        self._value: Any = Parameter._UNBOUND

    @property
    def bound(self) -> bool:
        return self._value is not Parameter._UNBOUND

    def bind(self, value: Any) -> None:
        self._value = value

    def unbind(self) -> None:
        self._value = Parameter._UNBOUND

    def value(self) -> Any:
        """Current binding; raises when unbound (used by compiled code)."""
        if self._value is Parameter._UNBOUND:
            raise ExecutionError(f"parameter :{self.name} is not bound")
        return self._value

    def eval(self, row: Any) -> Any:
        return self.value()

    def dtype(self, schema: Schema) -> DataType:
        # The value's type is unknown until execution; NULL is absorbed
        # by every type in common_type, so parameters compose with any
        # comparison or arithmetic context.
        return DataType.NULL

    def render(self) -> str:
        return f":{self.name}"


def collect_parameters(exprs: "Iterator[Expr] | list[Expr]") -> dict[str, list[Parameter]]:
    """Group every :class:`Parameter` occurrence in ``exprs`` by name."""
    out: dict[str, list[Parameter]] = {}
    for expr in exprs:
        for node in expr.walk():
            if isinstance(node, Parameter):
                out.setdefault(node.name, []).append(node)
    return out


def _like_to_regex(pattern: str) -> re.Pattern[str]:
    """Compile a SQL LIKE pattern (``%``, ``_``) to an anchored regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.IGNORECASE | re.DOTALL)


_COMPARISONS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}


@dataclass(frozen=True, repr=False)
class BinaryOp(Expr):
    """A binary operation: comparison, arithmetic, boolean connective or LIKE.

    The paper's demo query uses ``^`` as conjunction in its figure; the
    parser normalises both ``AND`` and ``^`` to the operator ``"AND"``.
    """

    op: str
    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def eval(self, row: Any) -> Any:
        op = self.op
        if op == "AND":
            left = self.left.eval(row)
            if left is False:
                return False
            right = self.right.eval(row)
            if right is False:
                return False
            if left is None or right is None:
                return None
            return True
        if op == "OR":
            left = self.left.eval(row)
            if left is True:
                return True
            right = self.right.eval(row)
            if right is True:
                return True
            if left is None or right is None:
                return None
            return False
        left = self.left.eval(row)
        right = self.right.eval(row)
        if left is None or right is None:
            return None
        try:
            if op in _COMPARISONS:
                return _COMPARISONS[op](left, right)
            if op in _ARITHMETIC:
                if op in ("/", "%") and right == 0:
                    return None  # SQL: division by zero yields NULL here
                return _ARITHMETIC[op](left, right)
            if op == "LIKE":
                return bool(_like_to_regex(str(right)).match(str(left)))
            if op == "NOT LIKE":
                return not _like_to_regex(str(right)).match(str(left))
        except TypeError as exc:
            raise ExecutionError(f"cannot apply {op} to {left!r} and {right!r}") from exc
        raise ExecutionError(f"unknown binary operator {op!r}")

    def dtype(self, schema: Schema) -> DataType:
        op = self.op
        lt = self.left.dtype(schema)
        rt = self.right.dtype(schema)
        if op in ("AND", "OR"):
            for side, t in (("left", lt), ("right", rt)):
                if t not in (DataType.BOOL, DataType.NULL):
                    raise AnalysisError(f"{op} requires boolean operands; {side} is {t.value}")
            return DataType.BOOL
        if op in _COMPARISONS:
            merged = common_type(lt, rt)  # raises on incomparable types
            if op not in ("=", "!=", "<>") and merged not in ORDERED_TYPES | {DataType.NULL}:
                raise AnalysisError(f"ordering comparison {op} undefined for {merged.value}")
            return DataType.BOOL
        if op in _ARITHMETIC:
            merged = common_type(lt, rt)
            if op == "+" and merged is DataType.STRING:
                return DataType.STRING  # string concatenation
            if merged not in NUMERIC_TYPES | {DataType.TIMESTAMP, DataType.NULL}:
                raise AnalysisError(f"arithmetic {op} undefined for {merged.value}")
            if op == "/":
                return DataType.FLOAT
            return merged
        if op in ("LIKE", "NOT LIKE"):
            for side, t in (("left", lt), ("right", rt)):
                if t not in (DataType.STRING, DataType.NULL):
                    raise AnalysisError(f"LIKE requires string operands; {side} is {t.value}")
            return DataType.BOOL
        raise AnalysisError(f"unknown binary operator {self.op!r}")

    def render(self) -> str:
        return f"({self.left.render()} {self.op} {self.right.render()})"


@dataclass(frozen=True, repr=False)
class UnaryOp(Expr):
    """NOT, unary minus, IS NULL, IS NOT NULL."""

    op: str
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def eval(self, row: Any) -> Any:
        value = self.operand.eval(row)
        if self.op == "NOT":
            return None if value is None else (not value)
        if self.op == "-":
            return None if value is None else -value
        if self.op == "IS NULL":
            return value is None
        if self.op == "IS NOT NULL":
            return value is not None
        raise ExecutionError(f"unknown unary operator {self.op!r}")

    def dtype(self, schema: Schema) -> DataType:
        inner = self.operand.dtype(schema)
        if self.op == "NOT":
            if inner not in (DataType.BOOL, DataType.NULL):
                raise AnalysisError(f"NOT requires boolean, got {inner.value}")
            return DataType.BOOL
        if self.op == "-":
            if inner not in NUMERIC_TYPES | {DataType.NULL}:
                raise AnalysisError(f"unary minus requires numeric, got {inner.value}")
            return inner if inner is not DataType.NULL else DataType.INT
        if self.op in ("IS NULL", "IS NOT NULL"):
            return DataType.BOOL
        raise AnalysisError(f"unknown unary operator {self.op!r}")

    def render(self) -> str:
        if self.op in ("IS NULL", "IS NOT NULL"):
            return f"({self.operand.render()} {self.op})"
        return f"({self.op} {self.operand.render()})"


_SCALAR_FUNCTIONS: dict[str, tuple[Callable[..., Any], DataType | None]] = {
    # name -> (implementation, fixed return type or None meaning "same as arg")
    "ABS": (abs, None),
    "SQRT": (math.sqrt, DataType.FLOAT),
    "FLOOR": (lambda x: float(math.floor(x)), DataType.FLOAT),
    "CEIL": (lambda x: float(math.ceil(x)), DataType.FLOAT),
    "ROUND": (lambda x, n=0: round(float(x), int(n)), DataType.FLOAT),
    "LOWER": (lambda s: str(s).lower(), DataType.STRING),
    "UPPER": (lambda s: str(s).upper(), DataType.STRING),
    "LENGTH": (lambda s: len(str(s)), DataType.INT),
    "COALESCE": (lambda *xs: next((x for x in xs if x is not None), None), None),
    "GREATEST": (lambda *xs: max(xs), None),
    "LEAST": (lambda *xs: min(xs), None),
}


@dataclass(frozen=True, repr=False)
class FunctionCall(Expr):
    """A scalar function call (``ABS``, ``LOWER``, ``COALESCE``, ...)."""

    name: str
    args: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def eval(self, row: Any) -> Any:
        upper = self.name.upper()
        if upper not in _SCALAR_FUNCTIONS:
            raise ExecutionError(f"unknown function {self.name!r}")
        fn, _ = _SCALAR_FUNCTIONS[upper]
        values = [arg.eval(row) for arg in self.args]
        if upper != "COALESCE" and any(v is None for v in values):
            return None
        return fn(*values)

    def dtype(self, schema: Schema) -> DataType:
        upper = self.name.upper()
        if upper not in _SCALAR_FUNCTIONS:
            raise AnalysisError(f"unknown function {self.name!r}")
        _, fixed = _SCALAR_FUNCTIONS[upper]
        arg_types = [a.dtype(schema) for a in self.args]
        if fixed is not None:
            return fixed
        if not arg_types:
            raise AnalysisError(f"{self.name} requires at least one argument")
        merged = arg_types[0]
        for t in arg_types[1:]:
            merged = common_type(merged, t)
        return merged

    def render(self) -> str:
        inner = ", ".join(a.render() for a in self.args)
        return f"{self.name.upper()}({inner})"


AGGREGATE_NAMES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})

#: Aggregates a mote can compute incrementally in-network (TAG-style
#: partial-state records). All five decompose, so all are pushable.
SENSOR_PUSHABLE_AGGREGATES = AGGREGATE_NAMES


@dataclass(frozen=True, repr=False)
class AggregateCall(Expr):
    """An aggregate function over a window / group (``SUM(m.cpu)``).

    ``COUNT(*)`` is represented with ``argument=None``. ``eval`` is
    deliberately unimplemented: aggregates are computed by the aggregate
    operator, which evaluates the *argument* per row and combines.
    """

    name: str
    argument: Expr | None = None
    distinct: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.argument,) if self.argument is not None else ()

    @property
    def empty(self) -> Any:
        """The call's value over no rows: 0 for COUNT, NULL otherwise."""
        return 0 if self.name.upper() == "COUNT" else None

    def eval(self, row: Any) -> Any:
        raise ExecutionError(
            f"aggregate {self.name} cannot be evaluated per-row; "
            "it must be computed by an Aggregate operator"
        )

    def dtype(self, schema: Schema) -> DataType:
        upper = self.name.upper()
        if upper not in AGGREGATE_NAMES:
            raise AnalysisError(f"unknown aggregate {self.name!r}")
        if self.argument is None and (upper != "COUNT" or self.distinct):
            # COUNT(DISTINCT *) names no value to deduplicate.
            raise AnalysisError(f"{self.render()} requires an argument")
        if upper == "COUNT":
            return DataType.INT
        inner = self.argument.dtype(schema)
        if upper == "AVG":
            if inner not in NUMERIC_TYPES | {DataType.NULL}:
                raise AnalysisError(f"AVG undefined for {inner.value}")
            return DataType.FLOAT
        if upper == "SUM":
            if inner not in NUMERIC_TYPES | {DataType.NULL}:
                raise AnalysisError(f"SUM undefined for {inner.value}")
            return inner if inner is not DataType.NULL else DataType.INT
        # MIN / MAX preserve their argument type.
        if inner not in ORDERED_TYPES | {DataType.NULL}:
            raise AnalysisError(f"{upper} undefined for {inner.value}")
        return inner

    def render(self) -> str:
        arg = "*" if self.argument is None else self.argument.render()
        distinct = "DISTINCT " if self.distinct else ""
        return f"{self.name.upper()}({distinct}{arg})"


class Accumulator:
    """The interpreter's incremental state for one aggregate call within
    one group: what :class:`AggregateCall` declines to do per row."""

    __slots__ = (
        "call", "name", "count", "total", "values", "distinct",
        "_counts_rows", "_sums", "_orders", "_dedups",
    )

    def __init__(self, call: AggregateCall):
        self.call = call
        self.name = call.name.upper()
        self.count = 0
        self.total: Any = 0
        self.values: list[Any] = []  # only kept for MIN/MAX/DISTINCT
        self.distinct: set[Any] = set()
        # Kind flags resolved once: add_value runs per row per call on
        # the hot accumulate path, so no string comparison happens there.
        self._counts_rows = call.argument is None  # COUNT(*)
        self._sums = self.name in ("SUM", "AVG")
        self._orders = self.name in ("MIN", "MAX")
        self._dedups = call.distinct

    def add(self, row: Any) -> None:
        if self._counts_rows:
            self.count += 1
            return
        self.add_value(self.call.argument.eval(row))

    def add_value(self, value: Any) -> None:
        """Fold one already-evaluated argument value (the merge of
        shard partials feeds these)."""
        if value is None:
            return
        if self._dedups:
            if value in self.distinct:
                return
            self.distinct.add(value)
        self.count += 1
        if self._sums:
            self.total += value
        elif self._orders:
            self.values.append(value)

    def result(self) -> Any:
        if self.name == "COUNT":
            return self.count
        if self.count == 0:
            return None
        if self.name == "SUM":
            return self.total
        if self.name == "AVG":
            return self.total / self.count
        if self.name == "MIN":
            return min(self.values)
        if self.name == "MAX":
            return max(self.values)
        raise ExecutionError(f"unknown aggregate {self.name}")

    def copy(self) -> "Accumulator":
        """Detached copy for checkpoints (the call itself is immutable)."""
        dup = Accumulator(self.call)
        dup.count = self.count
        dup.total = self.total
        dup.values = list(self.values)
        dup.distinct = set(self.distinct)
        return dup


class _PartialItem:
    """The interpreter's stage-1 state for one aggregate call within one
    group of a two-phase (exchanged) aggregation: what the generated
    partial fold (``repro.sql.compiled.compile_partial``) keeps in its
    slots, kept by the interpreter's rung instead.

    Unlike :class:`Accumulator` it keeps state the merge shard can
    re-fold: :meth:`take` encodes it as tagged, marshal-safe tuples —
    ``("c", count)`` for COUNT; ``("m", extreme)`` for MIN/MAX (``None``
    when no value arrived); ``("s", [(ts, value), ...])`` for SUM/AVG;
    ``("d", [(ts, value), ...])`` for DISTINCT calls (deduplicated per
    shard, the merge dedups again globally). The float-folding kinds
    carry element timestamps so the merge can re-add values in global
    arrival order (float addition commutes but does not associate).
    """

    __slots__ = ("call", "_kind", "_max", "distinct", "count", "pairs", "values")

    def __init__(self, call: AggregateCall):
        self.call = call
        name = call.name.upper()
        if call.distinct:
            self._kind = "d"
        elif name in ("SUM", "AVG"):
            self._kind = "s"
        elif name in ("MIN", "MAX"):
            self._kind = "m"
        else:
            self._kind = "c"
        self._max = name == "MAX"
        self.distinct: set[Any] = set()  # persistent across takes
        self.count = 0
        self.pairs: list[tuple[float, Any]] = []
        self.values: list[Any] = []

    def add(self, row: Any, timestamp: float) -> None:
        """Fold one row (COUNT(*) counts a non-NULL stand-in)."""
        argument = self.call.argument
        value = 0 if argument is None else argument.eval(row)
        if value is None:
            return
        kind = self._kind
        if kind == "d":
            if value in self.distinct:
                return
            self.distinct.add(value)
            self.pairs.append((timestamp, value))
        elif kind == "s":
            self.pairs.append((timestamp, value))
        elif kind == "m":
            self.values.append(value)
        else:
            self.count += 1

    def take(self) -> tuple:
        """Encode and reset the state gathered since the last call. The
        DISTINCT seen-set is the one piece that persists, so a running
        aggregate ships a value at most once per shard."""
        kind = self._kind
        if kind in ("d", "s"):
            out = (kind, self.pairs)
            self.pairs = []
            return out
        if kind == "m":
            if not self.values:
                return ("m", None)
            out = ("m", max(self.values) if self._max else min(self.values))
            self.values = []
            return out
        out = ("c", self.count)
        self.count = 0
        return out

    def copy(self) -> "_PartialItem":
        """Detached copy for checkpoints."""
        dup = _PartialItem(self.call)
        dup.distinct = set(self.distinct)
        dup.count = self.count
        dup.pairs = list(self.pairs)
        dup.values = list(self.values)
        return dup


# ---------------------------------------------------------------------------
# Predicate utilities used by the rewriter and the optimizers
# ---------------------------------------------------------------------------
def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a predicate into its AND-ed conjuncts.

    ``None`` (no predicate) yields an empty list. Used by predicate
    pushdown and by the join-order enumerator to assign each conjunct to
    the lowest plan node that can evaluate it.
    """
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: list[Expr]) -> Expr | None:
    """Rebuild a single predicate from conjuncts (inverse of split_conjuncts)."""
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = BinaryOp("AND", result, conjunct)
    return result


def is_equijoin_conjunct(expr: Expr) -> tuple[str, str] | None:
    """If ``expr`` is ``col_a = col_b`` over two different relations,
    return the pair of column names; otherwise None."""
    if not (isinstance(expr, BinaryOp) and expr.op == "="):
        return None
    if not (isinstance(expr.left, ColumnRef) and isinstance(expr.right, ColumnRef)):
        return None
    left_rel = expr.left.qualifier
    right_rel = expr.right.qualifier
    if left_rel is None or right_rel is None or left_rel == right_rel:
        return None
    return (expr.left.name, expr.right.name)


def substitute_columns(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace column references per ``mapping`` (used by view expansion).

    Unmapped columns are preserved. The result is a new tree; input is
    not mutated (expressions are frozen dataclasses).
    """
    if isinstance(expr, ColumnRef):
        return mapping.get(expr.name, expr)
    if isinstance(expr, (Literal, Parameter)):
        return expr
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op,
            substitute_columns(expr.left, mapping),
            substitute_columns(expr.right, mapping),
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, substitute_columns(expr.operand, mapping))
    if isinstance(expr, FunctionCall):
        return FunctionCall(expr.name, tuple(substitute_columns(a, mapping) for a in expr.args))
    if isinstance(expr, AggregateCall):
        arg = None if expr.argument is None else substitute_columns(expr.argument, mapping)
        return AggregateCall(expr.name, arg, expr.distinct)
    raise TypeMismatchError(f"cannot substitute into {type(expr).__name__}")


def substitute_parameters(expr: Expr, values: dict[str, Any]) -> Expr:
    """Replace :class:`Parameter` nodes with literal values per ``values``.

    Used when a prepared statement starts a *continuous* query: a running
    pipeline must own immutable bindings (a later execute() re-binding
    shared slots would otherwise change a live query's predicate), so the
    plan for a continuous execution gets parameters baked in as literals.
    Unmapped parameters are preserved.
    """
    if isinstance(expr, Parameter):
        return Literal(values[expr.name]) if expr.name in values else expr
    if isinstance(expr, (ColumnRef, Literal)):
        return expr
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op,
            substitute_parameters(expr.left, values),
            substitute_parameters(expr.right, values),
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, substitute_parameters(expr.operand, values))
    if isinstance(expr, FunctionCall):
        return FunctionCall(
            expr.name, tuple(substitute_parameters(a, values) for a in expr.args)
        )
    if isinstance(expr, AggregateCall):
        arg = None if expr.argument is None else substitute_parameters(expr.argument, values)
        return AggregateCall(expr.name, arg, expr.distinct)
    raise TypeMismatchError(f"cannot substitute parameters into {type(expr).__name__}")


def rename_relations(expr: Expr, mapping: dict[str, str]) -> Expr:
    """Rewrite relation qualifiers per ``mapping`` (alias resolution)."""
    column_mapping: dict[str, Expr] = {}
    for name in expr.columns():
        if "." in name:
            qual, bare = name.rsplit(".", 1)
            if qual in mapping:
                column_mapping[name] = ColumnRef(f"{mapping[qual]}.{bare}")
    return substitute_columns(expr, column_mapping)
