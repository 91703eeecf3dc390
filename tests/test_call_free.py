"""Call-free kernels: the generated per-row bodies, from ingest to the
sink, make no Python-level call on their common path.

* :class:`TestCallFreeKernels` pins the rule on every generated loop of
  the ledger's deployments: rows and elements are built by slot stores,
  never through a bound ``Row.raw`` or ``StreamElement``, and COALESCE
  and a constant LIKE are inlined, never a bound helper; a constant
  LIKE's regex runs only behind a probe of its verdict memo.
* :class:`TestNullFacts` pins the filter lowering on the same loops: a
  column a passed conjunct proved non-NULL is not tested again, a stage
  subscripts each column of ``v`` once, and no literal is compared with
  zero per row.
* :class:`TestInlinedCoalesceAndLike` compares the inlined lowerings
  with the interpreter (``conftest.interpreted``), row by row in order.
* :class:`TestIngestIdentity` compares the generated ingest loop with
  ``StreamEngine._coerce_row`` — ``Row.from_mapping`` for a mapping —
  element for element on one engine, two loopback shards and the framed
  channel, errors included, and the fused-ingest loop (ingest and a
  source's one Filter/Project consumer as one loop) with the two loops
  it replaces.
* :class:`TestFusedIngestRoutes` counts, on the ledger's deployments,
  where the fused-ingest loop runs, when it is built and dropped, and
  that rows flowing generate nothing.
"""

from __future__ import annotations

import ast
import re
import types
from pathlib import Path

import pytest
from conftest import GENERATORS, generated, interpreted, unfused

from benchmarks.ledger.workloads import BY_NAME, STANDING7
from repro.api import StreamSource, connect
from repro.catalog import Catalog
from repro.data import DataType, Row, Schema
from repro.data.streams import CollectingConsumer, StreamElement
from repro.errors import ExecutionError, SchemaError, SourceError, TypeMismatchError
from repro.plan.logical import Project, ProjectItem, Scan, Select
from repro.sql import compiled
from repro.sql.compiled import _like_regex_cached, compile_projection
from repro.sql.expressions import (
    _SCALAR_FUNCTIONS,
    BinaryOp,
    ColumnRef,
    FunctionCall,
    Literal,
    UnaryOp,
)
from repro.stream import engine as engine_module
from repro.stream.engine import StreamEngine
from repro.stream.operators import (
    DistinctOp,
    FilterOp,
    FusedOp,
    ProjectOp,
    StageOp,
    SymmetricHashJoin,
)

_COALESCE = _SCALAR_FUNCTIONS["COALESCE"][0]


# ----------------------------------------------------------------------
# The rule, on the ledger's deployments
# ----------------------------------------------------------------------
def _engines(session) -> list[StreamEngine]:
    """The in-process engines behind a session: the engine, or a pool's
    fallback and loopback shards (a worker process's engines run the
    texts ``standing7`` admits in process)."""
    engine = session.engine
    if isinstance(engine, StreamEngine):
        return [engine]
    shards = [shard for shard in engine.engines if isinstance(shard, StreamEngine)]
    return [engine.fallback_engine, *shards]


def _kernels(session) -> list:
    """Every generated function an operator of ``session`` holds, and
    every ingest loop of its engines and pool."""
    operators = []
    for engine in _engines(session):
        operators += [op for h in engine.running_queries for op in h.compiled.operators]
        operators += [op for c in engine.subplans.live_chains for op in c.compiled.operators]
    found = [
        value
        for op in operators
        for value in vars(op).values()
        if hasattr(value, "__compiled_source__")
    ]
    owners = dict.fromkeys([session.engine, *_engines(session)])  # a pool's own too
    loops = [loop for owner in owners for loop in owner._ingest_loops.values()]
    loops += [fused[0] for engine in _engines(session) for fused in engine._fused_ingest.values()]
    return found + [loop for loop in loops if hasattr(loop, "__compiled_source__")]


def _calls_to(fn, *targets) -> list[str]:
    """Names ``fn``'s generated text calls that are bound to ``targets``."""
    source = fn.__compiled_source__
    return [
        name
        for name, value in fn.__globals__.items()
        if any(value is t or value == t for t in targets) and f"{name}(" in source
    ]


def _pattern_matches(fn) -> list:
    """The bound ``match`` methods of compiled patterns ``fn`` holds: a
    constant LIKE's, called once per row."""
    return [
        value
        for value in fn.__globals__.values()
        if isinstance(getattr(value, "__self__", None), re.Pattern)
    ]


def _unmemoised_likes(fn) -> list[str]:
    """The constant LIKEs ``fn`` calls a bound pattern ``match`` for
    without probing a verdict memo first: a ``match`` called outside
    every ``if x.__class__ is K:`` (``K`` bound to ``str``, or to
    ``None`` once the memo filled) that first sets ``t = P(x)``, ``P`` a
    dict's bound ``get``, and calls the ``match`` under the ``if t is
    None:`` right after it. The other branch — a value no exact ``str``
    — runs the regex alone and does not count either way."""
    env = fn.__globals__
    called = _calls_to(fn, *_pattern_matches(fn))
    memoised = set()
    for node in ast.walk(ast.parse(fn.__compiled_source__)):
        test = getattr(node, "test", None)
        if not (
            isinstance(node, ast.If)
            and isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Attribute)
            and test.left.attr == "__class__"
            and isinstance(test.comparators[0], ast.Name)
            and env.get(test.comparators[0].id, 0) in (str, None)
            and len(node.body) == 2
        ):
            continue
        probe, miss = node.body
        if (
            isinstance(probe, ast.Assign)
            and isinstance(probe.value, ast.Call)
            and isinstance(getattr(env.get(ast.unparse(probe.value.func)), "__self__", None), dict)
            and isinstance(miss, ast.If)
            and ast.unparse(miss.test) == f"{ast.unparse(probe.targets[0])} is None"
        ):
            memoised |= {
                call.func.id
                for call in ast.walk(miss)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            }
    return [name for name in called if name not in memoised]


class TestCallFreeKernels:
    def test_no_generated_loop_calls_a_row_or_element_constructor(self):
        from benchmarks.ledger.workloads import WORKLOADS

        assert len(WORKLOADS) == 7
        loops = likes = 0
        for workload in WORKLOADS:
            units = 4 if workload.name == "federated" else 64
            deployment = workload.open(workload.build_input(1, units))
            try:
                deployment.deliver(0, units)
                for fn in _kernels(deployment.session):
                    assert _calls_to(fn, Row.raw, StreamElement) == [], (
                        workload.name, fn.__compiled_source__,
                    )
                    assert _calls_to(fn, _COALESCE, _like_regex_cached) == [], (
                        workload.name, fn.__compiled_source__,
                    )
                    assert _unmemoised_likes(fn) == [], (
                        workload.name, fn.__compiled_source__,
                    )
                    source = fn.__compiled_source__
                    loops += "for " in source
                    likes += bool(_calls_to(fn, *_pattern_matches(fn)))
            finally:
                deployment.close()
        assert loops > 0 and likes > 0  # tenants1k filters with LIKE 'lab%'

    def test_the_guard_sees_a_like_without_its_memo(self):
        """The lowering the memo replaced — the bound ``match`` on every
        row — and one whose probe is no dict's ``get`` are flagged; the
        memo's own lowering is not."""
        match = re.compile("^lab.*$", re.IGNORECASE | re.DOTALL).match
        bare = (
            "def _fused(v):\n"
            "    x1 = v[0]\n"
            "    t1 = m2(x1 if x1.__class__ is str else str(x1)) is not None\n"
            "    return (t1,)\n"
        )
        memoised = (
            "def _fused(v):\n"
            "    x1 = v[0]\n"
            "    if x1.__class__ is lc3:\n"
            "        t1 = lm4(x1)\n"
            "        if t1 is None:\n"
            "            t1 = m2(x1) is not None\n"
            "    else:\n"
            "        t1 = m2(x1 if x1.__class__ is str else str(x1)) is not None\n"
            "    return (t1,)\n"
        )
        env = {"m2": match, "lc3": str, "lm4": {}.get}
        kernel = lambda source, **bound: types.SimpleNamespace(  # noqa: E731
            __compiled_source__=source, __globals__={**env, **bound}
        )
        assert _unmemoised_likes(kernel(bare)) == ["m2"]
        assert _unmemoised_likes(kernel(memoised)) == []
        assert _unmemoised_likes(kernel(memoised, lc3=None)) == []  # a full memo
        assert _unmemoised_likes(kernel(memoised, lm4=len)) == ["m2"]

    def test_coalesce_and_constant_like_lower_to_no_call(self):
        exprs = [
            FunctionCall("COALESCE", (ColumnRef("a"), ColumnRef("b"), Literal(0))),
            BinaryOp("LIKE", ColumnRef("s"), Literal("lab%")),
            BinaryOp("NOT LIKE", ColumnRef("s"), Literal("lab%")),
        ]
        with generated():
            fn = compile_projection(exprs, _SCHEMA)
        source = fn.__compiled_source__
        assert _calls_to(fn, _COALESCE, _like_regex_cached) == []
        assert "bool(" not in source and "fn" not in source
        assert fn((None, 4, 1.0, "Lab1")) == (4, True, False)


# ----------------------------------------------------------------------
# The filter lowering, on the ledger's deployments
# ----------------------------------------------------------------------
def _stage_loops(session) -> list[tuple]:
    """Every generated loop of ``session`` that lowers a Filter/Project
    chain, with the chain (a join's residual first) and its schema."""
    loops = []
    for engine in _engines(session):
        operators = [op for h in engine.running_queries for op in h.compiled.operators]
        operators += [op for c in engine.subplans.live_chains for op in c.compiled.operators]
        for op in operators:
            if isinstance(op, SymmetricHashJoin):
                residual = [("filter", op.predicate)] if op.predicate is not None else []
                for fn in (op._left_probe, op._right_probe, op._deliver):
                    if fn is not None:
                        loops.append((fn, residual + op.stages, op._joined_schema))
                if op._tail is not None:
                    loops.append((op._tail, op.stages, op._joined_schema))
            elif isinstance(op, (StageOp, DistinctOp)):
                for fn in (op._batch_fn, getattr(op, "_fused", None)):
                    if fn is not None:
                        loops.append((fn, op.stages, op.input_schema))
        for loop, op, _ in engine._fused_ingest.values():
            loops.append((loop, op.stages, op.input_schema))
    return [entry for entry in loops if hasattr(entry[0], "__compiled_source__")]


_STRICT = {"=", "!=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "LIKE", "NOT LIKE"}


def _strict_columns(expr) -> set[str]:
    """Columns under a chain of comparisons, arithmetic and LIKE: NULL
    whenever one of them is."""
    if isinstance(expr, ColumnRef):
        return {expr.name}
    if isinstance(expr, BinaryOp) and expr.op in _STRICT:
        return _strict_columns(expr.left) | _strict_columns(expr.right)
    return set()


def _passed(expr) -> set[str]:
    """Columns a predicate that held proves non-NULL."""
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _passed(expr.left) | _passed(expr.right)
    if isinstance(expr, UnaryOp) and expr.op == "IS NOT NULL":
        return _strict_columns(expr.operand)
    return _strict_columns(expr)


def _conjuncts(expr) -> list:
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _row_body(fn) -> list:
    """The statements a row runs: the innermost loop's body, or the
    function's when it has no loop."""
    (body,) = _row_bodies(fn)
    return body


def _row_bodies(fn) -> list[list]:
    """:func:`_row_body`, once per place the chain is spliced: a join
    delivery's loop over runs holds, inside its ``try``, one row loop
    per side."""

    def looping(node) -> bool:
        return any(isinstance(inner, ast.For) for inner in ast.walk(node))

    def bodies(body: list) -> list[list]:
        loops = [node for node in body if isinstance(node, ast.For)]
        if loops:
            return bodies(loops[-1].body)
        for node in body:
            if isinstance(node, ast.Try) and looping(node):
                return bodies(node.body)
            if isinstance(node, ast.If) and looping(node):
                return bodies(node.body) + bodies(node.orelse)
        return [body]

    return bodies(ast.parse(fn.__compiled_source__).body[0].body)


def _column_of(node) -> int | None:
    """``i`` when ``node`` is ``v[i]``."""
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "v"
        and isinstance(node.slice, ast.Constant)
    ):
        return node.slice.value
    return None


def _is_conjunct_test(node) -> str | None:
    """``t`` when ``node`` is ``if t is not True:`` rejecting the row."""
    if not (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)):
        return None
    test = node.test
    if (
        isinstance(test.left, ast.Name)
        and isinstance(test.ops[0], ast.IsNot)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is True
    ):
        return test.left.id
    return None


def _null_tested(node) -> list:
    """The operands of every ``x is None`` / ``x is not None`` in ``node``."""
    return [
        inner.left
        for inner in ast.walk(node)
        if isinstance(inner, ast.Compare)
        and isinstance(inner.ops[0], (ast.Is, ast.IsNot))
        and isinstance(inner.comparators[0], ast.Constant)
        and inner.comparators[0].value is None
    ]


def _findings(fn, stages, schema) -> tuple[list[str], int]:
    """What :class:`TestNullFacts` forbids in ``fn``'s common path, and
    how many proven columns it checked against, over each place the
    chain is spliced.

    Conjunct tests (``if t is not True:``) are matched to the chain's
    filters in order: one per conjunct, or one per filter. Past each,
    the columns the conjunct (or the whole predicate) proves are known
    non-NULL until ``v`` is rebound; what the tests reject — the doomed
    path included — is not the common path and is not read."""
    found, checked = [], 0
    for body in _row_bodies(fn):
        more, facts = _body_findings(fn, body, stages, schema)
        found += more
        checked += facts
    return found, checked


def _body_findings(fn, body, stages, schema) -> tuple[list[str], int]:
    facts: list[set[str]] = []  # per conjunct test, in order
    filters = [stage[1] for stage in stages if stage[0] == "filter"]
    tests = sum(_is_conjunct_test(node) is not None for node in body)
    per_conjunct = tests == sum(len(_conjuncts(p)) for p in filters)
    assert per_conjunct or tests == len(filters), fn.__compiled_source__
    schemas = []  # the schema each filter reads
    current = schema
    for stage in stages:
        if stage[0] == "filter":
            parts = _conjuncts(stage[1]) if per_conjunct else [stage[1]]
            facts += [_passed(part) for part in parts]
            schemas += [current] * len(parts)
        else:
            current = stage[2]
    found, checked = [], 0
    proven: set[int] = set()  # positions of `v` known non-NULL
    locals_: dict[str, int] = {}  # local -> the position it read
    reads: dict[int, int] = {}  # position -> subscripts since `v` was bound
    for node in body:
        conjunct = _is_conjunct_test(node)
        scanned = [node.test] if conjunct is not None else [node]
        for part in scanned:
            for inner in ast.walk(part):
                position = _column_of(inner)
                if position is not None:
                    reads[position] = reads.get(position, 0) + 1
                    if reads[position] == 2:
                        found.append(f"v[{position}] subscripted twice")
                if (
                    isinstance(inner, ast.Compare)
                    and isinstance(inner.left, ast.Constant)
                    and isinstance(inner.ops[0], ast.Eq)
                    and isinstance(inner.comparators[0], ast.Constant)
                    and inner.comparators[0].value == 0
                ):
                    found.append(f"{ast.unparse(inner)} per row")
            for operand in _null_tested(part):
                position = _column_of(operand)
                if isinstance(operand, ast.Name):
                    position = locals_.get(operand.id)
                if position is not None and position in proven:
                    found.append(f"{ast.unparse(operand)} tested after it was proven")
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            target = node.targets[0].id
            if target == "v":
                proven, locals_, reads = set(), {}, {}
            elif _column_of(node.value) is not None:
                locals_[target] = _column_of(node.value)
        if conjunct is not None:
            names, read = facts.pop(0), schemas.pop(0)
            proven |= {read.index_of(name) for name in names}
            checked += len(names)
    return found, checked


class TestNullFacts:
    """The filter lowering on every generated Filter/Project loop of the
    ledger's deployments — a fused chain's closure and batch loop, a
    DISTINCT's closure and dedup loop, a source's fused-ingest loop, a
    join's probe kernels and delivery loop — read from the generated
    text against the chain it lowers."""

    def test_no_proven_column_is_tested_again(self):
        from benchmarks.ledger.workloads import WORKLOADS

        loops = checked = 0
        for workload in WORKLOADS:
            units = 4 if workload.name == "federated" else 64
            deployment = workload.open(workload.build_input(1, units))
            try:
                deployment.deliver(0, units)
                for fn, stages, schema in _stage_loops(deployment.session):
                    found, facts = _findings(fn, stages, schema)
                    assert found == [], (workload.name, found, fn.__compiled_source__)
                    loops += 1
                    checked += facts
            finally:
                deployment.close()
        assert loops > 0 and checked > 0

    def test_a_distinct_builds_its_row_after_the_membership_test(self):
        """``standing7``'s three DISTINCTs each take their run: the dedup
        loop lowers the run's filter, tests ``v`` against ``seen``, and
        only past that test builds the output Row and StreamElement —
        a duplicate allocates nothing."""
        deployment = BY_NAME["standing7"].open(BY_NAME["standing7"].build_input(1, 64))
        try:
            deployment.deliver(0, 64)
            ops = [
                op
                for chain in deployment.session.engine.subplans.live_chains
                for op in chain.compiled.operators
                if isinstance(op, DistinctOp)
            ]
            assert len(ops) == 3
            for op in ops:
                body = _row_body(op._batch_fn)
                text = [ast.unparse(node) for node in body]
                test = text.index("if v in seen:\n    continue")
                builds = [i for i, line in enumerate(text) if "_new(" in line]
                assert builds and min(builds) > test, op._batch_fn.__compiled_source__
                assert [stage[0] for stage in op.stages] == ["filter", "project"]
                found, facts = _findings(op._batch_fn, op.stages, op.input_schema)
                assert found == [] and facts > 0
        finally:
            deployment.close()

    def test_the_guard_sees_an_and_ladder(self):
        """The lowering this replaced — a value-producing AND, ``v[i]``
        at every use, a literal divisor tested per row — trips all
        three rules."""
        source = (
            "def _fused(v):\n"
            "    if v[2] is None:\n"
            "        t2 = None\n"
            "    else:\n"
            "        t2 = v[2] > 15.0\n"
            "    if t2 is False:\n"
            "        t1 = False\n"
            "    else:\n"
            "        if v[3] is None:\n"
            "            t3 = None\n"
            "        else:\n"
            "            t3 = v[3] < 1.0\n"
            "        t1 = t3 if t3 is False or t2 is not None and t3 is not None else None\n"
            "    if t1 is not True:\n"
            "        return None\n"
            "    if v[2] is None:\n"
            "        t4 = None\n"
            "    elif 10.0 == 0:\n"
            "        t4 = None\n"
            "    else:\n"
            "        t4 = v[2] / 10.0\n"
            "    v = (t4,)\n"
            "    return v\n"
        )
        fn = types.SimpleNamespace(__compiled_source__=source)
        where = BinaryOp(
            "AND",
            BinaryOp(">", ColumnRef("temp"), Literal(15.0)),
            BinaryOp("<", ColumnRef("load"), Literal(1.0)),
        )
        schema = Schema.of(
            ("room", DataType.STRING),
            ("host", DataType.STRING),
            ("temp", DataType.FLOAT),
            ("load", DataType.FLOAT),
        )
        tenth = [BinaryOp("/", ColumnRef("temp"), Literal(10.0))]
        stages = [("filter", where), ("project", tenth, Schema.of(("x", DataType.FLOAT)))]
        found, _ = _findings(fn, stages, schema)
        assert "v[2] subscripted twice" in found
        assert "10.0 == 0 per row" in found
        assert "v[2] tested after it was proven" in found


# ----------------------------------------------------------------------
# COALESCE and LIKE inlined: generated against the interpreter
# ----------------------------------------------------------------------
_SCHEMA = Schema.of(
    ("a", DataType.INT),
    ("b", DataType.INT),
    ("c", DataType.FLOAT),
    ("s", DataType.STRING),
)


class _Prefixed(str):
    """A str subclass whose ``str()`` differs from its own text."""

    def __str__(self) -> str:
        return "x" + self


_VALUES = [
    (None, None, None, None),
    (1, None, 2.5, "lab1"),
    (None, 2, None, "Lab22"),
    (None, None, 3.0, ""),
    (0, 0, 0.0, _Prefixed("lab3")),
    (None, None, None, _Prefixed("office")),
]


def _outcomes(exprs, values_list) -> list:
    """Per row in order: the projected tuple, or the raised exception's
    type and message."""
    fn = compile_projection(exprs, _SCHEMA)
    out = []
    for values in values_list:
        try:
            out.append(fn(values))
        except Exception as exc:
            out.append((type(exc), str(exc)))
    return out


def _both_arms(exprs, values_list=_VALUES):
    with generated():
        ours = _outcomes(exprs, values_list)
    with interpreted():
        theirs = _outcomes(exprs, values_list)
    assert ours == theirs
    assert [tuple(map(type, row)) for row in ours if isinstance(row, tuple)] == [
        tuple(map(type, row)) for row in theirs if isinstance(row, tuple)
    ]
    return ours


def _coalesce(*args):
    return FunctionCall("COALESCE", tuple(args))


a, b, c, s = (ColumnRef(name) for name in "abcs")
NULL = Literal(None)


class TestInlinedCoalesceAndLike:
    @pytest.mark.parametrize(
        "expr",
        [
            _coalesce(a),
            _coalesce(a, b),
            _coalesce(a, b, c),
            _coalesce(a, b, c, Literal(7)),
            _coalesce(NULL, a, NULL, b),
            _coalesce(NULL, NULL, NULL, NULL),
            _coalesce(Literal(5), a),  # constant first: known non-NULL
            _coalesce(Literal("k"), s, NULL),
            _coalesce(a, Literal(0.5), b),
            _coalesce(_coalesce(a, b), _coalesce(c, Literal(1.5))),
        ],
        ids=lambda e: e.render(),
    )
    def test_coalesce(self, expr):
        _both_arms([expr])

    def test_coalesce_of_only_nulls_is_null_in_every_row(self):
        rows = _both_arms([_coalesce(a, b), _coalesce(NULL, a)], [(None,) * 4] * 3)
        assert rows == [(None, None)] * 3

    def test_a_raising_later_argument_still_raises(self):
        """Evaluation stays eager: a non-NULL first argument does not
        spare the rest, as in the interpreter."""
        raising = BinaryOp("+", s, Literal(1))  # str + int
        rows = _both_arms([_coalesce(a, raising)])
        assert (ExecutionError, "cannot apply + to 'lab1' and 1") in rows
        assert rows[0] == (None,)  # s NULL: the sum is NULL, nothing raises

    def test_a_constant_first_argument_compiles_without_warnings(self, recwarn):
        with generated():
            fn = compile_projection([_coalesce(Literal(5), a, Literal("x"))], _SCHEMA)
        assert fn((None, None, None, None)) == (5,)
        assert " is not None" not in fn.__compiled_source__
        assert not [w for w in recwarn if issubclass(w.category, SyntaxWarning)]

    @pytest.mark.parametrize("op", ["LIKE", "NOT LIKE"])
    @pytest.mark.parametrize("pattern", ["lab%", "x%", "%", "", "LAB_", None])
    def test_like(self, op, pattern):
        """NULL on either side, a str subclass whose ``str()`` differs
        (``x%`` matches it only through ``str()``), an empty string."""
        _both_arms([BinaryOp(op, s, Literal(pattern))])

    def test_dynamic_pattern(self):
        _both_arms([BinaryOp("LIKE", Literal("lab1"), s), BinaryOp("NOT LIKE", s, s)])

    @pytest.mark.parametrize("op", ["LIKE", "NOT LIKE"])
    def test_like_in_a_hand_built_plan(self, op):
        """The analyzer rejects LIKE over an INT, a hand-built plan does
        not: the value matches through ``str()`` on both arms, in the
        order the engine emits."""
        catalog = Catalog()
        catalog.register_stream("T", _SCHEMA, rate=1.0)
        scan = Scan(catalog.source("T"), "t")
        plans = [  # Select does not type its predicate; Project would
            Select(scan, BinaryOp(op, ColumnRef("t.a"), Literal("1%"))),
            Select(scan, BinaryOp(op, ColumnRef("t.s"), Literal("x%"))),
        ]
        rows = [Row(_SCHEMA, values, validate=False) for values in _VALUES * 2]

        def run():
            engine = StreamEngine(catalog)
            handles = [engine.execute(plan, CollectingConsumer()) for plan in plans]
            engine.push_many("T", rows[:6], [float(i) for i in range(6)])
            for i, row in enumerate(rows[6:], 6):
                engine.push("T", row, float(i))
            return [
                [(e.row.values, e.timestamp) for e in handle.sink.elements]
                for handle in handles
            ]

        with generated():
            ours = run()
        with interpreted():
            theirs = run()
        assert ours == theirs
        ints, strs = ours
        if op == "LIKE":  # 1 and 'xlab3', 'xoffice' (through str()), twice
            assert [(v[0], t) for v, t in ints] == [(1, 1.0), (1, 7.0)]
            assert [v[3] for v, _ in strs] == ["lab3", "office"] * 2
        else:  # NULLs match neither way
            assert [v[0] for v, _ in ints] == [0, 0]
            assert [v[3] for v, _ in strs] == ["lab1", "Lab22", ""] * 2


# ----------------------------------------------------------------------
# The ingest loop: generated against _coerce_row, on every channel
# ----------------------------------------------------------------------
#: Every DataType, one qualified field (full name 'T.q', bare 'q').
_TYPES = Schema.of(
    ("i", DataType.INT),
    ("f", DataType.FLOAT),
    ("s", DataType.STRING),
    ("b", DataType.BOOL),
    ("ts", DataType.TIMESTAMP),
    ("z", DataType.NULL),
    ("T.q", DataType.STRING),
)


class _Flag(int):
    """An int subclass: a legal INT the inline exact-type test leaves to
    the slow path."""


def _good_rows(schema: Schema) -> list:
    base = {"i": 1, "f": 2.5, "s": "x", "b": True, "ts": 10.0, "z": None, "q": "bare"}
    same = Schema.of(*((f.name, f.dtype) for f in schema))
    other = Schema.of(*((f"o{n}", f.dtype) for n, f in enumerate(schema)))
    return [
        base,
        {**base, "f": 3, "ts": 4},  # int in FLOAT / TIMESTAMP: kept an int
        dict.fromkeys(base),  # every column NULL
        {**base, "T.q": "full"},  # full name wins over bare
        {key: value for key, value in {**base, "T.q": "only"}.items() if key != "q"},
        {**base, "s": _Prefixed("sub"), "i": _Flag(3)},  # subclasses: slow path
        {**base, "extra": object()},  # unknown keys are ignored
        types.MappingProxyType(base),  # a Mapping that is no dict
        Row(schema, (5, 1.0, "r", False, 1.5, None, "row")),
        Row(same, (6, 2.0, "eq", True, 2.5, None, "equal schema")),
        Row(other, (7, 3.0, "ot", None, 3.5, None, "relabelled")),
    ]


_BAD_ROWS = [
    ({"i": True, "f": 1.0, "s": "x", "b": True, "ts": 1.0, "z": None, "q": "q"}, TypeMismatchError),
    ({"i": 1, "f": False, "s": "x", "b": True, "ts": 1.0, "z": None, "q": "q"}, TypeMismatchError),
    ({"i": 1, "f": 1.0, "s": 3, "b": True, "ts": 1.0, "z": None, "q": "q"}, TypeMismatchError),
    ({"i": 1, "f": 1.0, "s": "x", "b": 1, "ts": 1.0, "z": None, "q": "q"}, TypeMismatchError),
    ({"i": 1, "f": 1.0, "s": "x", "b": True, "ts": 1.0, "z": 0, "q": "q"}, TypeMismatchError),
    ({"i": 1, "f": 1.0, "s": "x", "b": True, "ts": 1.0, "z": None}, SchemaError),
    ({"f": 1.0}, SchemaError),
    (("a", "tuple"), SchemaError),
]

#: connect() options per channel.
_CHANNELS = {
    "engine": {},
    "loopback2": {"shards": 2},
    "framed2": {"shards": 2, "workers": "process"},
}


def _session(channel: str, checkpoint: bool = False):
    session = connect(
        **_CHANNELS[channel], **({"checkpoint_interval": 1e9} if checkpoint else {})
    )
    session.attach(StreamSource("T", _TYPES))
    schema = session.catalog.source("T").schema
    cursor = session.query("select * from T t")
    return session, schema, cursor


def _observed(cursor) -> list:
    """Each result's values, their exact types and its timestamp, in
    timestamp order (every row has its own)."""
    elements = sorted(cursor._handle.sink.elements, key=lambda e: e.timestamp)
    return [(e.row.values, tuple(map(type, e.row.values)), e.timestamp) for e in elements]


class TestIngestIdentity:
    @pytest.mark.parametrize("verb", ["push_many", "push"])
    @pytest.mark.parametrize("channel", list(_CHANNELS))
    def test_rows_enter_as_coerce_row_builds_them(self, channel, verb):
        session, schema, cursor = _session(channel)
        rows = _good_rows(schema)
        stamps = [float(i) for i in range(len(rows))]
        if verb == "push_many":
            session.push_many("T", rows, stamps)
        else:
            for row, stamp in zip(rows, stamps):
                session.push("T", row, stamp)
        session.punctuate(100.0)
        got = _observed(cursor)
        session.close()
        expected = []
        for row, stamp in zip(rows, stamps):
            values = StreamEngine._coerce_row(schema, row).values
            expected.append((values, tuple(map(type, values)), stamp))
        assert got == expected
        assert expected[1][1][1] is int and expected[1][1][4] is int
        assert [values[-1] for values, _, _ in got[:5]] == [
            "bare", "bare", None, "full", "only",
        ]

    @pytest.mark.parametrize("channel", ["engine", "loopback2"])
    def test_the_engine_builds_what_coerce_row_builds(self, channel):
        """On the engine the ingest emits: a Row under the catalog
        schema object passes through as itself, everything else is
        rebuilt under it, exactly as ``_coerce_row`` would."""
        session, schema, _ = _session(channel)
        engine = session.engine if channel == "engine" else session.engine.engines[0]
        loop = engine._ingest_loops[id(schema)]
        assert hasattr(loop, "__compiled_source__")
        rows = _good_rows(schema)
        elements = loop(rows, [1.0] * len(rows), "T")
        for row, element in zip(rows, elements):
            reference = StreamEngine._coerce_row(schema, row)
            assert element.row.values == reference.values
            assert element.row.schema == reference.schema
            assert (element.timestamp, element.source) == (1.0, "T")
        assert elements[8].row is rows[8]
        session.close()

    @pytest.mark.parametrize("verb", ["push_many", "push"])
    @pytest.mark.parametrize("channel", list(_CHANNELS))
    @pytest.mark.parametrize("bad, error", _BAD_ROWS, ids=repr)
    def test_a_rejected_row_raises_as_coerce_row_does(self, channel, verb, bad, error):
        """Same type, same message (behind the session's
        ``SourceError``); nothing of the batch is ingested and the replay
        log holds no record of it."""
        session, schema, cursor = _session(channel, checkpoint=True)
        with pytest.raises(error) as expected:
            StreamEngine._coerce_row(schema, bad)
        log = session.checkpointer.log
        before = log.next_seq
        good = _good_rows(schema)[0]
        with pytest.raises(SourceError) as raised:
            if verb == "push_many":
                session.push_many("T", [good, bad, good], [1.0, 2.0, 3.0])
            else:
                session.push("T", bad, 2.0)
        cause = raised.value.__cause__
        assert type(cause) is type(expected.value)
        assert str(cause) == str(raised.value) == str(expected.value)
        assert log.next_seq == before
        session.punctuate(10.0)
        assert cursor.results() == []
        session.close()

    def test_a_row_of_the_wrong_arity(self):
        session, schema, _ = _session("engine")
        short = Row(Schema.of(("i", DataType.INT)), (1,))
        message = "row arity 1 does not match schema arity 7"
        for verb, rows in (("push_many", [short]), ("push", short)):
            with pytest.raises(SourceError, match=message) as raised:
                getattr(session, verb)("T", rows, 1.0)
            assert type(raised.value.__cause__) is ExecutionError
        session.close()

    @pytest.mark.parametrize("verb", ["push_many", "push"])
    def test_the_interpreted_arm_is_the_same(self, verb):
        """``interpreted()`` takes the ingest loop down to ``_coerce_row``
        over every row — the reference the generated loop is held to."""

        def run():
            session, schema, cursor = _session("engine")
            rows = _good_rows(schema)
            stamps = [float(i) for i in range(len(rows))]
            if verb == "push_many":
                session.push_many("T", rows, stamps)
            else:
                for row, stamp in zip(rows, stamps):
                    session.push("T", row, stamp)
            session.punctuate(100.0)
            loop = session.engine._ingest_loops[id(schema)]
            got = _observed(cursor)
            session.close()
            return got, hasattr(loop, "__compiled_source__")

        with generated():
            ours, ours_generated = run()
        with interpreted():
            theirs, theirs_generated = run()
        assert ours == theirs
        assert (ours_generated, theirs_generated) == (True, False)

    @pytest.mark.parametrize("channel", ["engine", "loopback2"])
    def test_rows_into_an_unscanned_stream_generate_nothing(self, channel):
        """A stream no query scans has no ingest loop: its rows are
        checked by ``_coerce_row`` and nothing is generated while they
        flow. The first query that scans it generates the loop."""
        session = connect(**_CHANNELS[channel])
        session.attach(StreamSource("T", _TYPES))
        schema = session.catalog.source("T").schema
        rows = _good_rows(schema)
        before = session.stats()["compile"]
        session.push_many("T", rows, 1.0)
        session.push("T", rows[0], 2.0)
        with pytest.raises(SourceError):
            session.push("T", ("a", "tuple"), 3.0)
        assert session.stats()["compile"] == before
        assert session.engine._ingest_loops == {}
        session.query("select * from T t")
        assert hasattr(session.engine._ingest_loops[id(schema)], "__compiled_source__")
        session.close()

    # -- the fused-ingest loop: ingest and the port's stages as one ----
    @staticmethod
    def _plan(shape: str, catalog: Catalog):
        """``shape``'s plan over ``T``: a filter→project run (one fused
        chain), or a projection under a filter (ProjectOp first once
        unfused)."""
        scan = Scan(catalog.source("T"), "t")
        kept = BinaryOp(">", ColumnRef("t.i"), Literal(2))
        if shape == "filter_project":
            items = [ProjectItem(ColumnRef("t.i"), "i"), ProjectItem(ColumnRef("t.s"), "s")]
            return Project(Select(scan, kept), items)
        items = [ProjectItem(ColumnRef("t.i"), "i"), ProjectItem(ColumnRef("t.f"), "f")]
        return Select(Project(scan, items), BinaryOp(">", ColumnRef("i"), Literal(2)))

    @staticmethod
    def _shape(elements) -> list:
        return [
            (e.row.values, tuple(map(type, e.row.values)), e.row.schema, e.timestamp, e.source)
            for e in elements
        ]

    @pytest.mark.parametrize(
        "shape, arm, consumer",
        [
            ("filter_project", generated, FusedOp),
            ("filter_project", unfused, FilterOp),
            ("project_filter", unfused, ProjectOp),
        ],
    )
    def test_the_fused_loop_emits_what_the_two_loops_emit(self, shape, arm, consumer):
        """Element for element — values, their exact types, the row's
        schema, timestamp and source — what the operator's batch loop
        appends over the elements the ingest loop builds; a pure
        filter's survivors carry the ingested Row itself."""
        catalog = Catalog()
        catalog.register_stream("T", _TYPES, rate=1.0)
        schema = catalog.source("T").schema
        engine = StreamEngine(catalog)
        with arm():
            handle = engine.execute(self._plan(shape, catalog), CollectingConsumer())
        op = handle.compiled.ports[0].consumer
        loop, fused_op, fused_schema = engine._fused_ingest["t"]
        assert type(op) is consumer and fused_op is op and fused_schema is schema
        rows = _good_rows(schema) + [
            Row(schema, (i, 1.0, "r", True, 1.0, None, "q")) for i in (2, 3, None, 4)
        ]
        stamps = [float(i) for i in range(len(rows))]
        ours = loop(rows, stamps, "T")
        theirs: list = []
        op._batch_fn(engine._ingest_loops[id(schema)](rows, stamps, "T"), theirs)
        assert self._shape(ours) == self._shape(theirs)
        assert 0 < len(ours) < len(rows) if consumer is not ProjectOp else len(ours) == len(rows)
        if consumer is FilterOp:  # i = 3 and i = 4 pass, as themselves
            assert ours[-1].row is rows[-1] and ours[-2].row is rows[-3]

    @pytest.mark.parametrize("arm", [generated, unfused])
    def test_a_bad_row_mid_batch_leaves_no_trace(self, arm):
        """The ``_coerce_row`` error, no replay record, nothing forwarded,
        ``rows_in`` unchanged — and the batch after it runs as if the bad
        one had never come."""
        session = connect(checkpoint_interval=1e9)
        session.attach(StreamSource("T", _TYPES))
        schema = session.catalog.source("T").schema
        with arm():
            cursor = session.query("select t.i, t.s from T t where t.i > 0")
        _, op, _ = session.engine._fused_ingest["t"]
        log = session.checkpointer.log
        before = log.next_seq
        good = _good_rows(schema)[0]
        bad, error = _BAD_ROWS[0]
        with pytest.raises(SourceError) as raised:
            session.push_many("T", [good, bad, good], [1.0, 2.0, 3.0])
        assert type(raised.value.__cause__) is error
        assert log.next_seq == before
        assert (op.rows_in, op.rows_out, session.engine.elements_ingested) == (0, 0, 0)
        session.push_many("T", [good, good], [4.0, 5.0])
        assert log.next_seq == before + 1
        assert (op.rows_in, op.rows_out) == (2, 2) and len(cursor.results()) == 2
        session.close()

    def test_an_operator_error_raises_after_the_replay_record(self):
        """Only coercion raises before the batch is logged: a stage that
        raises (``str > int`` in a hand-built plan) does so after it, as
        the operator's own loop would, and forwards nothing."""
        catalog = Catalog()
        catalog.register_stream("T", _TYPES, rate=1.0)
        engine = StreamEngine(catalog)
        scan = Scan(catalog.source("T"), "t")
        handle = engine.execute(Select(scan, BinaryOp(">", ColumnRef("t.s"), Literal(1))))
        _, op, _ = engine._fused_ingest["t"]
        records: list = []
        engine.checkpointer = types.SimpleNamespace(record=records.append)
        rows = _good_rows(catalog.source("T").schema)
        with pytest.raises(ExecutionError, match="cannot apply > to 'x' and 1"):
            engine.push_many("T", rows, 1.0)
        assert [entry[0] for entry in records] == ["many"]
        assert engine.elements_ingested == len(rows)
        assert (op.rows_in, op.rows_out, handle.sink.elements) == (0, 0, [])

    @pytest.mark.parametrize("shape", ["filter_project", "project_filter"])
    def test_the_interpreted_arm_emits_the_same_through_push_many(self, shape):
        """``interpreted()`` builds no fused loop (nor any other): the
        same rows through ``push_many`` reach the sink the same."""

        def run():
            catalog = Catalog()
            catalog.register_stream("T", _TYPES, rate=1.0)
            engine = StreamEngine(catalog)
            handle = engine.execute(self._plan(shape, catalog), CollectingConsumer())
            rows = _good_rows(catalog.source("T").schema)
            engine.push_many("T", rows, [float(i) for i in range(len(rows))])
            return self._shape(handle.sink.elements), bool(engine._fused_ingest)

        with generated():
            ours, fused = run()
        with interpreted():
            theirs, interpreted_fused = run()
        assert ours == theirs and ours
        assert (fused, interpreted_fused) == (True, False)


def test_every_generator_is_listed_for_the_reference_arm():
    """``interpreted()`` declines exactly the generators ``conftest``
    lists, so a ``_codegen*`` missing there would keep generating."""
    names = {name for name, value in vars(compiled).items() if name.startswith("_codegen") and callable(value)}
    assert names == set(GENERATORS)


def test_every_loop_is_a_composition_of_the_one_template():
    """Only ``_codegen_loop`` (every generated loop), ``_codegen`` (an
    expression) and the fold state's ``_define_take`` /
    ``_define_finalize`` turn text into a function: a new loop is a
    source, stages and a sink handed to the template, not a sixth
    ``def`` line. RA905 keeps each one on the compile memo."""
    tree = ast.parse(Path(compiled.__file__).read_text())
    callers = {
        function.name
        for function in tree.body
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_define"
    }
    assert callers == {"_codegen_loop", "_codegen", "_define_take", "_define_finalize"}
    loops = {
        function.name
        for function in tree.body
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_codegen_loop"
    }
    assert loops == {
        "_codegen_fused",
        "_codegen_fused_batch",
        "_codegen_distinct",
        "_codegen_accumulate",
        "_codegen_join_probe",
        "_codegen_ingest",
    }


# ----------------------------------------------------------------------
# Where the fused-ingest loop runs, on the ledger's deployments
# ----------------------------------------------------------------------
def _counting(calls: dict, name: str, fn):
    def counted(*args):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args)

    return counted


class TestFusedIngestRoutes:
    """A count, not a timing: which loop a step runs, and when the fused
    one is built and dropped (``stats()["compile"]`` at those verbs)."""

    def test_a_one_query_step_runs_the_fused_loop_alone(self, monkeypatch):
        workload = BY_NAME["one_query"]
        deployment = workload.open(workload.build_input(1, 512))
        try:
            engine = deployment.session.engine
            loop, op, schema = engine._fused_ingest["readings"]
            assert type(op) is FusedOp
            calls: dict = {}
            engine._fused_ingest["readings"] = (_counting(calls, "fused", loop), op, schema)
            ingest = engine._ingest_loops[id(schema)]
            engine._ingest_loops[id(schema)] = _counting(calls, "elements", ingest)
            monkeypatch.setattr(FusedOp, "push_batch", _counting(calls, "push_batch", FusedOp.push_batch))
            compiled_before = dict(deployment.session.stats()["compile"])
            deployment.deliver(0, 512)
            assert calls == {"fused": 1}
            assert op.rows_in == 512 and 0 < op.rows_out < 512
            assert len(deployment.cursors[0].results()) == op.rows_out
            assert deployment.session.stats()["compile"] == compiled_before
        finally:
            deployment.close()

    @pytest.mark.parametrize("name", ["standing7", "tenants1k"])
    def test_many_consumers_keep_the_two_loops(self, name):
        """Every source there has several routes: no fused loop survives
        admission, and a step runs none."""
        workload = BY_NAME[name]
        deployment = workload.open(workload.build_input(1, 64))
        try:
            engine = deployment.session.engine
            assert engine._fused_ingest == {} and len(engine._routes["readings"]) > 1
            deployment.deliver(0, 64)
            assert engine._fused_ingest == {}
        finally:
            deployment.close()

    def test_a_second_consumer_drops_the_loop_and_closing_it_rebuilds_it(self, monkeypatch):
        workload = BY_NAME["one_query"]
        deployment = workload.open(workload.build_input(1, 192))
        session = deployment.session
        engine = session.engine
        builds: dict = {}
        monkeypatch.setattr(
            engine_module, "compile_fused_ingest",
            _counting(builds, "built", engine_module.compile_fused_ingest),
        )
        try:
            first = engine._fused_ingest["readings"]
            second = session.query(STANDING7[2])  # an aggregate over Readings
            admitted = dict(session.stats()["compile"])
            assert "readings" not in engine._fused_ingest and builds == {}
            deployment.deliver(0, 64)
            assert session.stats()["compile"] == admitted
            second.close()
            rebuilt = engine._fused_ingest["readings"]
            assert builds == {"built": 1} and rebuilt[1] is first[1]
            assert session.stats()["compile"] == {
                "generated": admitted["generated"] + 1, "fallbacks": 0,
            }
            deployment.deliver(64, 192)
            assert session.stats()["compile"]["generated"] == admitted["generated"] + 1
            results = deployment.cursors[0].results()
            assert first[1].rows_in == 192 and len(results) == first[1].rows_out
        finally:
            deployment.close()
