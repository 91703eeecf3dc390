"""Filter chains: the exactness corpus of a WHERE lowered as a filter.

A filter stage's AND tree lowers to flat conjuncts with early exits, and
a column a passed conjunct proved non-NULL is never tested again
(``repro.sql.compiled._emit_filter``). That lowering must change
nothing a row can observe. Seeded chains of 2–6 conjuncts — nested ANDs
of any shape, ORs and NOTs inside conjuncts, NULLs anywhere, ints in
FLOAT columns, a string where a number is compared (so a doomed row's
later conjunct raises), and values whose comparisons return non-bools
and whose arithmetic returns ``None`` — run through ``compile_fused``,
``compile_fused_batch``, the engine's fused-ingest loop and a join
residual, and are held to the ``interpreted()`` arm row by row: the
same survivors with the same values and types, or the same exception
type and message.

The constant LIKE's verdict memo is held to the same arm through the
same four paths, over IGNORECASE's Unicode folds, newlines under ``%``
and ``_``, NULL, ``str`` subclasses (one colliding with a memoised key),
LIKE and NOT LIKE of one pattern in one kernel, and more distinct
values than the memo holds.
"""

from __future__ import annotations

import random

import pytest
from conftest import GENERATORS, declining, generated, interpreted

from repro.catalog import Catalog
from repro.data import DataType, Row, Schema
from repro.data.streams import CollectingConsumer, StreamElement
from repro.data.windows import WindowSpec
from repro.errors import ExecutionError
from repro.plan.logical import Join, Project, ProjectItem, Scan, Select
from repro.sql.compiled import (
    _FLAT_CONJUNCTS,
    _LIKE_MEMO,
    Chain,
    compile_expr,
    compile_fused,
    compile_fused_batch,
    compile_projection,
)
from repro.sql.expressions import BinaryOp, ColumnRef, Expr, FunctionCall, Literal, UnaryOp
from repro.stream.engine import StreamEngine
from repro.stream.operators import FusedOp, SymmetricHashJoin

SCHEMA = Schema.of(
    ("a", DataType.FLOAT),
    ("b", DataType.FLOAT),
    ("n", DataType.INT),
    ("s", DataType.STRING),
    ("f", DataType.BOOL),
)
#: What a filter → project → filter chain projects, and the schema the
#: second filter reads.
PROJECTED = Schema.of(
    ("a", DataType.FLOAT),
    ("p", DataType.FLOAT),
    ("c", DataType.FLOAT),
    ("n", DataType.INT),
    ("s", DataType.STRING),
    ("f", DataType.BOOL),
)


class _Odd:
    """A value whose comparisons answer ``answer`` — not always a bool —
    and whose arithmetic answers ``None``, in either operand order."""

    def __init__(self, answer):
        self.answer = answer

    def __repr__(self) -> str:
        return f"_Odd({self.answer!r})"

    def _compare(self, other):
        return self.answer

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _compare

    def _arithmetic(self, other):
        return None

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _arithmetic
    __truediv__ = __rtruediv__ = __mod__ = __rmod__ = _arithmetic

    def __hash__(self) -> int:  # a join may key on it
        return hash(repr(self))


#: Per column kind, the values a row draws from (FLOAT columns also hold
#: ints, a string and odd values; INT columns a float).
NUMBERS = [None, None, 0, 1, 2.5, 20.0, -3.0, 40, "x", _Odd(1), _Odd(None), _Odd("yes"), _Odd(0)]
STRINGS = [None, "lab1", "LAB2", "Lab", "office", "ſlab", "sx", ""]
BOOLS = [None, True, False]


def _rows(rng: random.Random, count: int) -> list[tuple]:
    return [
        (
            rng.choice(NUMBERS),
            rng.choice(NUMBERS),
            rng.choice([None, 0, 3, 7, 1.5]),
            rng.choice(STRINGS),
            rng.choice(BOOLS),
        )
        for _ in range(count)
    ]


def _conjunct(rng: random.Random, columns: dict[str, str], depth: int = 0) -> Expr:
    """One conjunct over ``columns`` (kind -> column name)."""
    number = lambda: ColumnRef(columns[rng.choice(["a", "b", "n"])])  # noqa: E731
    literal = lambda: Literal(rng.choice([0, 1, 2.5, 15.0, -3.0, 0.0]))  # noqa: E731
    kind = rng.randrange(10 if depth == 0 else 6)
    if kind <= 1:
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        right = literal() if kind == 0 else number()
        return BinaryOp(op, number(), right)
    if kind == 2:
        arithmetic = BinaryOp(rng.choice(["+", "-", "*", "/", "%"]), number(), literal())
        return BinaryOp(rng.choice(["<", ">", ">="]), arithmetic, literal())
    if kind == 3:
        pattern = rng.choice(["lab%", "LAB%", "s%", "%", "l_b%", "lab1", None])
        op = rng.choice(["LIKE", "LIKE", "NOT LIKE"])
        return BinaryOp(op, ColumnRef(columns["s"]), Literal(pattern))
    if kind == 4:
        operand = rng.choice(
            [number(), ColumnRef(columns["s"]), BinaryOp("*", number(), Literal(2.0))]
        )
        return UnaryOp(rng.choice(["IS NULL", "IS NOT NULL"]), operand)
    if kind == 5:
        return ColumnRef(columns["f"])
    if kind in (6, 8):
        inner = _conjunct(rng, columns, depth + 1), _conjunct(rng, columns, depth + 1)
        return BinaryOp("OR" if kind == 6 else "AND", *inner)
    if kind == 7:
        return UnaryOp("NOT", _conjunct(rng, columns, depth + 1))
    return Literal(rng.choice([True, True, False, None]))


def _and_tree(rng: random.Random, conjuncts: list[Expr]) -> Expr:
    """``conjuncts`` under an AND tree of a random shape, in order."""
    if len(conjuncts) == 1:
        return conjuncts[0]
    cut = rng.randrange(1, len(conjuncts))
    return BinaryOp("AND", _and_tree(rng, conjuncts[:cut]), _and_tree(rng, conjuncts[cut:]))


def _where(rng: random.Random, columns: dict[str, str]) -> Expr:
    conjuncts = [_conjunct(rng, columns) for _ in range(rng.randrange(2, 7))]
    return _and_tree(rng, conjuncts)


def _chain(rng: random.Random) -> list:
    """A filter, or filter → project → filter, over :data:`SCHEMA`."""
    names = {kind: kind for kind in "abnsf"}
    stages = [("filter", _where(rng, names))]
    if rng.random() < 0.5:
        col = ColumnRef
        exprs = [
            col("a"),
            BinaryOp("*", col("a"), Literal(2.0)),
            FunctionCall("COALESCE", (col("b"), Literal(0.0))),
            col("n"),
            col("s"),
            col("f"),
        ]
        stages.append(("project", exprs, PROJECTED))
        stages.append(("filter", _where(rng, {"a": "a", "b": "p", "n": "c", "s": "s", "f": "f"})))
    return stages


#: A doomed row's later conjunct raises: ``b`` is NULL, ``a`` a string.
DOOMED_RAISE = [
    (
        "filter",
        BinaryOp(
            "AND",
            BinaryOp(">", ColumnRef("b"), Literal(1.0)),
            BinaryOp(
                "AND",
                BinaryOp("<", ColumnRef("b"), Literal(9.0)),
                BinaryOp(">", ColumnRef("a"), Literal(2.0)),
            ),
        ),
    )
]


def _shape(values: tuple) -> list:
    """Values compared by type and repr: an odd value's ``==`` is not
    equality."""
    return [(type(value), repr(value)) for value in values]


def _outcome(run, *args):
    try:
        values = run(*args)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    return None if values is None else ("passed", _shape(values))


def _interpreted_chain(stages: list, schema: Schema):
    """The chain as the ``interpreted()`` arm's operators run it: each
    filter's predicate and each projection through the interpreter (a
    predicate that folds to a constant is its constant, so no fallback
    need be counted)."""
    steps = []
    with declining(*GENERATORS):
        for stage in stages:
            if stage[0] == "filter":
                steps.append((compile_expr(stage[1], schema), None))
            else:
                steps.append((compile_projection(stage[1], schema), stage[2]))
                schema = stage[2]

    def run(values: tuple):
        for fn, projects in steps:
            if projects is None:
                if fn(values) is not True:
                    return None
            else:
                values = fn(values)
        return values

    return run


SEEDS = range(4)


@pytest.mark.parametrize("seed", SEEDS)
def test_compile_fused_and_its_batch_loop_match_the_interpreter(seed):
    """Row by row: ``compile_fused``'s closure, and the batch loop over a
    run of that one row."""
    rng = random.Random(f"filter-chains-{seed}")
    for _ in range(40):
        stages = _chain(rng)
        rows = _rows(rng, 24)
        with generated():
            fused = compile_fused(Chain(stages, SCHEMA))
            batch = compile_fused_batch(Chain(stages, SCHEMA), PROJECTED if len(stages) > 1 else SCHEMA)
        reference = _interpreted_chain(stages, SCHEMA)

        def batched(values):
            out: list = []
            batch([StreamElement(Row(SCHEMA, values, validate=False), 1.0, "T")], out)
            return out[0].row.values if out else None

        for values in rows:
            expected = _outcome(reference, values)
            assert _outcome(fused, values) == expected, (stages, values)
            assert _outcome(batched, values) == expected, (stages, values)


def test_a_doomed_rows_later_conjunct_raises_as_the_interpreter_does():
    """``b`` NULL dooms the row at the first conjunct; the second is
    NULL too, so the third still runs and raises on the string."""
    rows = [("x", None, 0, "lab1", True), ("x", 5.0, 0, "lab1", True), (3.0, None, 0, "", None)]
    fused = compile_fused(Chain(DOOMED_RAISE, SCHEMA))
    reference = _interpreted_chain(DOOMED_RAISE, SCHEMA)
    outcomes = [_outcome(fused, values) for values in rows]
    assert outcomes == [_outcome(reference, values) for values in rows]
    assert outcomes == [
        ("raised", ExecutionError, "cannot apply > to 'x' and 2.0"),
        ("raised", ExecutionError, "cannot apply > to 'x' and 2.0"),
        None,
    ]


def _engine_outcomes(
    plan_of, feeds: list[tuple[str, list]], fresh_per_row: bool
) -> tuple[list, StreamEngine]:
    """Push ``feeds`` — ``(stream, rows)``, each row in its own
    ``push_many`` — and record, per row of the last feed, what reached
    the sink or what the verb raised; and the (last) engine."""
    catalog = Catalog()
    catalog.register_stream("T", SCHEMA, rate=1.0)
    catalog.register_stream("R", Schema.of(("k", DataType.INT), ("c", DataType.FLOAT)), rate=1.0)
    plan = plan_of(catalog)
    *setup, (stream, rows) = feeds

    def push(engine, name: str, values: tuple, stamp: float) -> None:
        engine.push_many(name, [Row(catalog.source(name).schema, values, validate=False)], [stamp])

    def start():
        engine = StreamEngine(catalog)
        handle = engine.execute(plan, CollectingConsumer())
        for name, values_list in setup:
            for stamp, values in enumerate(values_list):
                push(engine, name, values, float(stamp))
        return engine, handle

    engine, handle = start()
    outcomes = []
    for values in rows:
        if fresh_per_row:
            engine, handle = start()
        before = len(handle.sink.elements)
        try:
            push(engine, stream, values, 50.0)
        except Exception as exc:
            outcomes.append(("raised", type(exc), str(exc)))
            continue
        outcomes.append([_shape(e.row.values) for e in handle.sink.elements[before:]])
    return outcomes, engine


@pytest.mark.parametrize("seed", SEEDS)
def test_the_fused_ingest_loop_matches_the_interpreter(seed):
    """A Select (and Project) over one source: the engine's fused-ingest
    loop runs ingest and the chain as one loop."""
    rng = random.Random(f"filter-ingest-{seed}")
    qualified = {kind: f"t.{kind}" for kind in "abnsf"}
    for _ in range(10):
        where = _where(rng, qualified)
        items = None
        if rng.random() < 0.5:
            quarter = BinaryOp("/", ColumnRef("t.b"), Literal(4.0))
            items = [ProjectItem(ColumnRef("t.a"), "a"), ProjectItem(quarter, "q")]
        rows = _rows(rng, 24)

        def plan_of(catalog):
            select = Select(Scan(catalog.source("T"), "t"), where)
            return select if items is None else Project(select, items)

        with generated():
            ours, engine = _engine_outcomes(plan_of, [("T", rows)], False)
        assert engine._fused_ingest
        with interpreted():
            theirs, _ = _engine_outcomes(plan_of, [("T", rows)], False)
        assert ours == theirs, where.render()


@pytest.mark.parametrize("seed", SEEDS)
def test_a_join_residual_matches_the_interpreter(seed):
    """The chain as a windowed join's residual: the probe kernel lowers
    it as the first filter of the pairs it finds."""
    rng = random.Random(f"filter-join-{seed}")
    qualified = {"a": "t.a", "b": "r.c", "n": "t.n", "s": "t.s", "f": "t.f"}
    right = [(1, c) for c in (None, 2.0, 30.0, 1)]
    for _ in range(6):
        where = _where(rng, qualified)
        rows = [(a, b, 1, s, f) for a, b, _, s, f in _rows(rng, 12)]

        def plan_of(catalog):
            window = WindowSpec.range(100.0)
            key = BinaryOp("=", ColumnRef("t.n"), ColumnRef("r.k"))
            return Join(
                Scan(catalog.source("T"), "t", window),
                Scan(catalog.source("R"), "r", window),
                BinaryOp("AND", key, where),
            )

        with generated():
            ours, engine = _engine_outcomes(plan_of, [("R", right), ("T", rows)], True)
        operators = engine.running_queries[0].compiled.operators
        (join,) = [op for op in operators if isinstance(op, SymmetricHashJoin)]
        assert join._left_probe is not None and join.predicate is not None
        with interpreted():
            theirs, _ = _engine_outcomes(plan_of, [("R", right), ("T", rows)], True)
        assert ours == theirs, where.render()


def _both_arms(exprs: list[Expr], rows: list[tuple]) -> list:
    with generated():
        ours = compile_projection(exprs, SCHEMA)
    with interpreted():
        theirs = compile_projection(exprs, SCHEMA)
    outcomes = [_outcome(ours, values) for values in rows]
    assert outcomes == [_outcome(theirs, values) for values in rows]
    return outcomes, ours.__compiled_source__


def test_a_literal_divisor_is_judged_once_at_compile_time():
    """``/`` and ``%`` by a nonzero literal emit no per-row zero test; by
    a literal zero they are NULL, whatever the dividend (a string, a
    NULL, an odd value) — as the interpreter yields."""
    a = ColumnRef("a")
    exprs = [
        BinaryOp("/", a, Literal(4.0)),
        BinaryOp("%", a, Literal(3)),
        BinaryOp("/", a, Literal(0)),
        BinaryOp("%", a, Literal(0.0)),
        BinaryOp("/", a, BinaryOp("-", Literal(2), Literal(2))),
        BinaryOp("/", a, ColumnRef("n")),
    ]
    rows = [(value, None, n, None, None) for value in (8.0, 7, None, _Odd(1)) for n in (0, 2)]
    outcomes, source = _both_arms(exprs, rows)
    nulls = [(type(None), "None")] * 3
    assert [outcome[1][2:5] for outcome in outcomes if outcome] == [nulls] * len(rows)
    assert source.count("== 0") == 1  # the column divisor's, alone
    assert _both_arms(exprs[:1], [("x", None, 0, None, None)])[0] == [
        ("raised", ExecutionError, "cannot apply / to 'x' and 4.0")
    ]


@pytest.mark.parametrize("op", ["LIKE", "NOT LIKE"])
def test_a_constant_pattern_binds_its_match_and_keeps_the_regex(op):
    """The bound ``match`` of the compiled pattern judges every value:
    IGNORECASE folds ``'ſ'`` to ``'s'`` and ``'LAB2'`` to ``'lab2'``,
    as the interpreter does."""
    patterns = ("lab%", "s%", "%", "la_%")
    exprs = [BinaryOp(op, ColumnRef("s"), Literal(pattern)) for pattern in patterns]
    values = ("lab1", "LAB2", "Lab", "office", "ſlab", "sx", "", None)
    rows = [(None, None, None, s, None) for s in values]
    outcomes, source = _both_arms(exprs, rows)
    assert ".match(" not in source and "startswith" not in source
    found = [outcome[1][1][1] for outcome in outcomes]
    assert found[4] == repr(op == "LIKE")  # 'ſlab' LIKE 's%'
    assert found[1] == repr(op != "LIKE")  # 'LAB2' LIKE 's%'
    lab = [outcome[1][0][1] for outcome in outcomes]
    assert lab[1] == repr(op == "LIKE")  # 'LAB2' LIKE 'lab%'


def _leaf(rng: random.Random, columns: dict[str, str]) -> Expr:
    """A conjunct that is no AND itself, so ``count`` of them flatten to
    ``count`` conjuncts."""
    while True:
        conjunct = _conjunct(rng, columns)
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "AND"):
            return conjunct


@pytest.mark.parametrize("count", [_FLAT_CONJUNCTS, _FLAT_CONJUNCTS + 1, 3 * _FLAT_CONJUNCTS])
def test_a_long_where_matches_the_interpreter_and_its_text_stays_linear(count):
    """Up to ``_FLAT_CONJUNCTS`` conjuncts lower flat, each with its own
    exits; a longer WHERE lowers as one value-producing AND with a
    single reject, so its text grows linearly. Either way every row's
    outcome is the interpreter's."""
    rng = random.Random(f"long-where-{count}")
    names = {kind: kind for kind in "abnsf"}
    for _ in range(6):
        stages = [("filter", _and_tree(rng, [_leaf(rng, names) for _ in range(count)]))]
        with generated():
            fused = compile_fused(Chain(stages, SCHEMA))
        reference = _interpreted_chain(stages, SCHEMA)
        for values in _rows(rng, 48):
            assert _outcome(fused, values) == _outcome(reference, values), (stages, values)
        rejects = fused.__compiled_source__.count("return None")
        assert rejects > count if count <= _FLAT_CONJUNCTS else rejects == 1


# ----------------------------------------------------------------------
# A constant LIKE answers from a memo of its regex's own verdicts
# ----------------------------------------------------------------------
class _Shown(str):
    """A str subclass whose ``str()`` differs from its own text."""

    def __str__(self) -> str:
        return "x" + self


class _Colliding(_Shown):
    """...that also hashes and compares as ``'lab1'``, a key the memo
    holds by the time it arrives, though its ``str()`` is another."""

    def __hash__(self) -> int:
        return hash("lab1")

    def __eq__(self, other) -> bool:
        return other == "lab1"

    def __ne__(self, other) -> bool:
        return other != "lab1"


#: Each value is seen three times, in this order, so the memo answers
#: the second and third sightings of every exact str.
LIKE_VALUES = [
    "lab1", "LAB1", "ſlab", "sx", "S", "ſ", "s",  # IGNORECASE folds 'ſ' to 's'
    "K", "k", "K",  # the Kelvin sign folds to 'k'
    "İ", "i", "I", "i̇",  # a dotted capital I
    "ß", "ss", "SS", "ẞ",  # a sharp s is one character
    "lab\n", "\n", "a\nb", "ab", "",  # DOTALL: '%' and '_' take a newline
    None,
    _Shown("lab1"), _Shown("s"), _Colliding("office"),
]
LIKE_PATTERNS = ["lab%", "s%", "ſ", "k", "K", "i%", "İ", "ß", "ss", "_", "%", "a_b", "lab_", "%\n"]
#: What the LIKE chains project: the value, LIKE and NOT LIKE.
LIKED = Schema.of(("s", DataType.STRING), ("l", DataType.BOOL), ("n", DataType.BOOL))


def _like_chains(pattern: str, s: str = "s") -> list[list]:
    """A projection, and a filter by LIKE or NOT LIKE under it: each row
    meets LIKE and NOT LIKE with one pattern in one kernel."""
    like, unlike = (BinaryOp(op, ColumnRef(s), Literal(pattern)) for op in ("LIKE", "NOT LIKE"))
    project = ("project", [ColumnRef(s), like, unlike], LIKED)
    return [[project], [("filter", like), project], [("filter", unlike), project]]


def _memos(fn) -> list[dict]:
    """The verdict memos ``fn`` probes: the dicts whose ``get`` it binds."""
    return [
        value.__self__
        for value in fn.__globals__.values()
        if isinstance(getattr(value, "__self__", None), dict)
    ]


def _batched(batch):
    """``batch``, one run of one row per call: the row's survivor."""

    def run(values):
        out: list = []
        batch([StreamElement(Row(SCHEMA, values, validate=False), 1.0, "T")], out)
        return out[0].row.values if out else None

    return run


@pytest.mark.parametrize("pattern", LIKE_PATTERNS, ids=repr)
def test_a_like_memo_answers_as_the_regex_does(pattern):
    """Row by row and in order, through ``compile_fused`` and
    ``compile_fused_batch`` (a row per run, then every row as one run):
    what the interpreter answers, for a value first seen and seen
    again, under LIKE and then NOT LIKE."""
    rows = [(None, None, None, value, None) for value in LIKE_VALUES * 3]
    for stages in _like_chains(pattern):
        with generated():
            fused = compile_fused(Chain(stages, SCHEMA))
            batch = compile_fused_batch(Chain(stages, SCHEMA), LIKED)
        reference = _interpreted_chain(stages, SCHEMA)
        expected = [_outcome(reference, values) for values in rows]
        assert [_outcome(fused, values) for values in rows] == expected, stages
        assert [_outcome(_batched(batch), values) for values in rows] == expected, stages
        out: list = []
        batch([StreamElement(Row(SCHEMA, values, validate=False), 1.0, "T") for values in rows], out)
        assert [("passed", _shape(e.row.values)) for e in out] == [x for x in expected if x]
        assert any(_memos(fused)) and any(_memos(batch))  # exact strs were memoised


def test_the_fused_ingest_loop_and_a_join_residual_answer_the_same():
    """The engine's fused-ingest loop (a LIKE filter under a projection
    of both verdicts) and a windowed join's probe kernel (the LIKE in
    its residual, the projection above it), each over one engine that
    sees every value three times, against the ``interpreted()`` arm."""
    rows = [(None, None, 1, value, None) for value in LIKE_VALUES * 3]
    right = [(1, 2.0)]
    for pattern in LIKE_PATTERNS:
        like, unlike = (
            BinaryOp(op, ColumnRef("t.s"), Literal(pattern)) for op in ("LIKE", "NOT LIKE")
        )
        items = [ProjectItem(ColumnRef("t.s"), "s"), ProjectItem(unlike, "n")]

        def ingest_plan(catalog):
            return Project(Select(Scan(catalog.source("T"), "t"), like), items)

        def join_plan(catalog):
            window = WindowSpec.range(100.0)
            key = BinaryOp("=", ColumnRef("t.n"), ColumnRef("r.k"))
            join = Join(
                Scan(catalog.source("T"), "t", window),
                Scan(catalog.source("R"), "r", window),
                BinaryOp("AND", key, like),
            )
            return Project(join, items)

        for plan_of, feeds in ((ingest_plan, [("T", rows)]), (join_plan, [("R", right), ("T", rows)])):
            with generated():
                ours, engine = _engine_outcomes(plan_of, feeds, False)
            if plan_of is ingest_plan:
                assert engine._fused_ingest
            else:
                (join,) = [
                    op
                    for op in engine.running_queries[0].compiled.operators
                    if isinstance(op, SymmetricHashJoin)
                ]
                assert join._left_probe is not None and join.predicate is not None
            with interpreted():
                theirs, _ = _engine_outcomes(plan_of, feeds, False)
            assert ours == theirs, (pattern, plan_of.__name__)


def test_a_full_memo_stops_probing():
    """More distinct values than the memo holds: the outcomes equal the
    interpreter's before and after it fills. Before, the kernel answers
    from the memo (a flipped verdict shows); once it is full, no row
    probes it (flipping every verdict changes nothing)."""
    values = [f"lab{i}" if i % 3 else f"ſ{i}" for i in range(_LIKE_MEMO + 40)]
    rows = [(None, None, None, value, None) for value in values]
    stages = [("project", [BinaryOp("LIKE", ColumnRef("s"), Literal("lab%"))], LIKED)]
    reference = _interpreted_chain(stages, SCHEMA)
    with generated():
        fused = compile_fused(Chain(stages, SCHEMA))
        batch = compile_fused_batch(Chain(stages, SCHEMA), LIKED)
    for kernel, run in ((fused, fused), (batch, _batched(batch))):
        (memo,) = _memos(kernel)
        early = [_outcome(run, values) for values in rows[:10]]
        assert early == [_outcome(reference, values) for values in rows[:10]]
        assert len(memo) == 10 and memo["lab1"] is True
        memo["lab1"] = False  # the memo answers a value it holds
        assert run(rows[1]) == (False,)
        memo["lab1"] = True
        outcomes = [_outcome(run, values) for values in rows]
        assert outcomes == [_outcome(reference, values) for values in rows]
        assert len(memo) == _LIKE_MEMO
        for key in memo:
            memo[key] = not memo[key]
        again = [_outcome(run, values) for values in rows[:_LIKE_MEMO]]
        assert again == outcomes[:_LIKE_MEMO] and len(memo) == _LIKE_MEMO


def test_an_operators_functions_share_its_lowering_and_nothing_else():
    """A FusedOp's per-element function and batch loop splice its one
    lowering: one verdict memo, while ``_G`` is each function's own
    globals, so a full memo stops the probes of the function that found
    it full. Another operator over an equal chain lowers its own: a
    memo is never shared across operators, and neither are constant
    types (``Literal(1) == Literal(1.0) == Literal(True)``)."""
    liked = [("project", [BinaryOp("LIKE", ColumnRef("s"), Literal("lab%"))], LIKED)]
    ops = [FusedOp(liked, LIKED, CollectingConsumer(), SCHEMA) for _ in range(2)]
    for op in ops:
        assert _memos(op._fused)[0] is _memos(op._batch_fn)[0]
        for fn in (op._fused, op._batch_fn):
            assert fn.__globals__["_G"] is fn.__globals__
    assert _memos(ops[0]._fused)[0] is not _memos(ops[1]._fused)[0]
    constant = Schema.of(("k", DataType.FLOAT))
    outputs = [
        FusedOp([("project", [Literal(value)], constant)], constant, CollectingConsumer(), SCHEMA)
        ._fused((1.0, 2.0, 3, "lab1", True))
        for value in (1, 1.0, True)
    ]
    assert [type(value) for (value,) in outputs] == [int, float, bool]
