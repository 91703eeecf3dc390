"""Unit tests for the stream engine's physical operators."""

import random

import pytest

from conftest import GENERATORS, declining, deliver, generated, interpreted, push_elements, unfused
from repro.catalog import Catalog
from repro.data import (
    CollectingConsumer,
    DataType,
    Punctuation,
    Row,
    Schema,
    StreamElement,
    WindowSpec,
)
from repro.data.streams import edge, park
from repro.plan.exchange import ExchangeSource
from repro.plan.logical import Join, Project, ProjectItem, Scan, Select
from repro.sql.ast import OrderItem
from repro.sql.expressions import AggregateCall, BinaryOp, ColumnRef, FunctionCall, Literal
from repro.stream import StreamEngine
from repro.stream.compiler import PlanCompiler
from repro.stream.operators import (
    AggregateOp,
    DistinctOp,
    FilterOp,
    FusedOp,
    LimitOp,
    OrderByOp,
    OutputOp,
    ProjectOp,
    SymmetricHashJoin,
)

XY = Schema.of(("x", DataType.INT), ("y", DataType.STRING))


def element(x: int, y: str, ts: float) -> StreamElement:
    return StreamElement(Row(XY, (x, y)), ts)


class TestFilter:
    def test_passes_true_only(self):
        sink = CollectingConsumer()
        op = FilterOp(BinaryOp(">", ColumnRef("x"), Literal(2)), sink, XY)
        for i in range(5):
            op.push(element(i, "a", float(i)))
        assert [r["x"] for r in sink.rows] == [3, 4]

    def test_null_does_not_pass(self):
        sink = CollectingConsumer()
        op = FilterOp(BinaryOp(">", ColumnRef("x"), Literal(None)), sink, XY)
        op.push(element(5, "a", 0.0))
        assert len(sink) == 0

    def test_punctuation_forwarded(self):
        sink = CollectingConsumer()
        op = FilterOp(Literal(False), sink, XY)
        op.push(Punctuation(3.0))
        assert sink.punctuations == [Punctuation(3.0)]

    def test_counters(self):
        sink = CollectingConsumer()
        op = FilterOp(BinaryOp(">", ColumnRef("x"), Literal(0)), sink, XY)
        op.push(element(0, "a", 0.0))
        op.push(element(1, "a", 1.0))
        assert op.rows_in == 2 and op.rows_out == 1


class TestProject:
    def test_computes_columns(self):
        out_schema = Schema.of(("doubled", DataType.INT))
        sink = CollectingConsumer()
        op = ProjectOp(
            [(BinaryOp("*", ColumnRef("x"), Literal(2)), "doubled")], out_schema, sink, XY
        )
        op.push(element(3, "a", 1.0))
        assert sink.rows[0]["doubled"] == 6
        assert sink.rows[0].schema == out_schema

    def test_timestamp_preserved(self):
        out_schema = Schema.of(("x", DataType.INT))
        sink = CollectingConsumer()
        op = ProjectOp([(ColumnRef("x"), "x")], out_schema, sink, XY)
        op.push(element(1, "a", 42.5))
        assert sink.elements[0].timestamp == 42.5


class TestSymmetricHashJoin:
    def make_join(self, left_window=None, right_window=None, predicate=None):
        left = Schema.of(("l.k", DataType.INT), ("l.v", DataType.STRING))
        right = Schema.of(("r.k", DataType.INT), ("r.w", DataType.STRING))
        self.left_schema, self.right_schema = left, right
        self.sink = CollectingConsumer()
        return SymmetricHashJoin(
            left,
            right,
            left_window or WindowSpec.range(10),
            right_window or WindowSpec.range(10),
            predicate,
            [("l.k", "r.k")],
            self.sink,
        )

    def test_sides_can_never_share_a_qualified_name(self):
        """Why the operator binds ``left.concat(right)`` with no handler
        for a clash: the plan node builds the same concatenation first,
        and the analyzer rejects the only SQL that would ask for one."""
        from repro.api import StreamSource, connect
        from repro.errors import QueryError, SchemaError
        from repro.plan.logical import Join, RemoteSource

        side = Schema.of(("r.k", DataType.INT))
        with pytest.raises(SchemaError):
            Join(RemoteSource("a", side, 1.0), RemoteSource("b", side, 1.0))
        sql = "select r.x from Readings r, Readings r where r.x > 1"
        with connect() as session:
            session.attach(StreamSource("Readings", XY))
            with pytest.raises(QueryError, match="duplicate relation binding 'r'") as info:
                session.query(sql)
        assert info.value.sql == sql

    def push_left(self, join, k, v, ts):
        join.push_left(StreamElement(Row(self.left_schema, (k, v)), ts))

    def push_right(self, join, k, w, ts):
        join.push_right(StreamElement(Row(self.right_schema, (k, w)), ts))

    def test_equi_match(self):
        join = self.make_join()
        self.push_left(join, 1, "a", 1.0)
        self.push_right(join, 1, "b", 2.0)
        self.push_right(join, 2, "c", 2.0)
        assert len(self.sink) == 1
        row = self.sink.rows[0]
        assert row["l.v"] == "a" and row["r.w"] == "b"

    def test_result_timestamp_is_max(self):
        join = self.make_join()
        self.push_left(join, 1, "a", 1.0)
        self.push_right(join, 1, "b", 4.0)
        assert self.sink.elements[0].timestamp == 4.0

    def test_window_excludes_stale_rows(self):
        join = self.make_join()
        self.push_left(join, 1, "old", 0.0)
        self.push_right(join, 1, "new", 20.0)  # 20 > window 10
        assert len(self.sink) == 0

    def test_out_of_order_arrival_still_joins(self):
        join = self.make_join()
        self.push_left(join, 1, "later", 5.0)
        self.push_right(join, 1, "earlier", 2.0)  # arrives after but ts before
        assert len(self.sink) == 1

    def test_residual_predicate(self):
        predicate = BinaryOp("=", ColumnRef("l.v"), Literal("a"))
        join = self.make_join(predicate=predicate)
        self.push_left(join, 1, "a", 1.0)
        self.push_left(join, 1, "zz", 1.0)
        self.push_right(join, 1, "b", 2.0)
        assert len(self.sink) == 1

    def test_punctuation_min_of_sides_and_eviction(self):
        join = self.make_join()
        self.push_left(join, 1, "a", 1.0)
        join.push_left(Punctuation(50.0))
        assert self.sink.punctuations == []  # right side not punctuated yet
        join.push_right(Punctuation(30.0))
        assert self.sink.punctuations == [Punctuation(30.0)]
        assert join.buffered_rows == 0  # expiry 1+10 < 30 evicted

    def test_unbounded_side_never_evicts(self):
        join = self.make_join(right_window=WindowSpec.unbounded())
        self.push_right(join, 1, "table-row", 0.0)
        join.push_left(Punctuation(1000.0))
        join.push_right(Punctuation(1000.0))
        self.push_left(join, 1, "probe", 2000.0)
        assert len(self.sink) == 1

    def test_rows_window_bounds_buffer(self):
        join = self.make_join(left_window=WindowSpec.rows(2))
        for i in range(5):
            self.push_left(join, i, "v", float(i))
        # Only the last two left rows are live.
        self.push_right(join, 2, "w", 10.0)
        self.push_right(join, 4, "w", 10.0)
        assert len(self.sink) == 1  # k=4 matched; k=2 was evicted by count

    def test_duplicate_keys_all_match(self):
        join = self.make_join()
        self.push_left(join, 1, "a1", 1.0)
        self.push_left(join, 1, "a2", 1.0)
        self.push_right(join, 1, "b", 2.0)
        assert len(self.sink) == 2

    @pytest.mark.parametrize(
        "left_ts, right_ts, joins",
        [
            (0.0, 10.0, True),  # exactly the window size apart: still live
            (0.0, 10.001, False),
            (-12.0, -2.0, True),  # negative event times, boundary-exact
            (-12.0, -1.9, False),
            (-5.0, 5.0, True),  # spanning zero
        ],
    )
    def test_window_boundary_exact(self, left_ts, right_ts, joins):
        join = self.make_join()
        self.push_left(join, 1, "a", left_ts)
        self.push_right(join, 1, "b", right_ts)
        assert len(self.sink) == (1 if joins else 0)

    def test_out_of_order_negative_timestamps_join(self):
        join = self.make_join()
        self.push_left(join, 1, "later", -1.0)
        self.push_right(join, 1, "earlier", -9.0)  # arrives after, ts before
        assert len(self.sink) == 1
        assert self.sink.elements[0].timestamp == -1.0

    @pytest.mark.parametrize("runs", [True, False], ids=["push_batch", "push"])
    def test_eviction_depends_on_the_watermark_alone(self, runs):
        """A row that arrived behind its bucket's tail is evicted by the
        punctuation that expires it, not once the rows ahead of it do —
        and a restored operator knows which buckets are out of order."""
        join = self.make_join()
        rows = [StreamElement(Row(self.left_schema, (1, v)), ts)
                for v, ts in (("a", 100.0), ("b", 50.0), ("c", 99.0))]
        if runs:
            push_elements(join.left_port, rows)
        else:
            for row in rows:
                join.push_left(row)
        join.push_left(Punctuation(105.0))
        join.push_right(Punctuation(105.0))
        state = join.state_snapshot()
        assert [e.row["l.v"] for e in state["left_buffer"][1]] == ["a", "c"]
        restored = self.make_join()
        restored.state_restore(state)
        restored.push_left(Punctuation(109.5))  # expiry(99) = 109, expiry(100) = 110
        restored.push_right(Punctuation(109.5))
        assert [e.row["l.v"] for e in restored.state_snapshot()["left_buffer"][1]] == ["a"]
        # An in-order bucket is unmarked again once its stragglers expire.
        assert join._left_unsorted == {1} and restored._left_unsorted == set()


# ----------------------------------------------------------------------
# The join identity corpus: per-element, in runs, interpreted
# ----------------------------------------------------------------------
_JL = Schema.of(("l.k", DataType.INT), ("l.g", DataType.STRING), ("l.n", DataType.INT))
_JR = Schema.of(("r.k", DataType.INT), ("r.g", DataType.STRING), ("r.n", DataType.INT))
_JOIN_WINDOWS = {
    "range": WindowSpec.range(6.0),
    "now": WindowSpec.now(),
    "unbounded": WindowSpec.unbounded(),
    "rows": WindowSpec.rows(3),
}
_JOIN_KEYS = {
    "single": [("l.k", "r.k")],
    "composite": [("l.k", "r.k"), ("l.g", "r.g")],
    "nokey": [],
}
_JOIN_RESIDUAL = BinaryOp("<=", ColumnRef("l.n"), ColumnRef("r.n"))


def _join_script(seed: int, empty_right: bool = False):
    """A seeded two-sided feed as ``(left?, [items])`` chunks: same-side
    chunks of elements and punctuations. Keys are few (so buckets hold
    several rows) and sometimes NULL; inside a punctuation segment
    timestamps repeat and run out of order, never below the side's last
    watermark."""
    rng = random.Random(seed)
    chunks: list[tuple[bool, list]] = []
    marks = {True: 0.0, False: 0.0}
    for _ in range(rng.randint(6, 10)):
        left = rng.random() < 0.5
        if empty_right:
            left = True
        schema = _JL if left else _JR
        base = marks[left]
        items: list = []
        for _ in range(rng.randint(0, 9)):
            values = (
                rng.choice([1, 2, 3, None]),
                rng.choice(["a", "b", None, "a"]),
                rng.randrange(4),
            )
            stamp = base + float(rng.randrange(0, 9))  # dups, any order
            items.append(StreamElement(Row.raw(schema, values), stamp))
            if rng.random() < 0.15:
                marks[left] = base = base + float(rng.randrange(0, 5))
                items.append(Punctuation(base))
        chunks.append((left, items))
    for left in (True, False):
        chunks.append((left, [Punctuation(marks[left] + 50.0)]))
    return chunks


def _feed_join(left_port, right_port, chunks, runs):
    for left, items in chunks:
        port = left_port if left else right_port
        if runs:
            deliver(port, items)
        else:
            for item in items:
                port.push(item)


def _run_join(left_window, right_window, keys, predicate, chunks, *, runs):
    sink = CollectingConsumer()
    join = SymmetricHashJoin(_JL, _JR, left_window, right_window, predicate, keys, sink)
    _feed_join(join.left_port, join.right_port, chunks, runs)
    return (
        sink.elements,
        sink.punctuations,
        (join.rows_in, join.rows_out, join.buffered_rows),
        join.state_snapshot(),
    )


# The Select/Project run above a join, as plan nodes over the join node.
_LN, _RN, _LG, _RG = ColumnRef("l.n"), ColumnRef("r.n"), ColumnRef("l.g"), ColumnRef("r.g")
_JOIN_STAGES = {
    "project": lambda j: Project(
        j, [ProjectItem(_LG, "g"), ProjectItem(BinaryOp("+", _LN, _RN), "s")]
    ),
    "filter": lambda j: Select(j, BinaryOp(">", _LN, Literal(0))),
    "filter_both_sides": lambda j: Select(j, BinaryOp("=", _LG, _RG)),
    "filter_project": lambda j: Project(
        Select(j, BinaryOp("<", _LN, _RN)), [ProjectItem(_RN, "n"), ProjectItem(_LG, "g")]
    ),
    # Division by zero and NULL groups yield NULL columns.
    "null_project": lambda j: Project(
        j, [ProjectItem(_RG, "g"), ProjectItem(BinaryOp("/", _LN, _RN), "q")]
    ),
}


def _staged_join_plan(stages, left, right):
    """``stages`` over ``L l [left] ⋈ R r [right]`` on ``l.k = r.k`` with
    the corpus residual."""
    catalog = Catalog()
    entries = [
        catalog.register_stream(
            name, Schema.of(("k", DataType.INT), ("g", DataType.STRING), ("n", DataType.INT))
        )
        for name in ("L", "R")
    ]
    join = Join(
        Scan(entries[0], "l", _JOIN_WINDOWS[left]),
        Scan(entries[1], "r", _JOIN_WINDOWS[right]),
        BinaryOp("AND", BinaryOp("=", ColumnRef("l.k"), ColumnRef("r.k")), _JOIN_RESIDUAL),
    )
    return _JOIN_STAGES[stages](join)


def _buffers(join):
    state = join.state_snapshot()
    return join.rows_in, state["left_buffer"], state["right_buffer"]


def _run_staged_oracle(plan, left, right, chunks):
    """What the run lowered to before it lowered into the join: a join
    without stages, then one FilterOp / ProjectOp per node, fed by
    ``push``. Returns the emissions and the join's pair count."""
    sink = CollectingConsumer()
    downstream, node = sink, plan
    while isinstance(node, (Select, Project)):
        if isinstance(node, Select):
            downstream = FilterOp(node.predicate, downstream, node.child.schema)
        else:
            items = [(item.expr, item.name) for item in node.items]
            downstream = ProjectOp(items, node.schema, downstream, node.child.schema)
        node = node.child
    join = SymmetricHashJoin(
        _JL, _JR, _JOIN_WINDOWS[left], _JOIN_WINDOWS[right], _JOIN_RESIDUAL,
        _JOIN_KEYS["single"], downstream,
    )
    _feed_join(join.left_port, join.right_port, chunks, runs=False)
    return (sink.elements, sink.punctuations, _buffers(join)), join.rows_out


def _run_staged(plan, chunks, runs):
    """The plan as the compiler lowers it in the enclosing arm."""
    sink = CollectingConsumer()
    compiled = PlanCompiler().compile(plan, sink)
    left_port, right_port = (port.consumer for port in compiled.ports)
    _feed_join(left_port, right_port, chunks, runs)
    (join,) = [op for op in compiled.operators if isinstance(op, SymmetricHashJoin)]
    return sink.elements, sink.punctuations, _buffers(join)


class TestJoinIdentityCorpus:
    """The same feed all by ``push``, as runs by ``push_batch`` and
    through the operator with every generator declining: equal emissions *in order*,
    punctuations, counters and checkpoint state."""

    @pytest.mark.parametrize("residual", [False, True], ids=["plain", "residual"])
    @pytest.mark.parametrize("keys", _JOIN_KEYS)
    @pytest.mark.parametrize("right", _JOIN_WINDOWS)
    @pytest.mark.parametrize("left", _JOIN_WINDOWS)
    def test_three_ways(self, left, right, keys, residual):
        predicate = _JOIN_RESIDUAL if residual else None
        emitted = 0
        for seed in range(4):
            chunks = _join_script(seed, empty_right=seed == 3)
            args = (_JOIN_WINDOWS[left], _JOIN_WINDOWS[right], _JOIN_KEYS[keys], predicate, chunks)
            with generated():
                pushed = _run_join(*args, runs=False)
                assert _run_join(*args, runs=True) == pushed
            with declining(*GENERATORS) as counts:
                assert _run_join(*args, runs=False) == pushed
                assert _run_join(*args, runs=True) == pushed
            assert counts["generated"] == 0
            # Two ROWS sides and no residual: nothing there to interpret.
            assert counts["fallbacks"] or (left == right == "rows" and not residual)
            emitted += len(pushed[0])
            if seed == 3:
                assert not pushed[0]  # nothing to join against
        assert emitted  # not vacuous

    def test_kernel_is_selected_from_window_kind_and_compile_result(self):
        def probes(left_window, right_window):
            join = SymmetricHashJoin(
                _JL, _JR, left_window, right_window, None, _JOIN_KEYS["single"],
                CollectingConsumer(),
            )
            return join._left_probe is not None, join._right_probe is not None

        rng, rows = WindowSpec.range(5.0), WindowSpec.rows(3)
        assert probes(rng, rng) == (True, True)
        assert probes(WindowSpec.now(), WindowSpec.unbounded()) == (True, True)
        assert probes(rows, rng) == (False, True)  # a ROWS side evicts per arrival
        assert probes(rng, rows) == (True, False)
        with interpreted():  # a kernel that declines is a counted fallback
            assert probes(rng, rng) == (False, False)

    @pytest.mark.parametrize("stages", _JOIN_STAGES)
    @pytest.mark.parametrize("right", _JOIN_WINDOWS)
    @pytest.mark.parametrize("left", _JOIN_WINDOWS)
    def test_stages_lowered_into_the_join(self, left, right, stages):
        """The run above the join, lowered into it, emits what the join
        followed by FilterOp / ProjectOp emitted — in order, by ``push``
        and by ``push_batch``, with every generator declining and with
        fusion declining (then the run lowers above the join again).
        ROWS sides have no kernel: their pairs take ``_push_side``."""
        plan = _staged_join_plan(stages, left, right)
        pairs = 0
        for seed in range(4):
            chunks = _join_script(seed, empty_right=seed == 3)
            with generated():
                expected, joined = _run_staged_oracle(plan, left, right, chunks)
                assert _run_staged(plan, chunks, runs=False) == expected
                assert _run_staged(plan, chunks, runs=True) == expected
            for arm in (interpreted, unfused):
                with arm():
                    assert _run_staged(plan, chunks, runs=False) == expected
                    assert _run_staged(plan, chunks, runs=True) == expected
            pairs += joined
        assert pairs  # not vacuous

    @pytest.mark.parametrize("stages", ["project", "filter_project"])
    def test_run_above_a_join_has_no_operator_of_its_own(self, stages):
        plan = _staged_join_plan(stages, "range", "range")
        sink = CollectingConsumer()
        with generated():
            compiled = PlanCompiler().compile(plan, sink)
        (join,) = compiled.operators
        assert isinstance(join, SymmetricHashJoin) and join.downstream is sink
        assert len(join.stages) == (2 if stages == "filter_project" else 1)
        assert join.output_schema == plan.schema
        with unfused():  # the run's code declines: it lowers as before
            compiled = PlanCompiler().compile(plan, CollectingConsumer())
        names = [type(op).__name__ for op in compiled.operators]
        expected = ["ProjectOp", "FilterOp"] if stages == "filter_project" else ["ProjectOp"]
        assert names == [*expected, "SymmetricHashJoin"]
        assert compiled.operators[-1].downstream is compiled.operators[-2]
        assert not compiled.operators[-1].stages


class TestJoinNullKeys:
    """A row whose equi-key has a NULL component matches nothing — not
    even another NULL — and holds no state."""

    def _join(self, keys, arm):
        self.sink = CollectingConsumer()
        with arm():
            return SymmetricHashJoin(
                _JL, _JR, WindowSpec.range(10.0), WindowSpec.range(10.0), None,
                _JOIN_KEYS[keys], self.sink,
            )

    @staticmethod
    def _elements(schema, rows):
        return [StreamElement(Row.raw(schema, values), 1.0) for values in rows]

    @pytest.mark.parametrize("arm", [generated, interpreted], ids=["compiled", "interpreted"])
    @pytest.mark.parametrize("runs", [True, False], ids=["push_batch", "push"])
    def test_single_key(self, runs, arm):
        join = self._join("single", arm)
        left = self._elements(_JL, [(None, "a", 0), (1, "a", 1)])
        right = self._elements(_JR, [(None, "a", 2), (1, "a", 3), (None, "b", 4)])
        for port, elements in ((join.left_port, left), (join.right_port, right)):
            if runs:
                push_elements(port, elements)
            else:
                for element in elements:
                    port.push(element)
        assert [row.values for row in self.sink.rows] == [(1, "a", 1, 1, "a", 3)]
        assert (join.rows_in, join.rows_out) == (5, 1)
        assert join.buffered_rows == 2  # the NULL-keyed rows hold no state

    @pytest.mark.parametrize("arm", [generated, interpreted], ids=["compiled", "interpreted"])
    @pytest.mark.parametrize("runs", [True, False], ids=["push_batch", "push"])
    def test_composite_key_with_one_null_component(self, runs, arm):
        join = self._join("composite", arm)
        left = self._elements(_JL, [(1, None, 0), (None, "a", 1), (1, "a", 2)])
        right = self._elements(_JR, [(1, None, 3), (None, "a", 4), (1, "a", 5)])
        for port, elements in ((join.right_port, right), (join.left_port, left)):
            if runs:
                push_elements(port, elements)
            else:
                for element in elements:
                    port.push(element)
        assert [row.values for row in self.sink.rows] == [(1, "a", 2, 1, "a", 5)]
        assert join.buffered_rows == 2


class _CountingSink(CollectingConsumer):
    def __init__(self):
        super().__init__()
        self.pushes = 0
        self.batches = 0

    def push(self, item):
        self.pushes += not isinstance(item, Punctuation)
        super().push(item)

    def push_batch(self, rows, stamps, source):
        self.batches += 1
        super().push_batch(rows, stamps, source)


class TestJoinRunBudget:
    """A run into a compiled side port leaves as at most one run: a
    count, so per-row emission cannot creep back unnoticed."""

    @pytest.mark.parametrize("left", [True, False], ids=["left-port", "right-port"])
    def test_one_downstream_batch_per_run(self, left):
        sink = _CountingSink()
        join = SymmetricHashJoin(
            _JL, _JR, WindowSpec.range(10.0), WindowSpec.range(10.0),
            _JOIN_RESIDUAL, _JOIN_KEYS["single"], sink,
        )
        own, other = (_JL, _JR) if left else (_JR, _JL)
        own_port, other_port = (
            (join.left_port, join.right_port) if left else (join.right_port, join.left_port)
        )
        other_port.push_batch([Row.raw(other, (i % 3, "a", 3)) for i in range(9)], [float(i) for i in range(9)], "R")
        assert (sink.batches, sink.pushes) == (0, 0)  # nothing to join yet
        own_port.push_batch([Row.raw(own, (i % 3, "a", 3)) for i in range(64)], [5.0] * 64, "L")
        assert len(sink) == 64 * 3
        assert (sink.batches, sink.pushes) == (1, 0)

    @pytest.mark.parametrize("left", [True, False], ids=["left-port", "right-port"])
    def test_a_projection_on_top_builds_one_row_per_result(self, left):
        """Read off the outputs: every result is its own Row under the
        projection's schema, and none is the joined row. The probe
        kernel binds only the output schema and builds one Row per
        result, so no joined Row is built and then discarded."""
        own, other = (_JL, _JR) if left else (_JR, _JL)
        buffered = [Row.raw(other, (i % 3, "a", 3)) for i in range(9)]
        run = [Row.raw(own, (i % 3, "a", 3)) for i in range(64)]
        out = Schema.of(("g", DataType.STRING), ("s", DataType.INT))
        sink = _CountingSink()
        join = SymmetricHashJoin(
            _JL, _JR, WindowSpec.range(10.0), WindowSpec.range(10.0),
            _JOIN_RESIDUAL, _JOIN_KEYS["single"], sink,
            [("project", [_LG, BinaryOp("+", _LN, _RN)], out)], out,
        )
        own_port, other_port = (
            (join.left_port, join.right_port) if left else (join.right_port, join.left_port)
        )
        other_port.push_batch(buffered, [float(i) for i in range(9)], "R")
        own_port.push_batch(run, [5.0] * 64, "L")
        assert len(sink) == 64 * 3
        assert (sink.batches, sink.pushes) == (1, 0)
        rows = sink.rows
        assert len({id(row) for row in rows}) == 64 * 3
        assert all(row.schema is out for row in rows)  # no joined row first
        probe = join._left_probe if left else join._right_probe
        schemas = [v for v in probe.__globals__.values() if isinstance(v, Schema)]
        assert schemas == [out]
        assert probe.__compiled_source__.count("_new(_Row)") == 1

    def test_no_operator_above_the_join_on_the_ledger_pool(self):
        """``xchg_pool4``'s exchanged join emits its projection itself:
        no replica has a Filter, Project or Fused operator directly
        downstream of a join."""
        from benchmarks.ledger.workloads import BY_NAME

        workload = BY_NAME["xchg_pool4"]
        deployment = workload.open(workload.build_input(7, 256))
        try:
            joins = [
                op
                for channel in deployment.session.engine._channels
                for replica in channel.queries.values()
                for op in replica.compiled.operators
                if isinstance(op, SymmetricHashJoin)
            ]
            deployment.deliver(0, 256)
            assert all(cursor.results() for cursor in deployment.cursors)
        finally:
            deployment.close()
        assert len(joins) == 4  # one stage-2 replica per shard
        for join in joins:
            assert join.stages
            assert not isinstance(join.downstream, (FilterOp, ProjectOp, FusedOp))

    def test_one_join_call_per_destination_per_delivery_on_the_ledger_pool(self, monkeypatch):
        """``xchg_pool4``'s closed loop: each destination's delivery is
        one ``push_exchange`` call, in which the exchanged join's batch
        body runs at most once and emits at most one batch; its side
        ports' ``push_batch`` never runs."""
        from benchmarks.ledger.workloads import BY_NAME
        from repro.stream import channel

        calls = {"deliveries": 0, "push_exchange": 0, "side_port": 0, "emit": 0}
        per_delivery: list[list[int]] = []  # [entries, batches] per delivery

        def counting(key, raw):
            def counted(*args):
                calls[key] += 1
                return raw(*args)

            return counted

        def delivering(host, runs, puncts, _raw=channel.ShardHost.deliver):
            calls["deliveries"] += bool(runs)
            per_delivery.append([0, 0])
            return _raw(host, runs, puncts)

        def entering(join, runs, _raw=SymmetricHashJoin.push_runs):
            per_delivery[-1][0] += 1
            return _raw(join, runs)

        def batching(join, rows, stamps, source="", _raw=SymmetricHashJoin.emit_batch):
            per_delivery[-1][1] += 1
            return _raw(join, rows, stamps, source)

        monkeypatch.setattr(channel.ShardHost, "deliver", delivering)
        monkeypatch.setattr(
            StreamEngine, "push_exchange", counting("push_exchange", StreamEngine.push_exchange)
        )
        monkeypatch.setattr(SymmetricHashJoin, "push_runs", entering)
        monkeypatch.setattr(SymmetricHashJoin, "emit_batch", batching)
        monkeypatch.setattr(SymmetricHashJoin, "emit", counting("emit", SymmetricHashJoin.emit))
        monkeypatch.setattr(
            SymmetricHashJoin._SidePort, "push_batch",
            counting("side_port", SymmetricHashJoin._SidePort.push_batch),
        )
        workload = BY_NAME["xchg_pool4"]
        closed, _ = workload.phases.steps(0.25)
        deployment = workload.open(workload.build_input(7, closed[-1][1]))
        try:
            for lo, hi in closed:
                deployment.deliver(lo, hi)
            assert deployment.cursors[0].results()
        finally:
            deployment.close()
        assert calls["deliveries"] and calls["push_exchange"] == calls["deliveries"]
        assert calls["side_port"] == calls["emit"] == 0
        assert {entries for entries, _ in per_delivery} <= {0, 1}
        assert sum(entries for entries, _ in per_delivery) > len(closed)
        assert all(batches <= entries for entries, batches in per_delivery)

    def test_partial_aggregate_never_interprets_on_the_ledger_pool(self, monkeypatch):
        """One 1,024-unit step of the ledger's ``xchg_pool4`` deployment:
        no ``Expr.eval`` runs inside a ``PartialAggregateOp``."""
        from benchmarks.ledger.workloads import BY_NAME
        from repro.sql.expressions import Expr
        from repro.stream.operators import PartialAggregateOp

        inside = 0
        entered = 0
        evals: list[str] = []

        def scoped(method):
            def wrapper(self, *args):
                nonlocal inside, entered
                inside += 1
                entered += 1
                try:
                    return method(self, *args)
                finally:
                    inside -= 1

            return wrapper

        def counted(cls, method):
            def wrapper(self, row):
                if inside:
                    evals.append(cls.__name__)
                return method(self, row)

            return wrapper

        for name in ("push", "push_batch", "on_punctuation"):
            monkeypatch.setattr(
                PartialAggregateOp, name, scoped(getattr(PartialAggregateOp, name))
            )
        kinds, pending = [], [Expr]
        while pending:
            cls = pending.pop()
            kinds.append(cls)
            pending.extend(cls.__subclasses__())
        for cls in kinds:
            if "eval" in vars(cls):
                monkeypatch.setattr(cls, "eval", counted(cls, vars(cls)["eval"]))

        workload = BY_NAME["xchg_pool4"]
        deployment = workload.open(workload.build_input(7, 2048))
        try:
            deployment.deliver(0, 1024)
            deployment.deliver(1024, 2048)
            deployment.finish()
            assert all(cursor.results() for cursor in deployment.cursors)
        finally:
            deployment.close()
        assert entered  # the partial aggregates did run
        assert evals == []


# One exchange delivery into a join: the engine's ``push_exchange``
# against the same runs fed one by one through the side ports.
_XL, _XR = "#x1:0", "#x1:1"


def _delivery_plan(residual: bool, stages: str | None):
    """``L ⋈ R`` on ``l.k = r.k`` (and the corpus residual) over two
    exchange feeds, with the Select/Project run ``stages`` above it."""
    predicate = BinaryOp("=", ColumnRef("l.k"), ColumnRef("r.k"))
    if residual:
        predicate = BinaryOp("AND", predicate, _JOIN_RESIDUAL)
    window = _JOIN_WINDOWS["range"]
    join = Join(
        ExchangeSource(_XL, _JL, window, partition_by=("l.k",), ordinal=0),
        ExchangeSource(_XR, _JR, window, partition_by=("r.k",), ordinal=1),
        predicate,
    )
    return _JOIN_STAGES[stages](join) if stages else join


def _delivery(seed: int) -> list[tuple[str, list, list]]:
    """Alternating runs of one delivery, as a barrier flushes them: keys
    few and sometimes NULL, stamps repeating within and across sides."""
    rng = random.Random(seed)
    runs = []
    for index in range(rng.randint(4, 9)):
        length = rng.randint(1, 5)
        values = [
            (rng.choice([1, 2, None]), rng.choice(["a", "b", None]), rng.randrange(4))
            for _ in range(length)
        ]
        stamps = sorted(float(rng.randrange(0, 6)) for _ in range(length))
        runs.append((_XL if index % 2 == 0 else _XR, values, stamps))
    return runs


class TestJoinDeliveryEntry:
    """A whole delivery entering the join by one call equals the same
    runs entering by its side ports one after the other: emissions in
    order, buckets, and the watermark and buckets a closing punctuation
    leaves."""

    def _by_entry(self, plan, runs, raises=None):
        engine = StreamEngine(Catalog())
        sink = CollectingConsumer()
        handle = engine.execute(plan, sink=sink)
        (join,) = [op for op in handle.compiled.operators if isinstance(op, SymmetricHashJoin)]
        calls = []
        if join._deliver is not None:
            join.push_runs = lambda taken, _raw=join.push_runs: calls.append(len(taken)) or _raw(taken)
        if raises is None:
            engine.push_exchange(runs)
        else:
            with pytest.raises(raises):
                engine.push_exchange(runs)
        before = _buffers(join)
        engine.punctuate(50.0, [_XL, _XR])
        return (sink.elements, sink.punctuations, before, _buffers(join)), join, calls

    def _by_ports(self, plan, runs, park_errors=False):
        sink = CollectingConsumer()
        compiled = PlanCompiler().compile(plan, sink)
        ports = {port.source_name: port.consumer for port in compiled.ports}
        schemas = {_XL: _JL, _XR: _JR}
        for name, values, stamps in runs:
            run = [StreamElement(Row.raw(schemas[name], v), t, name) for v, t in zip(values, stamps)]
            try:
                push_elements(ports[name], run)
            except Exception as exc:
                if not park_errors:
                    raise
                park(exc)
        (join,) = [op for op in compiled.operators if isinstance(op, SymmetricHashJoin)]
        before = _buffers(join)
        for port in ports.values():
            port.push(Punctuation(50.0))
        return sink.elements, sink.punctuations, before, _buffers(join)

    @pytest.mark.parametrize("arm", [generated, unfused, interpreted])
    @pytest.mark.parametrize(
        "residual, stages",
        [(False, None), (True, None), (False, "project"), (True, "filter_project"), (True, "null_project")],
        ids=["plain", "residual", "project", "residual-filter-project", "null-project"],
    )
    def test_one_call_equals_the_runs_one_by_one(self, residual, stages, arm):
        plan = _delivery_plan(residual, stages)
        pairs = ties = nulls = 0
        for seed in range(6):
            runs = _delivery(seed)
            with arm():
                got, join, calls = self._by_entry(plan, runs)
                expected = self._by_ports(plan, runs)
            assert got == expected
            # The generated arms take the delivery in one call; with no
            # kernel the runs go through the side ports instead.
            assert calls == ([] if arm is interpreted else [len(runs)])
            assert (join._deliver is None) == (arm is interpreted)
            pairs += len(got[0])
            stamps = [set(run[2]) for run in runs]
            ties += bool(set().union(*stamps[::2]) & set().union(*stamps[1::2]))
            nulls += any(v[0] is None for run in runs for v in run[1])
        assert pairs and ties and nulls  # not vacuous

    def test_a_run_that_raises_loses_only_its_own_pairs(self):
        """A stage raising on one pair: that run's pairs are gone and its
        later rows unbuffered, every other run's pairs leave in order,
        and the verb raises once — what the runs' side-port calls did."""
        join_node = _delivery_plan(False, None)
        root = FunctionCall("SQRT", (BinaryOp("-", _RN, Literal(1)),))
        plan = Project(join_node, [ProjectItem(_LG, "g"), ProjectItem(root, "s")])
        runs = [
            (_XL, [(1, "a", 1), (2, "a", 2)], [1.0, 1.0]),
            (_XR, [(1, "b", 1), (2, "b", 0), (2, "b", 3)], [2.0, 2.0, 2.0]),
            (_XL, [(1, "c", 1), (3, "c", 5)], [3.0, 3.0]),
        ]
        got, join, calls = self._by_entry(plan, runs, raises=ValueError)
        assert calls == [3]
        # Run 2 pairs (1, b) with (1, a), then its second row raises: the
        # pair goes, (2, b, 0) stays buffered and (2, b, 3) never is.
        # Run 3's rows pair with the right rows buffered so far.
        assert [e.row.values for e in got[0]] == [("c", 0.0)]
        assert join.rows_in == 4
        right = got[2][2]  # before the closing punctuation
        assert {k: [e.row.values for e in b] for k, b in right.items()} == {
            1: [(1, "b", 1)], 2: [(2, "b", 0)]
        }
        ported = []

        @edge
        def by_ports():
            ported.append(self._by_ports(plan, runs, park_errors=True))

        with pytest.raises(ValueError):
            by_ports()
        assert ported == [got]


class TestAggregateOp:
    def make(self, window=None):
        schema = Schema.of(("key_0", DataType.STRING), ("agg_0", DataType.INT))
        self.sink = CollectingConsumer()
        return AggregateOp(
            [(ColumnRef("y"), "key_0")],
            [(AggregateCall("COUNT", None), "agg_0")],
            schema,
            self.sink,
            XY,
            window,
        )

    def test_running_mode_emits_on_punctuation(self):
        op = self.make()
        op.push(element(1, "a", 1.0))
        op.push(element(2, "a", 2.0))
        op.push(element(3, "b", 3.0))
        assert len(self.sink) == 0
        op.push(Punctuation(5.0))
        counts = {r["key_0"]: r["agg_0"] for r in self.sink.rows}
        assert counts == {"a": 2, "b": 1}

    def test_running_totals_grow(self):
        op = self.make()
        op.push(element(1, "a", 1.0))
        op.push(Punctuation(2.0))
        op.push(element(2, "a", 3.0))
        op.push(Punctuation(4.0))
        assert [r["agg_0"] for r in self.sink.rows] == [1, 2]

    def test_tumbling_window_mode(self):
        op = self.make(window=WindowSpec.range(10, slide=10))
        for ts in (1.0, 5.0, 11.0):
            op.push(element(1, "a", ts))
        op.push(Punctuation(20.0))
        # Window (0,10] has 2 elements; (10,20] has 1.
        assert [(e.timestamp, e.row["agg_0"]) for e in self.sink.elements] == [
            (10.0, 2),
            (20.0, 1),
        ]

    def test_sliding_window_counts_overlap(self):
        op = self.make(window=WindowSpec.range(10, slide=5))
        op.push(element(1, "a", 7.0))
        op.push(Punctuation(20.0))
        counts = [(e.timestamp, e.row["agg_0"]) for e in self.sink.elements]
        # Element at 7 belongs to windows ending at 10 and 15.
        assert (10.0, 1) in counts and (15.0, 1) in counts

    def test_avg_sum_min_max(self):
        schema = Schema.of(
            ("s", DataType.INT), ("a", DataType.FLOAT),
            ("lo", DataType.INT), ("hi", DataType.INT),
        )
        sink = CollectingConsumer()
        op = AggregateOp(
            [],
            [
                (AggregateCall("SUM", ColumnRef("x")), "s"),
                (AggregateCall("AVG", ColumnRef("x")), "a"),
                (AggregateCall("MIN", ColumnRef("x")), "lo"),
                (AggregateCall("MAX", ColumnRef("x")), "hi"),
            ],
            schema,
            sink,
            XY,
        )
        for i in (1, 2, 3):
            op.push(element(i, "z", float(i)))
        op.push(Punctuation(10.0))
        row = sink.rows[0]
        assert (row["s"], row["a"], row["lo"], row["hi"]) == (6, 2.0, 1, 3)

    def test_distinct_aggregate(self):
        schema = Schema.of(("n", DataType.INT))
        sink = CollectingConsumer()
        op = AggregateOp(
            [],
            [(AggregateCall("COUNT", ColumnRef("x"), distinct=True), "n")],
            schema,
            sink,
            XY,
        )
        for x in (1, 1, 2, 2, 3):
            op.push(element(x, "z", 1.0))
        op.push(Punctuation(2.0))
        assert sink.rows[0]["n"] == 3

    @pytest.mark.parametrize(
        "ts, boundary",
        [
            (10.0, 10.0),  # exactly on a slide multiple: window ending there
            (0.0, 0.0),
            (20.0, 20.0),
            (9.999, 10.0),
            (10.001, 20.0),
            (-5.0, 0.0),  # negative event times: floor/ceil, not truncation
            (-10.0, -10.0),
            (-15.0, -10.0),
            (-0.001, 0.0),
        ],
    )
    def test_window_boundary_assignment(self, ts, boundary):
        # Regression: (int(first / slide) + 1) * slide pushed a row at
        # exactly t=10 past its own (0, 10] window (and truncated
        # negative timestamps toward zero), silently dropping it.
        op = self.make(window=WindowSpec.range(10, slide=10))
        op.push(element(1, "a", ts))
        op.push(Punctuation(boundary))
        assert [(e.timestamp, e.row["agg_0"]) for e in self.sink.elements] == [
            (boundary, 1)
        ]

    def test_boundary_row_not_double_counted(self):
        # t=10 belongs to (0, 10] only — not also to (10, 20].
        op = self.make(window=WindowSpec.range(10, slide=10))
        op.push(element(1, "a", 10.0))
        op.push(element(2, "a", 10.5))
        op.push(Punctuation(20.0))
        assert [(e.timestamp, e.row["agg_0"]) for e in self.sink.elements] == [
            (10.0, 1),
            (20.0, 1),
        ]

    def test_out_of_order_rows_share_window(self):
        op = self.make(window=WindowSpec.range(10, slide=10))
        for ts in (5.0, 3.0, 8.0):  # not in timestamp order
            op.push(element(1, "a", ts))
        op.push(Punctuation(10.0))
        assert [(e.timestamp, e.row["agg_0"]) for e in self.sink.elements] == [
            (10.0, 3)
        ]

    def test_negative_out_of_order_and_boundary_mix(self):
        op = self.make(window=WindowSpec.range(10, slide=10))
        for ts in (-5.0, -10.0, 0.0, -2.5):
            op.push(element(1, "a", ts))
        op.push(Punctuation(5.0))
        by_boundary = {e.timestamp: e.row["agg_0"] for e in self.sink.elements}
        # (-20, -10] holds -10; (-10, 0] holds -5, -2.5 and 0 exactly.
        assert by_boundary == {-10.0: 1, 0.0: 3}

    def test_nulls_ignored_by_aggregates(self):
        schema = Schema.of(("n", DataType.INT), ("s", DataType.INT))
        sink = CollectingConsumer()
        op = AggregateOp(
            [],
            [
                (AggregateCall("COUNT", ColumnRef("x")), "n"),
                (AggregateCall("SUM", ColumnRef("x")), "s"),
            ],
            schema,
            sink,
            XY,
        )
        op.push(StreamElement(Row(XY, (None, "a")), 1.0))
        op.push(StreamElement(Row(XY, (4, "a")), 1.0))
        op.push(Punctuation(2.0))
        assert sink.rows[0]["n"] == 1 and sink.rows[0]["s"] == 4

    # -- window state: groups per open window, never rows ----------------
    def emitted(self):
        return [(e.timestamp, e.row["key_0"], e.row["agg_0"]) for e in self.sink.elements]

    def test_row_for_closed_windows_is_folded_nowhere(self):
        op = self.make(window=WindowSpec.range(20, slide=10))
        op.push(element(1, "a", 5.0))
        op.push(Punctuation(20.0))  # closes the windows ending at 10 and 20
        assert self.emitted() == [(10, "a", 1), (20, "a", 1)]
        op.push(element(2, "late", 8.0))  # windows 10 and 20: both closed
        op.push(Punctuation(25.0))
        assert op.state_snapshot()["windows"] == {}
        assert op.state_snapshot()["pending"] == []
        op.push(element(3, "b", 15.0))  # windows 20 (closed) and 30 (open)
        op.push(Punctuation(30.0))
        assert self.emitted()[2:] == [(30, "b", 1)]

    def test_rows_before_the_first_punctuation_are_never_late(self):
        # Lateness follows the watermark alone. Rows ahead of the first
        # punctuation are never late, however old; but a punctuation
        # closes windows even when no row has arrived (it used to close
        # nothing then), because a pool shard that has seen no rows must
        # drop what the single engine drops.
        op = self.make(window=WindowSpec.range(10))
        for ts in (95.0, 5.0, 15.0):
            op.push(element(1, "a", ts))
        op.push(Punctuation(100.0))
        assert self.emitted() == [(10, "a", 1), (20, "a", 1), (100, "a", 1)]
        fresh = self.make(window=WindowSpec.range(10))
        fresh.push(Punctuation(100.0))  # closes every window through (90, 100]
        for ts in (95.0, 5.0, 105.0):
            fresh.push(element(1, "a", ts))
        fresh.push(Punctuation(110.0))
        assert self.emitted() == [(110, "a", 1)]

    def test_lateness_follows_the_watermark_not_the_earliest_row(self):
        # A row is late only when every window it belongs to ended at or
        # before the watermark in force when it is folded. The first
        # window used to open at the earliest row so far, so the row at
        # 45 below was late here — and on a pool every stage-1 replica
        # opened at its *own* earliest row, disagreeing with the single
        # engine.
        op = self.make(window=WindowSpec.range(10))
        op.push(element(1, "a", 100.0))
        op.push(Punctuation(26.0))  # closes every window through (10, 20]
        op.push(element(2, "b", 45.0))  # (40, 50] is still open
        op.push(element(3, "late", 15.0))  # (10, 20] closed at 26
        op.push(Punctuation(200.0))
        assert self.emitted() == [(50, "b", 1), (100, "a", 1)]

    def test_snapshot_holds_groups_not_rows(self):
        op = self.make(window=WindowSpec.range(40))
        push_elements(op, [element(i, f"host{i % 8}", i / 100) for i in range(4000)])
        op.push(Punctuation(20.0))
        state = op.state_snapshot()
        assert state["pending"] == []
        assert state["windows"]  # (0, 40] is still open
        assert all(len(groups) <= 8 for groups in state["windows"].values())
        assert sum(
            count for groups in state["windows"].values() for count, in groups.values()
        ) == 3999  # every row but t=0, which window 0 emitted
        assert self.emitted() == [(0, "host0", 1)]

    @pytest.mark.parametrize(
        "partial, layout",
        [(False, "next_boundary"), (True, "next_boundary"), (True, "buffer")],
        ids=["aggregate", "partial", "partial-row-buffer"],
    )
    def test_row_buffer_layout_snapshot_is_refused(self, partial, layout):
        from repro.errors import ExecutionError
        from repro.stream.operators import PartialAggregateOp

        cls = PartialAggregateOp if partial else AggregateOp
        schema = Schema.of(("key_0", DataType.STRING), ("agg_0", DataType.NULL))

        def make():
            return cls(
                [(ColumnRef("y"), "key_0")],
                [(AggregateCall("COUNT", None), "agg_0")],
                schema, CollectingConsumer(), XY, WindowSpec.range(10),
            )

        op = make()
        op.push(element(1, "a", 5.0))
        state = op.state_snapshot()
        for key in ("windows", "closed", "pending", "generated", "groups", "touched"):
            state.pop(key, None)
        if layout == "next_boundary":
            # The layout checkpoints had before windows were tracked by index.
            state.update(buffer=[element(1, "a", 5.0)], next_boundary=None)
        else:
            # A stage 1 that buffered rows and scanned them per closing
            # window: windows by index, but no folded group state.
            state.update(buffer=[element(1, "a", 5.0)], closed=None, pgroups={}, touched=[])
        with pytest.raises(ExecutionError, match=r"row-buffer window layout \('buffer' / 'next_boundary'\)"):
            make().state_restore(state)


class TestPartialAggregateOp:
    """Stage 1 of an exchanged aggregate folds each segment into group
    state exactly as :class:`AggregateOp` does, keeping the timestamps
    the merge re-folds by."""

    def make(self, window=None, distinct=False):
        from repro.stream.operators import PartialAggregateOp

        schema = Schema.of(
            ("key_0", DataType.STRING), ("agg_0", DataType.NULL), ("agg_1", DataType.NULL)
        )
        self.sink = CollectingConsumer()
        return PartialAggregateOp(
            [(ColumnRef("y"), "key_0")],
            [
                (AggregateCall("COUNT", None), "agg_0"),
                (AggregateCall("SUM", ColumnRef("x"), distinct=distinct), "agg_1"),
            ],
            schema, self.sink, XY, window,
        )

    def emitted(self):
        return [(e.timestamp, e.row.values) for e in self.sink.elements]

    def test_snapshot_holds_groups_not_rows(self):
        op = self.make(WindowSpec.range(40))
        push_elements(op, [element(i, f"host{i % 8}", i / 100) for i in range(4000)])
        op.push(Punctuation(20.0))
        state = op.state_snapshot()
        assert state["pending"] == [] and "buffer" not in state
        assert state["windows"]  # (0, 40] is still open
        groups = [group for window in state["windows"].values() for group in window.values()]
        assert all(len(window) <= 8 for window in state["windows"].values())
        # One [count, pairs] entry per group, together covering every row
        # but t=0, which window 0 emitted.
        assert sum(count for count, _ in groups) == 3999
        assert sum(len(pairs) for _, pairs in groups) == 3999
        assert self.emitted() == [(0, ("host0", ("c", 1), ("s", [(0.0, 0)])))]

    def test_windows_keep_arrival_order_and_drop_late_rows(self):
        op = self.make(WindowSpec.range(25, slide=10))
        push_elements(op, [element(1, "a", 12.0), element(2, "a", 3.0), element(None, "a", 14.0)])
        op.push(Punctuation(20.0))  # closes (-5, 20]
        op.push(element(4, "a", 4.0))  # (-15, 10] and (-5, 20]: both closed
        op.push(Punctuation(30.0))
        assert self.emitted() == [
            (10, ("a", ("c", 1), ("s", [(3.0, 2)]))),
            (20, ("a", ("c", 3), ("s", [(12.0, 1), (3.0, 2)]))),
            (30, ("a", ("c", 2), ("s", [(12.0, 1)]))),
        ]

    def test_running_mode_ships_deltas_across_a_restore(self):
        op = self.make(distinct=True)
        deliver(op, [element(1, "a", 1.0), element(2, "b", 2.0), element(1, "a", 3.0)])
        op.push(Punctuation(3.0))
        op.push(element(1, "a", 4.0))  # a repeat: counted, not re-shipped
        op.push(element(5, "a", 5.0))
        restored = self.make(distinct=True)
        restored.state_restore(op.state_snapshot())
        restored.push(Punctuation(6.0))
        assert self.emitted() == [(6.0, ("a", ("c", 2), ("d", [(5.0, 5)])))]

    def test_cross_rung_restore_is_refused(self):
        from repro.errors import ExecutionError

        op = self.make(WindowSpec.range(10))
        op.push(element(1, "a", 5.0))
        with interpreted():
            reference = self.make(WindowSpec.range(10))
        reference.push(element(1, "a", 5.0))
        assert op.state_snapshot()["generated"]
        assert not reference.state_snapshot()["generated"]
        for source, target in ((op, reference), (reference, op)):
            with pytest.raises(ExecutionError, match="generated fold vs the interpreter"):
                target.state_restore(source.state_snapshot())


class TestDistinctOrderLimitOutput:
    def test_distinct(self):
        sink = CollectingConsumer()
        op = DistinctOp(sink)
        for x in (1, 1, 2):
            op.push(element(x, "a", 1.0))
        assert [r["x"] for r in sink.rows] == [1, 2]

    def test_order_by_batches_on_punctuation(self):
        sink = CollectingConsumer()
        op = OrderByOp([OrderItem(ColumnRef("x"), ascending=False)], sink, XY)
        for x in (2, 5, 1):
            op.push(element(x, "a", 1.0))
        assert len(sink) == 0
        op.push(Punctuation(2.0))
        assert [r["x"] for r in sink.rows] == [5, 2, 1]

    def test_order_by_stable_on_ties(self):
        sink = CollectingConsumer()
        op = OrderByOp([OrderItem(ColumnRef("x"))], sink, XY)
        op.push(element(1, "first", 1.0))
        op.push(element(1, "second", 1.0))
        op.push(Punctuation(2.0))
        assert [r["y"] for r in sink.rows] == ["first", "second"]

    def test_order_by_nulls(self):
        sink = CollectingConsumer()
        op = OrderByOp([OrderItem(ColumnRef("x"))], sink, XY)
        op.push(StreamElement(Row(XY, (None, "n")), 1.0))
        op.push(element(1, "one", 1.0))
        op.push(Punctuation(2.0))
        assert sink.rows[0]["y"] == "n"  # NULLs first ascending

    def test_limit_resets_per_batch(self):
        sink = CollectingConsumer()
        op = LimitOp(2, sink)
        for x in range(5):
            op.push(element(x, "a", 1.0))
        op.push(Punctuation(2.0))
        for x in range(5):
            op.push(element(x, "b", 3.0))
        op.push(Punctuation(4.0))
        assert len(sink) == 4

    def test_output_delivers_and_forwards(self):
        sink = CollectingConsumer()
        delivered = []
        op = OutputOp("lobby", lambda d, e: delivered.append((d, e)), sink)
        op.push(element(1, "a", 1.0))
        assert len(delivered) == 1 and delivered[0][0] == "lobby"
        assert len(sink) == 1

    def test_output_every_throttles(self):
        sink = CollectingConsumer()
        delivered = []
        op = OutputOp("d", lambda d, e: delivered.append(e), sink, every=10.0)
        op.push(element(1, "a", 0.0))
        op.push(element(2, "a", 5.0))   # throttled
        op.push(element(3, "a", 12.0))  # delivered
        assert [e.row["x"] for e in delivered] == [1, 3]
        assert len(sink) == 3  # downstream sees everything
