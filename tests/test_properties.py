"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import columns

from repro.data import (
    DataType,
    Row,
    Schema,
    WindowSpec,
    assign_windows,
    coerce,
    conforms,
    infer_type,
)
from repro.data.streams import StreamElement
from repro.sql.compiled import (
    _fallback_accumulate,
    _fallback_partial,
    compile_accumulate,
    compile_partial,
)
from repro.sql.expressions import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    Literal,
    conjoin,
    split_conjuncts,
)

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------
scalar_values = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
    st.booleans(),
    st.none(),
)


@given(scalar_values)
def test_inferred_type_conforms(value):
    """Every inferable value conforms to its own inferred type."""
    dtype = infer_type(value)
    assert conforms(value, dtype)


@given(scalar_values)
def test_coerce_to_inferred_type_is_identity(value):
    dtype = infer_type(value)
    assert coerce(value, dtype) == value


@given(st.integers(min_value=-(2**31), max_value=2**31))
def test_int_float_roundtrip(value):
    widened = coerce(value, DataType.FLOAT)
    assert coerce(widened, DataType.INT) == value


@given(scalar_values)
def test_string_coercion_total_for_non_null(value):
    assume(value is not None)
    assert isinstance(coerce(value, DataType.STRING), str)


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------
@given(
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.1, max_value=1e3),
    st.floats(min_value=0.1, max_value=1e3),
)
def test_assigned_windows_cover_timestamp(ts, size, slide):
    """Every assigned window end e satisfies e-size < ts <= e, and the
    count matches ceil(size/slide) within one."""
    assume(slide <= size)
    spec = WindowSpec.range(size, slide)
    ends = assign_windows(ts, spec)
    assert ends, "an element always belongs to at least one window"
    for end in ends:
        assert end - size < ts <= end + 1e-9
    assert abs(len(ends) - size / slide) <= 1.5


@given(
    st.floats(min_value=0, max_value=1e5, allow_nan=False),
    st.floats(min_value=0, max_value=1e5, allow_nan=False),
    st.floats(min_value=0.1, max_value=1e4),
)
def test_window_contains_consistent_with_expiry(element_ts, reference_ts, size):
    spec = WindowSpec.range(size)
    if spec.contains(element_ts, reference_ts):
        assert spec.expiry(element_ts) >= reference_ts


# ---------------------------------------------------------------------------
# Rows and schemas
# ---------------------------------------------------------------------------
names = st.lists(
    st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True), min_size=1, max_size=6, unique=True
)


@given(names, st.data())
def test_row_projection_preserves_values(field_names, data):
    schema = Schema.of(*[(n, DataType.INT) for n in field_names])
    values = [data.draw(st.integers(-1000, 1000)) for _ in field_names]
    row = Row(schema, values)
    subset = data.draw(st.permutations(field_names))
    projected = row.project(subset)
    for name in subset:
        assert projected[name] == row[name]


@given(names)
def test_qualify_unqualify_roundtrip(field_names):
    schema = Schema.of(*[(n, DataType.STRING) for n in field_names])
    assert schema.qualified("q").unqualified() == schema


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(0, 100), min_size=1, max_size=8))
def test_split_conjoin_roundtrip(values):
    conjuncts = [BinaryOp("=", ColumnRef("x"), Literal(v)) for v in values]
    rebuilt = split_conjuncts(conjoin(conjuncts))
    assert [c.render() for c in rebuilt] == [c.render() for c in conjuncts]


@given(st.text(max_size=15), st.text(max_size=15))
def test_like_reflexive_on_escaped_literal(value, other):
    """A string always LIKEs itself when no wildcards are involved."""
    assume("%" not in value and "_" not in value)
    assert BinaryOp("LIKE", Literal(value), Literal(value)).eval(None) is True


# ---------------------------------------------------------------------------
# Routing: closure router vs Dijkstra on random graphs
# ---------------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_stream_router_matches_dijkstra_on_random_graphs(data):
    from repro.building import RoutingGraph, StreamRouter, shortest_path
    from repro.errors import RoutingError
    from repro.sensor.mote import Position

    node_count = data.draw(st.integers(min_value=2, max_value=7))
    nodes = [f"n{i}" for i in range(node_count)]
    graph = RoutingGraph()
    for i, name in enumerate(nodes):
        graph.add_point(name, Position(float(i * 10), 0.0))
    edges = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, node_count - 1), st.integers(0, node_count - 1)
            ).filter(lambda p: p[0] < p[1]),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    for a, b in edges:
        if nodes[b] not in graph.neighbors(nodes[a]):
            graph.add_edge(nodes[a], nodes[b], float(abs(a - b)))
    router = StreamRouter(graph, max_hops=node_count + 1)
    for start in nodes:
        for end in nodes:
            if start == end:
                continue
            try:
                oracle = shortest_path(graph, start, end)
            except RoutingError:
                try:
                    router.route(start, end)
                    assert False, "router found a route Dijkstra could not"
                except RoutingError:
                    continue
            mine = router.route(start, end)
            assert math.isclose(mine.distance, oracle.distance), (start, end)


# ---------------------------------------------------------------------------
# Recursive view maintenance vs recompute under random churn
# ---------------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(st.data())
def test_recursive_view_equals_recompute_under_churn(data):
    from repro.catalog import Catalog
    from repro.plan import PlanBuilder
    from repro.stream import RecursiveView, recompute

    edges_schema = Schema.of(("src", DataType.STRING), ("dst", DataType.STRING))
    catalog = Catalog()
    catalog.register_table("E", edges_schema, cardinality=10)
    plan = PlanBuilder(catalog).build_sql(
        """
        WITH RECURSIVE tc(src, dst) AS (
          SELECT e.src, e.dst FROM E e
          UNION
          SELECT t.src, e.dst FROM tc t, E e WHERE t.dst = e.src
        ) SELECT src, dst FROM tc
        """
    )
    nodes = ["a", "b", "c", "d"]
    current: list[Row] = []
    view = RecursiveView(plan.recursive, {"E": current})
    operations = data.draw(
        st.lists(
            st.tuples(st.booleans(), st.sampled_from(nodes), st.sampled_from(nodes)),
            max_size=15,
        )
    )
    for is_insert, src, dst in operations:
        row = Row(edges_schema, (src, dst))
        if is_insert:
            current.append(row)
            view.insert("E", [row])
        elif row in current:
            current.remove(row)
            view.delete("E", [row])
        assert view.rows() == recompute(plan.recursive, {"E": current})


# ---------------------------------------------------------------------------
# Stream join operator vs batch-evaluator oracle
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_join_operator_matches_batch_oracle(data):
    """Feeding all elements at the same timestamp, the symmetric hash join
    must produce exactly the relational join."""
    from repro.data import CollectingConsumer, StreamElement
    from repro.stream.operators import SymmetricHashJoin

    left_schema = Schema.of(("l.k", DataType.INT), ("l.v", DataType.INT))
    right_schema = Schema.of(("r.k", DataType.INT), ("r.w", DataType.INT))
    left_rows = data.draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9)), max_size=8)
    )
    right_rows = data.draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9)), max_size=8)
    )
    sink = CollectingConsumer()
    join = SymmetricHashJoin(
        left_schema,
        right_schema,
        WindowSpec.range(100),
        WindowSpec.range(100),
        None,
        [("l.k", "r.k")],
        sink,
    )
    for k, v in left_rows:
        join.push_left(StreamElement(Row(left_schema, (k, v)), 1.0))
    for k, w in right_rows:
        join.push_right(StreamElement(Row(right_schema, (k, w)), 1.0))
    expected = sorted(
        (lk, lv, rk, rw)
        for lk, lv in left_rows
        for rk, rw in right_rows
        if lk == rk
    )
    got = sorted(tuple(r.values) for r in sink.rows)
    assert got == expected


# ---------------------------------------------------------------------------
# The generated fold equals its interpreter twin
# ---------------------------------------------------------------------------
FOLD_SCHEMA = Schema.of(("k", DataType.STRING), ("a", DataType.FLOAT))

#: Tumbling, whole-pane hopping and fractional-slide RANGE windows (the
#: last one with a gap between windows), and None: a running fold.
FOLD_WINDOWS = [
    None,
    WindowSpec.range(10.0),
    WindowSpec.range(0.5),
    WindowSpec.range(20.0, slide=10.0),
    WindowSpec.range(1.5, slide=0.5),
    WindowSpec.range(25.0, slide=10.0),
    WindowSpec.range(0.3, slide=0.2),
    WindowSpec.range(1.0, slide=2.5),
]

fold_calls = st.lists(
    st.one_of(
        st.just(AggregateCall("COUNT", None)),
        st.builds(
            AggregateCall,
            st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]),
            st.just(ColumnRef("a")),
            st.booleans(),
        ),
    ),
    min_size=1,
    max_size=4,
)

fold_elements = st.lists(
    st.builds(
        lambda key, value, stamp: StreamElement(Row(FOLD_SCHEMA, (key, value)), stamp),
        st.sampled_from("pqr"),
        st.one_of(st.none(), st.integers(-3, 3).map(float), st.floats(-1e3, 1e3)),
        # Negative, fractional, on a window edge, in any order.
        st.one_of(
            st.floats(-20.0, 40.0),
            st.integers(-20, 40).map(float),
            st.sampled_from([-2.5, 0.0, 0.1, 0.2, 0.3, 0.5, 2.5, 10.0, 20.0]),
        ),
    ),
    max_size=24,
)


def _fold_output(pair, runs, window, partial, closed):
    """Fold ``runs`` into one state with ``pair``'s fold, then finish
    every window's groups (or, for a running partial, each run's
    touched groups in touch order, as a delta ships them)."""
    fold, finish = pair
    state: dict = {}
    deltas = []
    for run in runs:
        if window is not None:
            fold(*columns(run), state, closed)
        elif partial:
            touched: dict = {}
            fold(*columns(run), state, touched)
            deltas.append([(key, finish(group)) for key, group in touched.items()])
        else:
            fold(*columns(run), state)
    if window is None:
        return deltas if partial else {key: finish(group) for key, group in state.items()}
    return {
        index: {key: finish(group) for key, group in groups.items()}
        for index, groups in state.items()
    }


@settings(max_examples=150, deadline=None)
@given(
    calls=fold_calls,
    window=st.sampled_from(FOLD_WINDOWS),
    grouped=st.booleans(),
    partial=st.booleans(),
    elements=fold_elements,
    cut=st.integers(0, 24),
    # Windows up to the one a watermark at this stamp would close.
    watermark=st.one_of(st.none(), st.floats(-25.0, 45.0)),
)
def test_generated_fold_equals_its_interpreter_twin(
    calls, window, grouped, partial, elements, cut, watermark
):
    """``compile_accumulate`` / ``compile_partial``'s generated ``(fold,
    finalize | take)`` against ``_fallback_accumulate`` /
    ``_fallback_partial``: two runs folded into one state finish equal
    per window and group."""
    group_exprs = (ColumnRef("k"),) if grouped else ()
    calls = tuple(calls)
    compile_pair = compile_partial if partial else compile_accumulate
    twin = _fallback_partial if partial else _fallback_accumulate
    generated = compile_pair(group_exprs, calls, FOLD_SCHEMA, window)
    assert hasattr(generated[0], "__compiled_source__")
    runs = (elements[:cut], elements[cut:])
    closed = float("-inf")
    if window is not None and watermark is not None:
        closed = window.first_index(watermark) - 1
    assert _fold_output(generated, runs, window, partial, closed) == _fold_output(
        twin(group_exprs, calls, FOLD_SCHEMA, window), runs, window, partial, closed
    )
