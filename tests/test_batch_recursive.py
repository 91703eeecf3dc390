"""Tests for bounded evaluation (evaluate, fixpoint) and incrementally maintained recursive views."""

import random

import pytest

from conftest import GENERATORS, declining, generated
from repro.api import StreamSource, TableSource, connect
from repro.catalog import Catalog
from repro.data import DataType, Row, Schema
from repro.errors import ExecutionError
from repro.plan import PlanBuilder
from repro.stream import RecursiveView, evaluate, fixpoint, recompute
from repro.stream.batch import BoundedPipeline

EDGES = Schema.of(("src", DataType.STRING), ("dst", DataType.STRING))


def edge(src: str, dst: str) -> Row:
    return Row(EDGES, (src, dst))


@pytest.fixture
def tc_plan(builder):
    """Transitive closure plan over the conftest Edges table (src,dst only)."""
    plan = builder.build_sql(
        """
        WITH RECURSIVE tc(src, dst) AS (
          SELECT e.src, e.dst FROM Edges2 e
          UNION
          SELECT t.src, e.dst FROM tc t, Edges2 e WHERE t.dst = e.src
        ) SELECT src, dst FROM tc
        """
    )
    return plan


@pytest.fixture(autouse=True)
def _register_edges2(catalog):
    catalog.register_table("Edges2", EDGES, cardinality=10)


def pairs(rows) -> set[tuple]:
    return {(r["src"], r["dst"]) for r in rows}


class TestBatchEvaluator:
    def test_select_project(self, builder, catalog):
        plan = builder.build_sql("select e.src from Edges2 e where e.src = 'a'")
        rows = evaluate(plan, {"Edges2": [edge("a", "b"), edge("b", "c")]})
        assert [r["e.src"] for r in rows] == ["a"]

    def test_hash_join_used_for_equi_keys(self, builder, catalog):
        plan = builder.build_sql(
            "select a.src, b.dst from Edges2 a, Edges2 b where a.dst = b.src"
        )
        rows = evaluate(plan, {"Edges2": [edge("a", "b"), edge("b", "c")]})
        assert {(r["a.src"], r["b.dst"]) for r in rows} == {("a", "c")}

    def test_cross_product_without_predicate(self, builder, catalog):
        plan = builder.build_sql("select a.src, b.src from Edges2 a, Edges2 b")
        rows = evaluate(plan, {"Edges2": [edge("a", "b"), edge("b", "c")]})
        assert len(rows) == 4

    def test_aggregate_and_order(self, builder, catalog):
        plan = builder.build_sql(
            "select e.src, count(*) as n from Edges2 e group by e.src order by n desc"
        )
        rows = evaluate(
            plan, {"Edges2": [edge("a", "b"), edge("a", "c"), edge("b", "c")]}
        )
        assert [(r["e.src"], r["n"]) for r in rows] == [("a", 2), ("b", 1)]

    def test_global_aggregate_on_empty_input(self, builder, catalog):
        plan = builder.build_sql("select count(*) as n from Edges2 e")
        rows = evaluate(plan, {"Edges2": []})
        assert rows[0]["n"] == 0

    def test_distinct_limit(self, builder, catalog):
        plan = builder.build_sql("select distinct e.src from Edges2 e limit 1")
        rows = evaluate(plan, {"Edges2": [edge("a", "b"), edge("a", "c"), edge("b", "x")]})
        assert len(rows) == 1

    def test_missing_table_raises(self, builder, catalog):
        plan = builder.build_sql("select e.src from Edges2 e")
        with pytest.raises(ExecutionError, match="Edges2"):
            evaluate(plan, {"Other": []})


class TestFixpoint:
    def test_chain_closure(self, tc_plan):
        rows = fixpoint(tc_plan.recursive, {"Edges2": [edge("a", "b"), edge("b", "c"), edge("c", "d")]})
        assert pairs(rows) == {
            ("a", "b"), ("b", "c"), ("c", "d"),
            ("a", "c"), ("b", "d"), ("a", "d"),
        }

    def test_cycle_terminates(self, tc_plan):
        rows = fixpoint(tc_plan.recursive, {"Edges2": [edge("a", "b"), edge("b", "a")]})
        assert pairs(rows) == {("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")}

    def test_empty_base(self, tc_plan):
        assert fixpoint(tc_plan.recursive, {"Edges2": []}) == []


class TestRecursiveView:
    def test_initial_contents_match_fixpoint(self, tc_plan):
        edges = [edge("a", "b"), edge("b", "c")]
        view = RecursiveView(tc_plan.recursive, {"Edges2": edges})
        assert view.rows() == recompute(tc_plan.recursive, {"Edges2": edges})

    def test_insert_extends_closure(self, tc_plan):
        view = RecursiveView(tc_plan.recursive, {"Edges2": [edge("a", "b")]})
        added = view.insert("Edges2", [edge("b", "c")])
        assert added == 2  # (b,c) and (a,c)
        assert ("a", "c") in {(r["src"], r["dst"]) for r in view.rows()}

    def test_delete_removes_derived_facts(self, tc_plan):
        edges = [edge("a", "b"), edge("b", "c"), edge("c", "d")]
        view = RecursiveView(tc_plan.recursive, {"Edges2": edges})
        removed = view.delete("Edges2", [edge("b", "c")])
        assert removed == 4  # (b,c), (a,c), (b,d), (a,d)
        assert view.rows() == recompute(
            tc_plan.recursive, {"Edges2": [edge("a", "b"), edge("c", "d")]}
        )

    def test_delete_keeps_alternative_derivations(self, tc_plan):
        # Two paths a->c; deleting one keeps (a,c).
        edges = [edge("a", "b"), edge("b", "c"), edge("a", "x"), edge("x", "c")]
        view = RecursiveView(tc_plan.recursive, {"Edges2": edges})
        view.delete("Edges2", [edge("b", "c")])
        assert ("a", "c") in {(r["src"], r["dst"]) for r in view.rows()}

    def test_delete_on_cycle(self, tc_plan):
        edges = [edge("a", "b"), edge("b", "a"), edge("b", "c")]
        view = RecursiveView(tc_plan.recursive, {"Edges2": edges})
        view.delete("Edges2", [edge("b", "a")])
        assert view.rows() == recompute(
            tc_plan.recursive, {"Edges2": [edge("a", "b"), edge("b", "c")]}
        )

    def test_delete_absent_row_is_noop(self, tc_plan):
        view = RecursiveView(tc_plan.recursive, {"Edges2": [edge("a", "b")]})
        assert view.delete("Edges2", [edge("x", "y")]) == 0
        assert len(view) == 1

    def test_update_is_delete_plus_insert(self, tc_plan):
        view = RecursiveView(tc_plan.recursive, {"Edges2": [edge("a", "b")]})
        view.update("Edges2", remove=[edge("a", "b")], add=[edge("a", "c")])
        assert pairs(view.rows()) == {("a", "c")}

    def test_unknown_relation_rejected(self, tc_plan):
        view = RecursiveView(tc_plan.recursive, {"Edges2": []})
        with pytest.raises(ExecutionError, match="relation"):
            view.insert("Nope", [edge("a", "b")])

    def test_contains_and_len(self, tc_plan):
        view = RecursiveView(tc_plan.recursive, {"Edges2": [edge("a", "b")]})
        cte_row = Row(tc_plan.recursive.cte_schema, ("a", "b"))
        assert cte_row in view and len(view) == 1

    def test_nonlinear_step_rejected(self, builder, catalog):
        plan = builder.build_sql(
            """
            WITH RECURSIVE tc(src, dst) AS (
              SELECT e.src, e.dst FROM Edges2 e
              UNION
              SELECT a.src, b.dst FROM tc a, tc b WHERE a.dst = b.src
            ) SELECT src, dst FROM tc
            """
        )
        with pytest.raises(ExecutionError, match="linear"):
            RecursiveView(plan.recursive, {"Edges2": []})

    def test_randomised_churn_matches_recompute(self, tc_plan):
        """Property: after any insert/delete sequence the view equals the
        from-scratch fixpoint over the same table."""
        rng = random.Random(7)
        nodes = ["a", "b", "c", "d", "e"]
        current: list[Row] = []
        view = RecursiveView(tc_plan.recursive, {"Edges2": current})
        for step in range(40):
            if current and rng.random() < 0.4:
                victim = rng.choice(current)
                current.remove(victim)
                view.delete("Edges2", [victim])
            else:
                new = edge(rng.choice(nodes), rng.choice(nodes))
                current.append(new)
                view.insert("Edges2", [new])
            expected = recompute(tc_plan.recursive, {"Edges2": current})
            assert view.rows() == expected, f"diverged at step {step}"


# ---------------------------------------------------------------------------
# Bounded corpus: random tables through every bounded route, in order
# ---------------------------------------------------------------------------
T = Schema.of(("k", DataType.INT), ("v", DataType.INT), ("a", DataType.STRING))
U = Schema.of(("k", DataType.INT), ("w", DataType.INT))
DRAWS = 60


def _draw(seed: int) -> tuple[list[tuple], list[tuple]]:
    """Two small tables, possibly empty, with NULLs in every column."""
    rng = random.Random(seed)

    def value(pool):
        return None if rng.random() < 0.2 else rng.choice(pool)

    t = [
        (value(range(3)), value(range(-2, 5)), value("xyz"))
        for _ in range(rng.randrange(7))
    ]
    u = [(value(range(3)), value(range(-2, 5))) for _ in range(rng.randrange(6))]
    return t, u


# The brute-force reference: nested loops in FROM order, groups in
# first-seen order, stable sorts. SQL comparisons with a NULL are not TRUE.
def _eq(a, b) -> bool:
    return a is not None and b is not None and a == b


def _lt(a, b) -> bool:
    return a is not None and b is not None and a < b


def _sorted(rows: list[tuple], keys) -> list[tuple]:
    """ORDER BY ``keys`` (``(position, ascending)`` pairs): NULLs first
    ascending, last descending, ties in input order."""
    out = list(rows)
    for position, ascending in reversed(keys):
        out.sort(
            key=lambda row: (0, 0) if row[position] is None else (1, row[position]),
            reverse=not ascending,
        )
    return out


def _groups(rows, key) -> dict:
    out: dict = {}
    for row in rows:
        out.setdefault(key(row), []).append(row)
    return out


def _distinct(rows: list[tuple]) -> list[tuple]:
    return list(dict.fromkeys(rows))


def _count(values) -> int:
    return sum(value is not None for value in values)


def _sum(values):
    present = [value for value in values if value is not None]
    return sum(present) if present else None


def _extreme(pick, values):
    present = [value for value in values if value is not None]
    return pick(present) if present else None


def _tu(t, u):
    return [(tr, ur) for tr in t for ur in u if _eq(tr[0], ur[0])]


TEMPLATES = {
    "filter_project": (
        "select t.a, t.v + 1 as v1 from T t where t.v > 1",
        lambda t, u: [(a, v + 1) for k, v, a in t if v is not None and v > 1],
    ),
    "equi_join": (
        "select t.a, u.w from T t, U u where t.k = u.k",
        lambda t, u: [(tr[2], ur[1]) for tr, ur in _tu(t, u)],
    ),
    "self_join": (
        "select x.v, y.v from T x, T y where x.k = y.k and x.v < y.v",
        lambda t, u: [
            (x[1], y[1]) for x in t for y in t if _eq(x[0], y[0]) and _lt(x[1], y[1])
        ],
    ),
    "three_way_join": (
        "select t.a, u.w, s.a from T t, U u, T s where t.k = u.k and u.w = s.v",
        lambda t, u: [
            (tr[2], ur[1], s[2]) for tr, ur in _tu(t, u) for s in t if _eq(ur[1], s[1])
        ],
    ),
    "theta_join": (
        "select t.a, u.w from T t, U u where t.v < u.w",
        lambda t, u: [(tr[2], ur[1]) for tr in t for ur in u if _lt(tr[1], ur[1])],
    ),
    "group_by": (
        "select t.k, count(*) as n, sum(t.v) as s from T t group by t.k",
        lambda t, u: [
            (k, len(rows), _sum(r[1] for r in rows))
            for k, rows in _groups(t, lambda r: r[0]).items()
        ],
    ),
    "global_aggregate": (
        "select count(*) as n, count(t.v) as c, sum(t.v) as s, "
        "min(t.v) as lo, max(t.a) as hi from T t",
        lambda t, u: [
            (
                len(t),
                _count(r[1] for r in t),
                _sum(r[1] for r in t),
                _extreme(min, [r[1] for r in t]),
                _extreme(max, [r[2] for r in t]),
            )
        ],
    ),
    "having": (
        "select t.k, count(*) as n from T t group by t.k having count(*) > 1",
        lambda t, u: [
            (k, len(rows))
            for k, rows in _groups(t, lambda r: r[0]).items()
            if len(rows) > 1
        ],
    ),
    "count_distinct": (
        "select t.a, count(distinct t.v) as d from T t group by t.a",
        lambda t, u: [
            (a, len({r[1] for r in rows if r[1] is not None}))
            for a, rows in _groups(t, lambda r: r[2]).items()
        ],
    ),
    "distinct": (
        "select distinct t.k, t.a from T t",
        lambda t, u: _distinct([(k, a) for k, v, a in t]),
    ),
    "order_by": (
        "select t.a, t.v from T t order by t.v desc, t.a",
        lambda t, u: _sorted([(a, v) for k, v, a in t], [(1, False), (0, True)]),
    ),
    "order_by_limit": (
        "select t.k, t.v from T t order by t.k limit 3",
        lambda t, u: _sorted([(k, v) for k, v, a in t], [(0, True)])[:3],
    ),
    "join_group_by": (
        "select u.k, count(*) as n, sum(t.v) as s from T t, U u "
        "where t.k = u.k group by u.k",
        lambda t, u: [
            (k, len(pairs), _sum(tr[1] for tr, _ in pairs))
            for k, pairs in _groups(_tu(t, u), lambda p: p[1][0]).items()
        ],
    ),
    "join_order_by_limit": (
        "select t.a, u.w from T t, U u where t.k = u.k order by u.w desc limit 4",
        lambda t, u: _sorted([(tr[2], ur[1]) for tr, ur in _tu(t, u)], [(1, False)])[:4],
    ),
    "distinct_join": (
        "select distinct u.w from T t, U u where t.k = u.k",
        lambda t, u: _distinct([(ur[1],) for _, ur in _tu(t, u)]),
    ),
}

#: ``interpreted`` is every generator declining. It does not require a
#: counted fallback, as ``conftest.interpreted`` does: a template whose
#: only expression work is a bare-column projection falls back nowhere.
ARMS = {"generated": generated, "interpreted": lambda: declining(*GENERATORS)}


@pytest.mark.parametrize("arm", sorted(ARMS))
@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_bounded_corpus_matches_brute_force(template, arm):
    """Every template over ``DRAWS`` random table pairs, through
    ``evaluate`` and through ``session.query`` on the table route: each
    result equals the brute-force evaluator's, as an ordered list."""
    sql, reference = TEMPLATES[template]
    catalog = Catalog()
    catalog.register_table("T", T)
    catalog.register_table("U", U)
    for seed in range(DRAWS):
        t, u = _draw(seed)
        expected = reference(t, u)
        with ARMS[arm]():
            plan = PlanBuilder(catalog).build_sql(sql)
            tables = {"T": [Row(T, row) for row in t], "U": [Row(U, row) for row in u]}
            evaluated = [row.values for row in evaluate(plan, tables)]
            with connect() as session:
                for name, schema, rows in (("T", T, t), ("U", U, u)):
                    records = [dict(zip(schema.names, row)) for row in rows]
                    session.attach(TableSource(name, schema, records))
                cursor = session.query(sql)
                assert cursor.kind == "batch"
                queried = [row.values for row in cursor.results()]
        assert evaluated == expected, (seed, t, u)
        assert queried == expected, (seed, t, u)



@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_one_pipeline_serves_every_draw(template):
    """A BoundedPipeline resets its operators before each call: one
    compiled pipeline over every draw in turn reads what a fresh
    evaluation reads — no join buffer, group, seen-set, sort batch or
    LIMIT count carries over."""
    sql, reference = TEMPLATES[template]
    catalog = Catalog()
    catalog.register_table("T", T)
    catalog.register_table("U", U)
    pipeline = BoundedPipeline(PlanBuilder(catalog).build_sql(sql))
    for seed in range(DRAWS):
        t, u = _draw(seed)
        tables = {"T": [Row(T, row) for row in t], "U": [Row(U, row) for row in u]}
        assert [row.values for row in pipeline(tables)] == reference(t, u), (seed, t, u)

# ---------------------------------------------------------------------------
# A global aggregate over no rows: SQL's one row, once the input ends
# ---------------------------------------------------------------------------
EMPTY_SQL = "select count(*) as n, sum(t.v) as s from T t"
END = float("inf")


def _emissions(cursor) -> list[tuple]:
    return [(e.timestamp, e.row.values) for e in cursor._handle.sink.elements]


class TestEmptyGlobalAggregate:
    def test_bounded_routes_return_one_row(self):
        catalog = Catalog()
        catalog.register_table("T", T)
        plan = PlanBuilder(catalog).build_sql(EMPTY_SQL)
        assert [row.values for row in evaluate(plan, {"T": []})] == [(0, None)]
        with connect() as session:
            session.attach(TableSource("T", T))
            cursor = session.query(EMPTY_SQL)
            assert cursor.kind == "batch"
            assert [row.values for row in cursor.results()] == [(0, None)]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_stream_emits_it_when_it_ends(self, shards):
        """Nothing at a finite punctuation (more rows may come), then the
        row over empty input at +inf, on the single engine and a pool."""
        with connect(shards=shards) as session:
            session.attach(StreamSource("T", T, partition_by="k"))
            cursor = session.query(EMPTY_SQL)
            session.punctuate(1.0)
            session.punctuate(5.0)
            assert _emissions(cursor) == []
            session.punctuate(END)
            assert _emissions(cursor) == [(END, (0, None))]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_stream_with_rows_emits_its_running_totals(self, shards):
        with connect(shards=shards) as session:
            session.attach(StreamSource("T", T, partition_by="k"))
            cursor = session.query(EMPTY_SQL)
            session.punctuate(1.0)
            session.push("T", {"k": 1, "v": 2, "a": "x"}, 2.0)
            session.push("T", {"k": 2, "v": None, "a": "y"}, 3.0)
            session.punctuate(5.0)
            session.punctuate(END)
            assert _emissions(cursor) == [(5.0, (2, 2)), (END, (2, 2))]


# ---------------------------------------------------------------------------
# What a bounded query compiles shows in the session's compile counts
# ---------------------------------------------------------------------------
BOUNDED_SQL = "select t.k, t.v + 1 as w from T t where t.v > 0"


class TestBoundedCompileCounts:
    """``stats()["compile"]`` counts the functions a table-route query's
    pipeline generates, and its fallbacks, as it counts a continuous
    query's at admission."""

    @staticmethod
    def _session(shards: int):
        session = connect(shards=shards)
        rows = [{"k": 1, "v": 2, "a": "x"}, {"k": 2, "v": -1, "a": "y"}]
        session.attach(TableSource("T", T, rows))
        return session

    @pytest.mark.parametrize("shards", [1, 2])
    def test_each_evaluation_counts_what_it_generated(self, shards):
        with self._session(shards) as session:
            before = session.stats()["compile"]
            cursor = session.query(BOUNDED_SQL)
            assert cursor.kind == "batch"
            assert [row.values for row in cursor.results()] == [(1, 3)]
            once = session.stats()["compile"]
            assert once["generated"] > before["generated"]
            assert once["fallbacks"] == before["fallbacks"] == 0
            session.query(BOUNDED_SQL)  # each evaluation compiles its pipeline
            twice = session.stats()["compile"]
            assert twice["generated"] - once["generated"] == once["generated"] - before["generated"]

    def test_a_fallback_shows(self):
        with self._session(1) as session, declining(*GENERATORS) as counts:
            before = session.stats()["compile"]
            assert [row.values for row in session.query(BOUNDED_SQL).results()] == [(1, 3)]
            after = session.stats()["compile"]
        assert counts["fallbacks"] > 0
        assert after == {
            "generated": before["generated"],
            "fallbacks": before["fallbacks"] + counts["fallbacks"],
        }

    def test_a_recursive_query_counts_its_fixpoint(self):
        with connect() as session:
            session.attach(TableSource("E", EDGES, [{"src": "a", "dst": "b"}, {"src": "b", "dst": "c"}]))
            before = session.stats()["compile"]["generated"]
            cursor = session.query(
                "WITH RECURSIVE tc(src, dst) AS ("
                " SELECT e.src, e.dst FROM E e"
                " UNION SELECT t.src, e.dst FROM tc t, E e WHERE t.dst = e.src"
                ") SELECT src, dst FROM tc"
            )
            assert pairs(cursor.results()) == {("a", "b"), ("b", "c"), ("a", "c")}
            assert session.stats()["compile"]["generated"] > before
