"""Admission-time analysis through the Session surface.

Acceptance for the analysis pass as wired into ``connect``:

* **Identity corpus** — every type-checker-passing statement compiles
  and emits identical rows and punctuation positions under the
  interpreted, compiled-expression and fused execution modes (the
  analysis is advisory for sound plans: it must never change what
  runs).
* **Rejection corpus** — statements the analysis rejects raise
  :class:`~repro.errors.QueryError` from ``query()`` under
  ``analysis="strict"`` *before the engine sees a row*: no cursor, no
  shared chain, no operator state.
* **Modes and counters** — ``warn`` issues a
  :class:`~repro.analysis.PlanAnalysisWarning` once per fresh compile,
  cache hits reuse the stored verdict (``stats()["analysis"]``), and
  ``off`` skips the pass entirely.
* **Explain** — ``session.explain`` surfaces partition-safety,
  sharing-eligibility and federated partitioning reasons as coded
  diagnostics, and rejects non-SELECTs with a source position.
"""

from __future__ import annotations

import random
import warnings

import pytest
from conftest import generated, interpreted, unfused

from repro.analysis import PlanAnalysisWarning, analyze_plan
from repro.api import StreamSource, connect
from repro.catalog import Catalog
from repro.data import DataType, Row, Schema
from repro.data.streams import CollectingConsumer, Punctuation, StreamElement
from repro.errors import QueryError
from repro.plan import PlanBuilder
from repro.stream.compiler import PlanCompiler

READINGS = Schema.of(
    ("room", DataType.STRING),
    ("host", DataType.STRING),
    ("temp", DataType.FLOAT),
)

#: Statements the type checker passes: the analysis must be invisible
#: to execution (identical output under every mode).
GOOD_CORPUS = [
    "select r.room, r.temp from Readings r where r.temp > 20.0",
    "select r.host, r.temp * 2.0 as t2 from Readings r where r.temp > 5.0",
    "select r.room, count(*) as n from Readings r "
    "[range 10 seconds slide 10 seconds] group by r.room",
    "select r.host, min(r.temp) as lo, max(r.temp) as hi from Readings r "
    "[range 15 seconds] group by r.host",
    "select distinct r.room from Readings r where r.temp > 10.0",
]

#: Statements the analysis rejects with an error-severity diagnostic.
BAD_CORPUS = [
    ("select r.room from Readings r [unbounded] group by r.room", "RA104"),
    (
        "select avg(r.temp) as a from Readings r [unbounded] group by r.room",
        "RA104",
    ),
]


def _catalog() -> Catalog:
    catalog = Catalog()
    catalog.register_stream("Readings", READINGS, rate=10.0)
    return catalog


def _elements(count: int, rng: random.Random) -> list:
    items: list = []
    for i in range(count):
        row = Row(
            READINGS,
            (
                f"lab{i % 3}",
                f"ws{i % 5}",
                None if i % 13 == 0 else round(rng.uniform(-5.0, 60.0), 2),
            ),
            validate=False,
        )
        items.append(StreamElement(row, round(rng.uniform(0.0, 40.0), 3)))
    for _ in range(4):
        items.insert(rng.randrange(len(items)), Punctuation(rng.uniform(0.0, 50.0)))
    items.append(Punctuation(100.0))
    return items


def _run(plan, items):
    sink = CollectingConsumer()
    compiled = PlanCompiler().compile(plan, sink)
    port = compiled.ports[0].consumer
    for item in items:
        port.push(item)
    return sink


class TestIdentityCorpus:
    @pytest.mark.parametrize("sql", GOOD_CORPUS)
    @pytest.mark.parametrize("seed", range(3))
    def test_passing_plans_run_identically_under_every_mode(self, sql, seed):
        plan = PlanBuilder(_catalog()).build_sql(sql)
        assert analyze_plan(plan).ok
        items = _elements(80, random.Random(seed))
        with interpreted():
            reference = _run(plan, items)
        with unfused():
            per_node = _run(plan, items)
        with generated():
            fused = _run(plan, items)
        assert per_node.elements == reference.elements
        assert per_node.punctuations == reference.punctuations
        assert fused.elements == reference.elements
        assert fused.punctuations == reference.punctuations


class TestStrictRejection:
    def _session(self, **kwargs):
        session = connect(**kwargs)
        session.attach(StreamSource("Readings", READINGS, rate=10.0))
        return session

    @pytest.mark.parametrize("sql,code", BAD_CORPUS)
    def test_rejected_before_the_engine_sees_a_row(self, sql, code):
        session = self._session(analysis="strict")
        before = session.stats()["sharing"]
        with pytest.raises(QueryError, match=code):
            session.query(sql)
        after = session.stats()["sharing"]
        # No chain was created, nothing attached: the engine never saw
        # the plan, let alone a row.
        assert after["created"] == before["created"]
        assert after["attached"] == before["attached"]
        assert session.stats()["analysis"]["runs"] == 1
        session.close()

    def test_rejection_is_cached(self):
        session = self._session(analysis="strict")
        sql = BAD_CORPUS[0][0]
        for _ in range(3):
            with pytest.raises(QueryError):
                session.query(sql)
        stats = session.stats()
        assert stats["analysis"] == {
            "runs": 1,
            "hits": 2,
            "skipped": 0,
            "mode": "strict",
        }
        assert stats["plan_cache"]["hits"] == 2
        session.close()

    def test_good_statements_run_under_strict(self):
        session = self._session(analysis="strict")
        cursor = session.query(GOOD_CORPUS[0])
        session.push("Readings", {"room": "lab1", "host": "ws1", "temp": 30.0})
        session.punctuate(1.0)
        assert [e.row["r.temp"] for e in cursor._handle.sink.elements] == [30.0]
        session.close()


class TestWarnAndOffModes:
    def _session(self, **kwargs):
        session = connect(**kwargs)
        session.attach(StreamSource("Readings", READINGS, rate=10.0))
        return session

    def test_warn_mode_warns_once_per_fresh_compile(self):
        session = self._session()  # warn is the default
        sql = BAD_CORPUS[0][0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            session.query(sql).close()
            session.query(sql).close()
        ours = [w for w in caught if issubclass(w.category, PlanAnalysisWarning)]
        assert len(ours) == 2  # enforcement repeats; analysis ran once
        assert "RA104" in str(ours[0].message)
        assert session.stats()["analysis"] == {
            "runs": 1,
            "hits": 1,
            "skipped": 0,
            "mode": "warn",
        }
        session.close()

    def test_warn_mode_is_silent_for_sound_plans(self):
        session = self._session()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for sql in GOOD_CORPUS:
                session.query(sql).close()
        assert not [
            w for w in caught if issubclass(w.category, PlanAnalysisWarning)
        ]
        session.close()

    def test_off_mode_skips_analysis(self):
        session = self._session(analysis="off")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            session.query(BAD_CORPUS[0][0]).close()
        assert not [
            w for w in caught if issubclass(w.category, PlanAnalysisWarning)
        ]
        assert session.stats()["analysis"] == {
            "runs": 0,
            "hits": 0,
            "skipped": 1,
            "mode": "off",
        }
        session.close()

    def test_unknown_mode_rejected_at_connect(self):
        with pytest.raises(QueryError, match="analysis mode"):
            connect(analysis="pedantic")


class TestExplainDiagnostics:
    def _session(self, **kwargs):
        session = connect(**kwargs)
        session.attach(
            StreamSource("Readings", READINGS, rate=10.0, partition_by="room")
        )
        return session

    def _codes(self, federated):
        return [d.code for d in federated.diagnostics]

    def test_unsharded_explain_reports_sharing_and_federated(self):
        session = self._session()
        federated = session.explain(
            "select r.room, r.temp from Readings r where r.temp > 20.0"
        )
        codes = self._codes(federated)
        assert "RA400" in codes  # shareable
        assert "RA500" in codes  # no sensor fragments
        assert "RA503" in codes  # stream residual
        assert not any(code.startswith("RA3") for code in codes)
        assert "diagnostics:" in federated.explain()
        session.close()

    def test_sharded_explain_reports_partition_verdict(self):
        session = self._session(shards=2)
        aligned = session.explain(
            "select r.room, count(*) as n from Readings r "
            "[range 10 seconds] group by r.room"
        )
        assert "RA300" in self._codes(aligned)
        fallback = session.explain(
            "select r.room from Readings r order by r.room"
        )
        codes = self._codes(fallback)
        assert "RA301" in codes
        rendered = [d.render() for d in fallback.diagnostics]
        assert any("designated engine" in line for line in rendered)
        session.close()

    def test_explain_includes_analysis_findings(self):
        session = self._session()
        federated = session.explain(
            "select r.room from Readings r [unbounded] group by r.room"
        )
        assert "RA104" in self._codes(federated)
        session.close()

    def test_non_select_rejected_with_position(self):
        session = self._session()
        with pytest.raises(QueryError, match="SELECT") as excinfo:
            session.explain("create view V as select r.room from Readings r")
        assert excinfo.value.line == 1
        assert excinfo.value.column == 1
        session.close()
