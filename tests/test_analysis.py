"""The static-analysis pass and diagnostics framework.

Every stable ``RA###`` code in :data:`repro.analysis.diagnostics.CODES`
is pinned by at least one test here: the typed-plan checks over
hand-built (constructor-bypassing) trees, the unbounded-state and
progress analyses over windowed plans, the partition-safety and
sharing-eligibility verdict codes, the federated explanation codes, and
the engine-invariant linter over synthetic source trees. The CLI
(``python -m repro.analysis``) is covered in both corpus and --self
modes.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    CODES,
    ERROR,
    INFO,
    WARNING,
    AnalysisReport,
    Diagnostic,
    analyze_plan,
    check_bounds,
    check_progress,
    check_types,
    diag,
    exchange_diagnostics,
    explain_diagnostics,
    federated_diagnostics,
    partition_diagnostic,
    sharing_diagnostic,
    typed_schemas,
)
from repro.analysis.linter import lint_engine
from repro.catalog import Catalog
from repro.data import DataType, Schema
from repro.data.windows import WindowSpec
from repro.plan import PlanBuilder
from repro.plan.logical import (
    Aggregate,
    AggregateItem,
    Distinct,
    Join,
    Limit,
    OrderBy,
    Output,
    Project,
    ProjectItem,
    Recursive,
    RemoteSource,
    Scan,
    Select,
)
from repro.sql.ast import OrderItem
from repro.sql.expressions import AggregateCall, BinaryOp, ColumnRef, Literal
from repro.stream.partition import partition_safe

READINGS = Schema.of(("room", DataType.STRING), ("temp", DataType.FLOAT))
MACHINES = Schema.of(("host", DataType.STRING), ("room", DataType.STRING))


def _catalog() -> Catalog:
    catalog = Catalog()
    catalog.register_stream("Readings", READINGS, rate=10.0)
    catalog.register_stream("Events", MACHINES, rate=5.0)
    catalog.register_table("Machines", MACHINES, cardinality=8)
    return catalog


def _scan(catalog, name, binding, window=None) -> Scan:
    return Scan(catalog.source(name), binding, window)


def _plan(sql: str):
    return PlanBuilder(_catalog()).build_sql(sql)


def _codes(diagnostics) -> list[str]:
    return [d.code for d in diagnostics]


# ----------------------------------------------------------------------
# Framework plumbing
# ----------------------------------------------------------------------
class TestDiagnosticsFramework:
    def test_registry_is_closed(self):
        with pytest.raises(ValueError, match="unregistered"):
            diag("RA999", ERROR, "nope")
        with pytest.raises(ValueError, match="severity"):
            diag("RA001", "fatal", "nope")

    def test_render_carries_code_operator_and_hint(self):
        rendered = diag(
            "RA101", ERROR, "boom", operator="Join(x)", hint="add a window"
        ).render()
        assert rendered == "[RA101] error: boom at Join(x) (hint: add a window)"

    def test_report_partitions_by_severity(self):
        report = AnalysisReport.of(
            [
                diag("RA101", ERROR, "e"),
                diag("RA102", WARNING, "w"),
                diag("RA200", INFO, "i"),
            ]
        )
        assert not report.ok
        assert _codes(report.errors) == ["RA101"]
        assert _codes(report.warnings) == ["RA102"]
        assert _codes(report.infos) == ["RA200"]
        assert report.has_code("RA102") and not report.has_code("RA103")
        assert report["RA200"].severity == INFO
        with pytest.raises(KeyError):
            report["RA001"]
        assert "RA101" in report.render()

    def test_empty_report_is_ok(self):
        report = AnalysisReport.of([])
        assert report.ok and report.render() == "no diagnostics"

    def test_every_registered_code_has_a_title(self):
        assert all(title for title in CODES.values())
        assert all(code.startswith("RA") for code in CODES)


# ----------------------------------------------------------------------
# RA0xx: typed-plan inference
# ----------------------------------------------------------------------
class TestTypedPlans:
    def test_well_typed_query_produces_no_type_diagnostics(self):
        plan = _plan(
            "select r.room, avg(r.temp) as a from Readings r "
            "[range 30 seconds] group by r.room"
        )
        assert check_types(plan) == []

    def test_typed_schemas_covers_every_node(self):
        plan = _plan("select r.room from Readings r where r.temp > 1.0")
        schemas = typed_schemas(plan)
        assert set(schemas) == {node.plan_id for node in plan.walk()}
        assert schemas[plan.plan_id] is plan.schema

    def test_ra001_select_predicate_references_missing_column(self):
        catalog = _catalog()
        plan = Select(
            _scan(catalog, "Readings", "r"),
            BinaryOp(">", ColumnRef("r.nope"), Literal(1.0)),
        )
        diags = check_types(plan)
        assert _codes(diags) == ["RA001"]
        assert diags[0].severity == ERROR

    def test_ra002_select_predicate_not_boolean(self):
        catalog = _catalog()
        plan = Select(
            _scan(catalog, "Readings", "r"),
            BinaryOp("+", ColumnRef("r.temp"), Literal(1.0)),
        )
        assert _codes(check_types(plan)) == ["RA002"]

    def test_ra001_ra002_join_predicate(self):
        catalog = _catalog()
        missing = Join(
            _scan(catalog, "Readings", "r"),
            _scan(catalog, "Machines", "m"),
            BinaryOp("=", ColumnRef("r.ghost"), ColumnRef("m.room")),
        )
        assert _codes(check_types(missing)) == ["RA001"]
        non_bool = Join(
            _scan(catalog, "Readings", "r"),
            _scan(catalog, "Machines", "m"),
            BinaryOp("+", ColumnRef("r.temp"), Literal(2.0)),
        )
        assert _codes(check_types(non_bool)) == ["RA002"]

    def test_ra004_projection_invalidated_by_rewrite(self):
        # Project type-checks at construction; a rewrite that swaps the
        # child out from under it is exactly what the analysis catches.
        catalog = _catalog()
        project = Project(
            _scan(catalog, "Readings", "r"),
            [ProjectItem(BinaryOp("*", ColumnRef("r.temp"), Literal(2.0)), "t2")],
        )
        project.child = _scan(catalog, "Machines", "r")  # no r.temp
        assert _codes(check_types(project)) == ["RA004"]

    def test_ra004_group_key_invalidated_by_rewrite(self):
        catalog = _catalog()
        aggregate = Aggregate(
            _scan(catalog, "Readings", "r"),
            [ColumnRef("r.temp")],
            [AggregateItem(AggregateCall("COUNT"), "n")],
            key_names=["t"],
        )
        aggregate.child = _scan(catalog, "Machines", "r")
        assert _codes(check_types(aggregate)) == ["RA004"]

    def test_ra003_aggregate_argument_type_invalidated_by_rewrite(self):
        catalog = _catalog()
        aggregate = Aggregate(
            _scan(catalog, "Readings", "r"),
            [],
            [AggregateItem(AggregateCall("AVG", ColumnRef("r.temp")), "a")],
        )
        # Same column name, string type: AVG becomes undefined.
        swapped = Schema.of(("room", DataType.STRING), ("temp", DataType.STRING))
        replacement = Catalog()
        replacement.register_stream("Readings", swapped, rate=1.0)
        aggregate.child = _scan(replacement, "Readings", "r")
        diags = check_types(aggregate)
        assert _codes(diags) == ["RA003"]
        assert "AVG" in diags[0].message

    def test_ra006_order_by_unorderable_type(self):
        catalog = _catalog()
        plan = OrderBy(
            _scan(catalog, "Readings", "r"),
            [OrderItem(BinaryOp(">", ColumnRef("r.temp"), Literal(1.0)), True)],
        )
        assert _codes(check_types(plan)) == ["RA006"]

    def test_ra001_order_by_missing_column(self):
        catalog = _catalog()
        plan = OrderBy(
            _scan(catalog, "Readings", "r"),
            [OrderItem(ColumnRef("r.ghost"), True)],
        )
        assert _codes(check_types(plan)) == ["RA001"]

    def test_ra005_recursive_cte_type_drift(self):
        catalog = _catalog()
        base = Project(
            _scan(catalog, "Machines", "m"),
            [ProjectItem(ColumnRef("m.host"), "n")],
        )
        step = Project(
            _scan(catalog, "Machines", "m"),
            [ProjectItem(Literal(1), "n")],  # INT against a STRING CTE column
        )
        recursive = Recursive(
            "closure", Schema.of(("n", DataType.STRING)), base, step
        )
        diags = check_types(recursive)
        assert _codes(diags) == ["RA005"]
        assert "step" in diags[0].message


# ----------------------------------------------------------------------
# RA1xx: unbounded-state detection
# ----------------------------------------------------------------------
class TestUnboundedState:
    def test_windowed_plan_is_bounded(self):
        plan = _plan(
            "select r.room, count(*) as n from Readings r "
            "[range 10 seconds] group by r.room"
        )
        assert check_bounds(plan) == []

    def test_table_only_plan_is_bounded(self):
        plan = _plan("select distinct m.room from Machines m")
        assert check_bounds(plan) == []

    def test_ra101_unbounded_join_side(self):
        catalog = _catalog()
        plan = Join(
            _scan(catalog, "Readings", "r", WindowSpec.unbounded()),
            _scan(catalog, "Machines", "m"),
            BinaryOp("=", ColumnRef("r.room"), ColumnRef("m.room")),
        )
        diags = check_bounds(plan)
        assert _codes(diags) == ["RA101"]
        assert diags[0].severity == ERROR and "left" in diags[0].message

    def test_default_windowed_join_is_bounded(self):
        plan = _plan(
            "select r.room, e.host from Readings r, Events e "
            "where r.room = e.room"
        )
        assert check_bounds(plan) == []

    def test_ra102_distinct_over_stream(self):
        plan = _plan("select distinct r.room from Readings r")
        diags = check_bounds(plan)
        assert "RA102" in _codes(diags)
        assert all(d.severity == WARNING for d in diags if d.code == "RA102")

    def test_ra103_grouped_running_aggregate_warns(self):
        catalog = _catalog()
        plan = Aggregate(
            _scan(catalog, "Readings", "r"),
            [ColumnRef("r.room")],
            [AggregateItem(AggregateCall("COUNT"), "n")],
            window=None,
        )
        diags = check_bounds(plan)
        assert _codes(diags) == ["RA103"]
        assert diags[0].severity == WARNING

    def test_ra103_global_running_aggregate_is_info(self):
        catalog = _catalog()
        plan = Aggregate(
            _scan(catalog, "Readings", "r"),
            [],
            [AggregateItem(AggregateCall("COUNT"), "n")],
            window=None,
        )
        diags = check_bounds(plan)
        assert _codes(diags) == ["RA103"]
        assert diags[0].severity == INFO

    @pytest.mark.parametrize("window", ["[rows 5]", "[now]"])
    def test_ra103_names_a_declared_window_that_is_not_applied(self, window):
        plan = _plan(
            f"select r.room, count(*) as n from Readings r {window} group by r.room"
        )
        aggregate = next(n for n in plan.walk() if isinstance(n, Aggregate))
        assert aggregate.window is not None and aggregate.closing_window is None
        diags = check_bounds(plan)
        assert _codes(diags) == ["RA103"] and diags[0].severity == WARNING
        assert f"declared {window.upper()} window is not applied" in diags[0].message
        assert "running totals are emitted" in diags[0].message

    def test_ra102_names_an_ignored_window(self):
        plan = _plan("select distinct r.room from Readings r [range 5 seconds]")
        diags = [d for d in check_bounds(plan) if d.code == "RA102"]
        assert diags and diags[0].severity == WARNING
        assert "the declared window is ignored" in diags[0].message
        unwindowed = _plan("select distinct r.room from Readings r")
        assert "ignored" not in check_bounds(unwindowed)[0].message

    def test_ra104_explicit_unbounded_window(self):
        plan = _plan("select r.room from Readings r [unbounded] group by r.room")
        report = analyze_plan(plan)
        assert report.has_code("RA104") and not report.ok

    def test_remote_source_counts_as_infinite(self):
        remote = RemoteSource("remote_1", READINGS.qualified("r"), rate=2.0)
        plan = Distinct(remote)
        assert _codes(check_bounds(plan)) == ["RA102"]


# ----------------------------------------------------------------------
# RA2xx: progress / punctuation soundness
# ----------------------------------------------------------------------
class TestProgress:
    def test_ra200_windowed_aggregate_unblocked_by_window_close(self):
        plan = _plan(
            "select r.room, count(*) as n from Readings r "
            "[range 30 seconds] group by r.room"
        )
        diags = check_progress(plan)
        assert "RA200" in _codes(diags)
        assert all(d.severity == INFO for d in diags)

    def test_ra201_order_by_limit_and_running_aggregate(self):
        catalog = _catalog()
        scan = _scan(catalog, "Readings", "r")
        assert _codes(
            check_progress(OrderBy(scan, [OrderItem(ColumnRef("r.temp"), True)]))
        ) == ["RA201"]
        assert _codes(check_progress(Limit(scan, 5))) == ["RA201"]
        running = Aggregate(
            scan, [], [AggregateItem(AggregateCall("COUNT"), "n")], window=None
        )
        assert _codes(check_progress(running)) == ["RA201"]

    def test_table_only_blocking_operators_are_silent(self):
        plan = _plan("select m.host from Machines m order by m.host limit 3")
        assert check_progress(plan) == []

    def test_ra203_recursive_over_infinite_stream(self):
        catalog = _catalog()
        base = Project(
            _scan(catalog, "Readings", "r"),
            [ProjectItem(ColumnRef("r.room"), "n")],
        )
        recursive = Recursive(
            "spin", Schema.of(("n", DataType.STRING)), base, base
        )
        diags = check_progress(recursive)
        assert _codes(diags) == ["RA203"]
        assert diags[0].severity == ERROR


# ----------------------------------------------------------------------
# RA3xx: partition-safety verdict codes
# ----------------------------------------------------------------------
class TestPartitionCodes:
    KEYS = {"readings": "room", "events": "room"}

    def _verdict(self, plan, keys=None):
        return partition_safe(plan, self.KEYS if keys is None else keys)

    def test_ra300_aligned_grouped_aggregate(self):
        plan = _plan(
            "select r.room, count(*) as n from Readings r "
            "[range 10 seconds] group by r.room"
        )
        verdict = self._verdict(plan)
        assert verdict.safe and verdict.code == "RA300"
        assert partition_diagnostic(plan, self.KEYS).code == "RA300"

    def test_ra301_order_by(self):
        plan = _plan("select r.room from Readings r order by r.room")
        assert self._verdict(plan).code == "RA301"

    def test_ra302_limit(self):
        plan = _plan("select r.room from Readings r limit 5")
        assert self._verdict(plan).code == "RA302"

    def test_ra303_rows_window(self):
        plan = _plan(
            "select r.room, count(*) as n from Readings r [rows 10] "
            "group by r.room"
        )
        assert self._verdict(plan).code == "RA303"

    def test_ra304_replicated_only(self):
        plan = _plan("select m.host from Machines m")
        assert self._verdict(plan).code == "RA304"

    def test_ra305_no_partitioned_stream(self):
        catalog = _catalog()
        plan = Project(
            RemoteSource("remote_1", READINGS.qualified("r"), rate=1.0),
            [ProjectItem(ColumnRef("r.room"), "room")],
        )
        # RemoteSource is partitioned-but-keyless; an all-replicated scan
        # is RA304, a keyless *empty* mapping over tables is RA305:
        table_only = Select(
            _scan(catalog, "Machines", "m"),
            BinaryOp("=", ColumnRef("m.room"), Literal("lab1")),
        )
        assert self._verdict(table_only).code == "RA304"
        del plan  # RemoteSource path asserted via RA308 below

    def test_ra305_empty_plan_reads_nothing_partitioned(self):
        # A plan over only replicated inputs with no keys declared at
        # all still funnels to a designated engine.
        plan = _plan("select m.host from Machines m where m.room = 'lab1'")
        assert self._verdict(plan, keys={}).code == "RA304"
        verdict = partition_safe(
            Project(
                RemoteSource("remote_9", READINGS.qualified("r")),
                [ProjectItem(ColumnRef("r.room"), "room")],
            ),
            {},
        )
        assert verdict.safe  # keyless feed: row-local chain stays parallel

    def test_ra306_distinct_without_key(self):
        plan = _plan("select distinct r.temp from Readings r")
        assert self._verdict(plan).code == "RA306"

    def test_ra307_aggregate_over_replicated(self):
        plan = _plan("select count(*) as n from Machines m group by m.room")
        assert self._verdict(plan).code == "RA307"

    def test_ra308_key_projected_away(self):
        plan = _plan(
            "select r.temp, count(*) as n from Readings r group by r.temp"
        )
        assert self._verdict(plan).code == "RA309"
        # Round-robin stream (no declared key): RA308.
        assert self._verdict(plan, keys={}).code == "RA308"

    def test_ra309_group_by_not_covering(self):
        plan = _plan(
            "select r.temp, count(*) as n from Readings r group by r.temp"
        )
        assert self._verdict(plan).code == "RA309"

    def test_ra310_join_keys_unaligned(self):
        plan = _plan(
            "select r.room, e.host from Readings r, Events e "
            "where r.temp > 1.0 and e.host = 'ws1'"
        )
        assert self._verdict(plan).code == "RA310"

    def test_ra311_key_not_a_column(self):
        plan = _plan("select r.room from Readings r")
        assert self._verdict(plan, keys={"readings": "ghost"}).code == "RA311"

    def test_ra312_unrecognized_operator(self):
        catalog = _catalog()
        base = Project(
            _scan(catalog, "Machines", "m"),
            [ProjectItem(ColumnRef("m.host"), "n")],
        )
        recursive = Recursive("c", Schema.of(("n", DataType.STRING)), base, base)
        assert self._verdict(recursive).code == "RA312"

    def test_partition_diagnostic_reports_fallback_reason(self):
        plan = _plan("select r.room from Readings r order by r.room")
        diagnostic = partition_diagnostic(plan, self.KEYS)
        assert diagnostic.code == "RA301"
        assert "designated engine" in diagnostic.message

    def test_partition_diagnostic_reports_exchange_rescue(self):
        plan = _plan(
            "select r.temp, count(*) as n from Readings r "
            "[range 10 seconds] group by r.temp"
        )
        diagnostic = partition_diagnostic(plan, self.KEYS)
        assert diagnostic.code == "RA309"
        assert "repartitions mid-plan" in diagnostic.message


# ----------------------------------------------------------------------
# RA32x: exchange (mid-plan repartitioning) decisions
# ----------------------------------------------------------------------
class TestExchangeCodes:
    KEYS = {"readings": "room", "events": "room"}

    def _codes(self, plan, keys=None):
        return _codes(
            exchange_diagnostics(plan, self.KEYS if keys is None else keys)
        )

    def test_safe_plan_has_no_exchange_diagnostics(self):
        plan = _plan(
            "select r.room, count(*) as n from Readings r "
            "[range 10 seconds] group by r.room"
        )
        assert self._codes(plan) == []

    def test_designated_engine_by_design_stays_silent(self):
        # Replicated-only plans want one engine; a shuffle adds nothing.
        assert self._codes(_plan("select m.host from Machines m")) == []

    def test_ra320_join_shuffle(self):
        plan = _plan(
            "select r.room, e.host from Readings r [range 10 seconds], "
            "Events e [range 10 seconds] where r.room = e.host"
        )
        assert self._codes(plan) == ["RA320"]

    def test_ra321_two_phase_aggregation(self):
        plan = _plan(
            "select r.temp, count(*) as n from Readings r "
            "[range 10 seconds] group by r.temp"
        )
        assert self._codes(plan) == ["RA321"]

    def test_ra322_distinct_shuffle(self):
        plan = _plan("select distinct r.temp from Readings r")
        assert self._codes(plan) == ["RA322"]

    def test_ra323_broadcast_table_noted(self):
        plan = _plan(
            "select r.temp, count(*) as n from Readings r "
            "[range 10 seconds], Machines m where r.room = m.room "
            "group by r.temp"
        )
        assert self._codes(plan) == ["RA321", "RA323"]

    def test_ra324_no_strategy_applies(self):
        plan = _plan("select r.room from Readings r order by r.room")
        assert self._codes(plan) == ["RA324"]

    def test_ra325_round_robin_ingest(self):
        plan = _plan(
            "select r.temp, count(*) as n from Readings r "
            "[range 10 seconds] group by r.temp"
        )
        assert self._codes(plan, keys={}) == ["RA321", "RA325"]

    def test_explain_diagnostics_include_exchange_section(self):
        catalog = _catalog()
        plan = _plan(
            "select r.temp, count(*) as n from Readings r "
            "[range 10 seconds] group by r.temp"
        )
        from repro.core import FederatedOptimizer

        federated = FederatedOptimizer(catalog).optimize(plan)
        codes = _codes(
            explain_diagnostics(plan, federated, shard_keys=self.KEYS)
        )
        assert "RA309" in codes and "RA321" in codes


# ----------------------------------------------------------------------
# RA4xx: sharing eligibility
# ----------------------------------------------------------------------
class TestSharingCodes:
    def test_ra400_plain_stream_plan(self):
        plan = _plan("select r.room from Readings r where r.temp > 1.0")
        shareable, code, _ = plan.sharing
        assert shareable and code == "RA400"
        assert sharing_diagnostic(plan).code == "RA400"

    def test_ra401_output(self):
        plan = Output(_plan("select r.room from Readings r"), "display")
        assert plan.sharing[1] == "RA401"

    def test_ra402_remote_source(self):
        plan = Project(
            RemoteSource("remote_1", READINGS.qualified("r")),
            [ProjectItem(ColumnRef("r.room"), "room")],
        )
        assert plan.sharing[1] == "RA402"

    def test_ra403_cte_ref(self):
        from repro.plan.logical import CteRef

        plan = Project(
            CteRef("c", "c", Schema.of(("n", DataType.STRING))),
            [ProjectItem(ColumnRef("c.n"), "n")],
        )
        assert plan.sharing[1] == "RA403"

    def test_ra404_stored_table_scan(self):
        plan = _plan("select m.host from Machines m")
        assert plan.sharing[1] == "RA404"

    def test_ra405_no_fingerprint(self):
        catalog = _catalog()
        base = Project(
            _scan(catalog, "Readings", "r"),
            [ProjectItem(ColumnRef("r.room"), "n")],
        )
        recursive = Recursive("c", Schema.of(("n", DataType.STRING)), base, base)
        shareable, code, _ = recursive.sharing
        assert not shareable and code == "RA405"


# ----------------------------------------------------------------------
# RA5xx: federated explanation (unit-level; session-level in
# test_analysis_corpus.py)
# ----------------------------------------------------------------------
class TestFederatedCodes:
    def _federated(self, stream_plan, pushed=()):
        # Minimal stand-in: federated_diagnostics only touches pushed,
        # stream_plan, cost and alternatives.
        class _Cost:
            total = 0.5

        class _Alt:
            def __init__(self, plan):
                self.stream_plan = plan
                self.pushed = list(pushed)
                self.normalized = _Cost()

        class _Fed:
            def __init__(self, plan):
                self.chosen = _Alt(plan)
                self.alternatives = [self.chosen]
                self.stream_plan = plan
                self.pushed = list(pushed)
                self.cost = _Cost()

        return _Fed(stream_plan)

    def test_ra500_and_ra503_pure_stream(self):
        plan = _plan("select r.room from Readings r")
        codes = _codes(federated_diagnostics(self._federated(plan)))
        assert codes == ["RA500", "RA503"]

    def test_ra501_pushed_fragment(self):
        class _Deployment:
            kind = "collection"
            relations = ("RoomTemps",)

        class _SensorCost:
            messages_per_epoch = 2.5

        class _Fragment:
            name = "remote_1"
            fragment = _plan("select r.room from Readings r where r.temp > 1.0")
            deployment = _Deployment()
            cost = _SensorCost()
            result_rate = 0.2

        plan = _plan("select r.room from Readings r")
        codes = _codes(
            federated_diagnostics(self._federated(plan, pushed=[_Fragment()]))
        )
        assert codes == ["RA501", "RA503"]

    def test_ra502_raw_sensor_scan_pushed_as_bare_collection(self):
        from repro.catalog import EngineLocation, SourceKind

        catalog = Catalog()
        catalog.register_source(
            "RoomTemps", READINGS, SourceKind.STREAM, EngineLocation.SENSOR
        )

        class _Deployment:
            kind = "collection"
            relations = ("RoomTemps",)

        class _Fragment:
            name = "raw_t_1"
            fragment = Scan(catalog.source("RoomTemps"), "t")
            deployment = _Deployment()

        residual = Select(
            RemoteSource("raw_t_1", READINGS.qualified("t")),
            BinaryOp(">", ColumnRef("t.temp"), Literal(20.0)),
        )
        diagnostics = federated_diagnostics(
            self._federated(residual, pushed=[_Fragment()])
        )
        assert _codes(diagnostics) == ["RA502", "RA503"]
        assert "raw_t_1" in diagnostics[0].render()

    def test_explain_diagnostics_orders_sections(self):
        plan = _plan("select r.room from Readings r where r.temp > 1.0")
        federated = self._federated(plan)
        diags = explain_diagnostics(
            plan, federated, shard_keys={"readings": "room"}
        )
        codes = _codes(diags)
        # partition verdict, sharing verdict, then federated decisions
        assert codes[0].startswith("RA3")
        assert codes[1].startswith("RA4")
        assert codes[2:] == ["RA500", "RA503"]
        no_shards = explain_diagnostics(plan, federated, shard_keys=None)
        assert not any(code.startswith("RA3") for code in _codes(no_shards))


# ----------------------------------------------------------------------
# analyze_plan composition
# ----------------------------------------------------------------------
class TestAnalyzePlan:
    def test_clean_plan_reports_ok(self):
        report = analyze_plan(
            _plan(
                "select r.room, count(*) as n from Readings r "
                "[range 10 seconds] group by r.room"
            )
        )
        assert report.ok
        assert report.has_code("RA200")  # explanation, not a defect

    def test_recursive_plan_analyzes_both_halves(self):
        plan = _plan(
            "with recursive c (n) as "
            "(select m.host from Machines m "
            "union select c.n from c, Machines m where c.n = m.host) "
            "select c.n from c"
        )
        report = analyze_plan(plan)
        assert report.ok  # stored-table recursion is sound

    def test_error_plan_not_ok(self):
        report = analyze_plan(
            _plan("select r.room from Readings r [unbounded] group by r.room")
        )
        assert not report.ok and report.has_code("RA104")


# ----------------------------------------------------------------------
# RA9xx: engine-invariant linter
# ----------------------------------------------------------------------
class TestEngineLinter:
    def _tree(self, tmp_path, files: dict[str, str]):
        for rel, text in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return tmp_path

    def test_installed_engine_is_clean(self):
        assert lint_engine() == []

    def test_ra901_unpaired_snapshot(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "stream/ops.py": (
                    "class Operator:\n"
                    "    pass\n"
                    "class Leaky(Operator):\n"
                    "    def state_snapshot(self):\n"
                    "        return {}\n"
                ),
            },
        )
        diags = lint_engine(root)
        assert _codes(diags) == ["RA901"]
        assert "Leaky" in diags[0].message

    def test_ra901_unpaired_restore(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "stream/ops.py": (
                    "class Operator:\n"
                    "    pass\n"
                    "class Half(Operator):\n"
                    "    def state_restore(self, state):\n"
                    "        pass\n"
                ),
            },
        )
        assert _codes(lint_engine(root)) == ["RA901"]

    def test_ra901_transitive_subclass_detected(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "stream/ops.py": (
                    "class Operator:\n"
                    "    pass\n"
                    "class Middle(Operator):\n"
                    "    pass\n"
                    "class Deep(Middle):\n"
                    "    def state_snapshot(self):\n"
                    "        return {}\n"
                ),
            },
        )
        diags = lint_engine(root)
        assert _codes(diags) == ["RA901"] and "Deep" in diags[0].message

    def test_ra902_push_batch_drops_punctuation(self, tmp_path):
        # A body over a pure run is the contract: punctuation never
        # arrives in a batch, so there is nothing to drop.
        root = self._tree(
            tmp_path,
            {
                "stream/ops.py": (
                    "class Operator:\n"
                    "    pass\n"
                    "class Batchy(Operator):\n"
                    "    def push_batch(self, elements):\n"
                    "        for element in elements:\n"
                    "            self.emit(element)\n"
                ),
            },
        )
        assert lint_engine(root) == []

    def test_ra902_punctuation_check_is_safe(self, tmp_path):
        # Looking for a punctuation inside a batch is the violation —
        # on an operator or on any other consumer.
        root = self._tree(
            tmp_path,
            {
                "stream/ops.py": (
                    "class Operator:\n"
                    "    pass\n"
                    "class Careful(Operator):\n"
                    "    def push_batch(self, items):\n"
                    "        for item in items:\n"
                    "            if isinstance(item, Punctuation):\n"
                    "                self.flush()\n"
                    "            else:\n"
                    "                self.emit(item)\n"
                    "class Funnel:\n"
                    "    def receive_batch(self, index, items):\n"
                    "        if not any(isinstance(i, Punctuation) for i in items):\n"
                    "            self.sink.push_batch(items)\n"
                ),
            },
        )
        diags = lint_engine(root)
        assert _codes(diags) == ["RA902", "RA902"]
        assert "push_batch names Punctuation" in diags[0].message
        assert "receive_batch names Punctuation" in diags[1].message
        assert diags[0].operator == "stream/ops.py:4"

    def test_ra902_per_item_push_fallback_is_safe(self, tmp_path):
        # Recovering from a punctuation (it has no .row) by falling back
        # to per-item push is the redo protocol the contract deleted.
        root = self._tree(
            tmp_path,
            {
                "stream/ops.py": (
                    "class Operator:\n"
                    "    pass\n"
                    "class Delegating(Operator):\n"
                    "    def push_batch(self, items):\n"
                    "        try:\n"
                    "            self.fast(items)\n"
                    "        except (AttributeError, KeyError):\n"
                    "            for item in items:\n"
                    "                self.push(item)\n"
                ),
            },
        )
        diags = lint_engine(root)
        assert _codes(diags) == ["RA902"]
        assert "catches AttributeError" in diags[0].message

    def test_ra902_batch_body_building_an_element(self, tmp_path):
        # A run is rows and their stamps: a batch body naming
        # StreamElement builds the per-row object the run avoids —
        # anywhere but the operators' per-element fallback.
        root = self._tree(
            tmp_path,
            {
                "stream/operators.py": (
                    "class Operator:\n"
                    "    def push_batch(self, rows, stamps, source):\n"
                    "        for row, stamp in zip(rows, stamps):\n"
                    "            self.on_element(StreamElement(row, stamp, source))\n"
                    "class Wrapping(Operator):\n"
                    "    def push_batch(self, rows, stamps, source):\n"
                    "        self.sink.push_batch([StreamElement(r, t) for r, t in zip(rows, stamps)])\n"
                ),
                "stream/feeds.py": (
                    "class Operator:\n"
                    "    def push_batch(self, rows, stamps, source):\n"
                    "        self.kept = [StreamElement(r, t, source) for r, t in zip(rows, stamps)]\n"
                    "class Funnel:\n"
                    "    def receive_batch(self, index, rows, stamps, source):\n"
                    "        self.sink.push_batch(rows, stamps, source)\n"
                ),
            },
        )
        diags = lint_engine(root)
        assert _codes(diags) == ["RA902", "RA902"]
        assert all("push_batch names StreamElement" in d.message for d in diags)
        assert [d.operator for d in diags] == ["stream/feeds.py:2", "stream/operators.py:6"]

    def test_ra903_layering_violation(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "errors/__init__.py": "",
                "errors/bad.py": "from repro.sql.parser import parse\n",
            },
        )
        diags = lint_engine(root)
        assert _codes(diags) == ["RA903"]
        assert "errors/bad.py:1" in diags[0].operator

    def test_ra903_lazy_import_is_exempt(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "errors/__init__.py": "",
                "errors/lazy.py": (
                    "def helper():\n"
                    "    from repro.sql.parser import parse\n"
                    "    return parse\n"
                ),
            },
        )
        assert lint_engine(root) == []

    def test_ra903_allowed_edge_is_silent(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "plan/__init__.py": "",
                "plan/x.py": "from repro.sql.expressions import Expr\n",
            },
        )
        assert lint_engine(root) == []

    def test_ra904_import_time_engine_singleton(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "stream/__init__.py": "",
                "stream/bad.py": (
                    "from repro.stream.engine import StreamEngine\n"
                    "ENGINE = StreamEngine(None)\n"
                ),
            },
        )
        diags = lint_engine(root)
        assert _codes(diags) == ["RA904"]
        assert "stream/bad.py:2" in diags[0].operator

    def test_ra904_singleton_inside_expression_detected(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "data/__init__.py": "",
                "data/bad.py": "POOLS = [ShardedStreamEngine(c) for c in CATS]\n",
            },
        )
        assert _codes(lint_engine(root)) == ["RA904"]

    def test_ra904_function_scoped_engine_is_exempt(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "stream/__init__.py": "",
                "stream/ok.py": (
                    "def build(catalog):\n"
                    "    return StreamEngine(catalog)\n"
                ),
            },
        )
        assert lint_engine(root) == []

    def test_ra904_lambda_queue_frame(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "stream/__init__.py": "",
                "stream/chan.py": (
                    "import multiprocessing\n"
                    "def feed(q):\n"
                    "    q.put(lambda row: row)\n"
                ),
            },
        )
        diags = lint_engine(root)
        assert _codes(diags) == ["RA904"]
        assert "lambda" in diags[0].message

    def test_ra904_bound_method_queue_frame(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "stream/__init__.py": "",
                "stream/chan.py": (
                    "import multiprocessing\n"
                    "class Channel:\n"
                    "    def feed(self, q):\n"
                    "        q.put(self.callback)\n"
                ),
            },
        )
        diags = lint_engine(root)
        assert _codes(diags) == ["RA904"]
        assert "bound attribute" in diags[0].message

    def test_ra904_frame_must_be_a_plain_tuple(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "stream/__init__.py": "",
                "stream/chan.py": (
                    "import multiprocessing\n"
                    "def feed(q, rows):\n"
                    "    q.put({'kind': 'data', 'rows': rows})\n"
                    "    q.put(make_frame(rows))\n"
                ),
            },
        )
        diags = lint_engine(root)
        assert _codes(diags) == ["RA904", "RA904"]
        assert all("non-tuple expression" in d.message for d in diags)

    def test_ra904_second_multiprocessing_module(self, tmp_path):
        """Exactly one module is the frame boundary: a second importer
        of multiprocessing is a second transport growing beside it."""
        root = self._tree(
            tmp_path,
            {
                "stream/__init__.py": "",
                "stream/chan.py": "import multiprocessing\n",
                "stream/other.py": "from multiprocessing import Queue\n",
                "api/__init__.py": "",
                "api/third.py": "import multiprocessing.pool\n",
            },
        )
        diags = lint_engine(root)
        assert _codes(diags) == ["RA904", "RA904"]
        # Sorted walk: api/third.py is first and so the sanctioned one.
        assert {d.operator for d in diags} == {"stream/chan.py:1", "stream/other.py:1"}

    def test_ra904_repo_has_one_frame_boundary(self):
        import ast

        from repro.analysis.linter import _imports_multiprocessing, repro_root

        root = repro_root()
        importers = [
            str(path.relative_to(root))
            for path in sorted(root.rglob("*.py"))
            if _imports_multiprocessing(ast.parse(path.read_text()))
        ]
        assert importers == ["stream/procshard.py"]

    def test_ra904_tuple_frames_are_clean(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "stream/__init__.py": "",
                "stream/chan.py": (
                    "import multiprocessing\n"
                    "def feed(q, rows):\n"
                    "    frame = ('data', rows)\n"
                    "    q.put(frame)\n"
                    "    q.put_nowait(('punct', 1.0))\n"
                ),
            },
        )
        assert lint_engine(root) == []

    def test_ra904_put_without_multiprocessing_is_exempt(self, tmp_path):
        """Plain in-process queues (no multiprocessing import) may carry
        anything — the rule polices only the process boundary."""
        root = self._tree(
            tmp_path,
            {
                "api/__init__.py": "",
                "api/q.py": (
                    "def feed(q):\n"
                    "    q.put(lambda row: row)\n"
                ),
            },
        )
        assert lint_engine(root) == []

    def test_ra905_bare_compile_outside_the_helper(self, tmp_path):
        """A generator calling builtin compile itself bypasses the
        code-object memo — anywhere, including beside the helper."""
        root = self._tree(
            tmp_path,
            {
                "sql/__init__.py": "",
                "sql/compiled.py": (
                    "def _code_object(source, filename):\n"
                    "    return compile(source, filename, 'exec')\n"
                    "def _codegen(source):\n"
                    "    exec(compile(source, '<gen>', 'exec'), {})\n"
                ),
                "stream/__init__.py": "",
                "stream/gen.py": (
                    "def _code_object(source):\n"
                    "    return compile(source, '<elsewhere>', 'exec')\n"
                ),
            },
        )
        diags = lint_engine(root)
        assert _codes(diags) == ["RA905", "RA905"]
        assert {d.operator for d in diags} == {"sql/compiled.py:4", "stream/gen.py:2"}

    def test_ra905_attribute_compile_calls_are_exempt(self, tmp_path):
        root = self._tree(
            tmp_path,
            {
                "sql/__init__.py": "",
                "sql/compiled.py": (
                    "import re\n"
                    "def _code_object(source, filename):\n"
                    "    return compile(source, filename, 'exec')\n"
                    "def like(pattern):\n"
                    "    return re.compile(pattern)\n"
                ),
                "stream/__init__.py": "",
                "stream/run.py": (
                    "def lower(compiler, plan, sink):\n"
                    "    return compiler.compile(plan, sink)\n"
                ),
            },
        )
        assert lint_engine(root) == []

    def test_ra906_eval_call_under_stream(self, tmp_path):
        """An evaluation site calling ``Expr.eval`` by name is a second
        body beside the schema-bound one — an operator under stream/, a
        mote's predicate under sensor/, an app's matcher under
        smartcis/; the interpreter itself (sql/) is not this rule's
        business."""
        sites = {
            "stream/operators.py": (
                "class FilterOp:\n"
                "    def on_element(self, element):\n"
                "        if self._compiled(element.row.values) is True:\n"
                "            return element\n"
                "        return self.predicate.eval(element.row)\n"
            ),
            "sensor/engine.py": (
                "def sample(predicate, row):\n"
                "    return predicate.eval(row) is True\n"
            ),
            "smartcis/app.py": (
                "def find(matcher, row):\n"
                "    ok = True\n"
                "    return ok and matcher.eval(row)\n"
            ),
        }
        found = {}
        for site, body in sites.items():
            package = site.split("/")[0]
            root = self._tree(
                tmp_path / package,
                {
                    "sql/__init__.py": "",
                    "sql/compiled.py": (
                        "def _fallback(expr, schema):\n"
                        "    return lambda values: expr.eval(values)\n"
                    ),
                    f"{package}/__init__.py": "",
                    site: body,
                },
            )
            found[site] = [(d.code, d.operator) for d in lint_engine(root)]
        assert found == {
            "stream/operators.py": [("RA906", "stream/operators.py:5")],
            "sensor/engine.py": [("RA906", "sensor/engine.py:2")],
            "smartcis/app.py": [("RA906", "smartcis/app.py:3")],
        }

    def test_ra906_accumulator_under_stream(self, tmp_path):
        """An operator folding into interpreter accumulators of its own
        evaluates each call's argument by name, uncounted; one folding
        through sql.compiled's pair is clean, and sql/ may build them."""
        accumulators = (
            "from repro.sql.expressions import Accumulator\n"
            "def fold(calls, rows):\n"
            "    state = [Accumulator(call) for call in calls]\n"
            "    for row in rows:\n"
            "        for accumulator in state:\n"
            "            accumulator.add(row)\n"
            "    return [a.result() for a in state]\n"
        )
        compiled = (
            "from repro.sql.compiled import compile_accumulate\n"
            "def fold(calls, schema, elements):\n"
            "    groups = {}\n"
            "    fold, finalize = compile_accumulate([], calls, schema)\n"
            "    fold(elements, groups)\n"
            "    return [finalize(state) for state in groups.values()]\n"
        )
        found = {}
        for arm, body in (("flagged", accumulators), ("clean", compiled)):
            root = self._tree(
                tmp_path / arm,
                {
                    "sql/__init__.py": "",
                    "sql/compiled.py": accumulators,
                    "stream/__init__.py": "",
                    "stream/batch.py": body,
                },
            )
            found[arm] = [(d.code, d.operator) for d in lint_engine(root)]
        assert found == {"flagged": [("RA906", "stream/batch.py:3")], "clean": []}

    def test_ra907_a_caught_error_is_parked_or_raised(self, tmp_path):
        """Under stream/ and data/, a handler that names what it caught
        and keeps it (threading it to a later raise) is flagged; one
        that parks it or re-raises is not, nor is a bare handler, nor
        anything outside those two packages."""
        threading = (
            "def fan_out(consumers, item):\n"
            "    error = None\n"
            "    for consumer in consumers:\n"
            "        try:\n"
            "            consumer.push(item)\n"
            "        except Exception as exc:\n"
            "            error = error or exc\n"
            "    if error is not None:\n"
            "        raise error\n"
        )
        root = self._tree(
            tmp_path,
            {
                "data/__init__.py": "",
                "data/streams.py": threading,
                "stream/__init__.py": "",
                "stream/engine.py": (
                    "from repro.data.streams import park\n"
                    "def push(routes, item):\n"
                    "    for route in routes:\n"
                    "        try:\n"
                    "            route.push(item)\n"
                    "        except Exception as exc:\n"
                    "            park(exc)\n"
                    "        try:\n"
                    "            route.push(item)\n"
                    "        except Exception as exc:\n"
                    "            raise RuntimeError('wrapped') from exc\n"
                    "        try:\n"
                    "            route.push(item)\n"
                    "        except Exception:\n"
                    "            pass\n"
                ),
                "api/__init__.py": "",
                "api/session.py": threading,
            },
        )
        diags = lint_engine(root)
        assert _codes(diags) == ["RA907"]
        assert diags[0].operator == "data/streams.py:6"

    def test_ra908_plan_nodes_are_write_once(self, tmp_path):
        """A plan node (the base or a subclass, in any module) that
        writes an attribute of itself outside its own ``__init__`` is
        flagged, by any spelling; ``__init__`` writes, cached
        properties, static helpers and other classes are not."""
        root = self._tree(
            tmp_path,
            {
                "plan/__init__.py": "",
                "plan/logical.py": (
                    "from functools import cached_property\n"
                    "class LogicalOp:\n"
                    "    def __init__(self):\n"
                    "        self.plan_id = 1\n"
                    "    @cached_property\n"
                    "    def fingerprint(self):\n"
                    "        return None\n"
                    "class Select(LogicalOp):\n"
                    "    def __init__(self, child):\n"
                    "        super().__init__()\n"
                    "        self.child = child\n"
                    "    def rebase(self, child):\n"
                    "        self.child = child\n"
                    "    @staticmethod\n"
                    "    def helper(node):\n"
                    "        return node\n"
                    "class Counter:\n"
                    "    def bump(self):\n"
                    "        self.count = 1\n"
                ),
                "plan/exchange.py": (
                    "from repro.plan.logical import Select\n"
                    "class Partial(Select):\n"
                    "    def forget(me):\n"
                    "        del me.child\n"
                    "        setattr(me, 'child', None)\n"
                    "        object.__setattr__(me, 'child', None)\n"
                    "        me.__dict__['fingerprint'] = None\n"
                    "        me.items[0] = None\n"
                ),
            },
        )
        diags = lint_engine(root)
        assert _codes(diags) == ["RA908"] * 5
        assert [d.operator for d in diags] == [
            "plan/exchange.py:4",
            "plan/exchange.py:5",
            "plan/exchange.py:6",
            "plan/exchange.py:7",
            "plan/logical.py:13",
        ]

    def test_ra908_no_write_into_another_objects_dict(self, tmp_path):
        """Outside the plan classes, a store into or a delete from
        ``X.__dict__[...]`` is flagged in any module — a memo written
        onto a plan node from outside its class, or a class writing its
        own ``__dict__`` outside ``__init__`` — except ``self`` in its
        own class's ``__init__``; reads are not this rule's business."""
        root = self._tree(
            tmp_path,
            {
                "stream/__init__.py": "",
                "stream/batch.py": (
                    "def _node_compiled(node, factory):\n"
                    "    cached = node.__dict__.get('_batch_compiled')\n"
                    "    if cached is None:\n"
                    "        cached = factory()\n"
                    "        node.__dict__['_batch_compiled'] = cached\n"
                    "    return cached\n"
                    "class Memo:\n"
                    "    def __init__(self):\n"
                    "        self.__dict__['hits'] = 0\n"
                    "    def forget(self, other):\n"
                    "        del other.__dict__['hits']\n"
                    "        self.__dict__['hits'] = 0\n"
                ),
            },
        )
        diags = lint_engine(root)
        assert _codes(diags) == ["RA908"] * 3
        assert [d.operator for d in diags] == [
            "stream/batch.py:5",
            "stream/batch.py:11",
            "stream/batch.py:12",
        ]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    CORPUS = (
        "-- !stream Readings room:string temp:float\n"
        "-- !table Machines host:string room:string\n"
        "\n"
        "select r.room, r.temp from Readings r where r.temp > 24.0;\n"
        "select distinct r.room from Readings r;\n"
        "select r.room from Readings r [unbounded] group by r.room;\n"
    )

    def test_corpus_mode_reports_codes_and_fails_on_errors(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        corpus = tmp_path / "corpus.sql"
        corpus.write_text(self.CORPUS)
        status = main([str(corpus)])
        out = capsys.readouterr().out
        assert status == 1  # the [unbounded] statement is an error
        assert "[RA104]" in out and "[RA400]" in out

    def test_corpus_strict_escalates_warnings(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        corpus = tmp_path / "corpus.sql"
        corpus.write_text(
            "-- !stream Readings room:string temp:float\n"
            "select distinct r.room from Readings r;\n"
        )
        assert main([str(corpus)]) == 0
        assert main([str(corpus), "--strict"]) == 1
        assert "[RA102]" in capsys.readouterr().out

    def test_corpus_compile_errors_are_failures(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        corpus = tmp_path / "corpus.sql"
        corpus.write_text(
            "-- !stream Readings room:string temp:float\n"
            "select r.ghost from Readings r;\n"
        )
        assert main([str(corpus)]) == 1
        assert "compile error" in capsys.readouterr().out

    def test_self_mode_is_clean(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["--self"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out
