"""Self-test of the ledger, collected by the tier-1 suite.

Runs every workload and the tracer at a tiny scale (a smoke test of the
plumbing — the numbers mean nothing at this size), checks the emitted
names against ``BENCHMARK.json``, and unit-tests the arithmetic the
metrics rest on: percentiles, per-step floors, span self time, wrapper
removal and the unresolved-target path.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.ledger import compare, harness, trace
from benchmarks.ledger.workloads import BY_NAME, WORKLOADS

LEDGER_DIR = Path(__file__).resolve().parent
CONTRACT = json.loads((LEDGER_DIR.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY_SECONDS = 0.1


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------
def test_contract_names_and_limits():
    # The gate runs a share of the ledger's workloads (its time limit
    # buys four runs long enough to be steady, not seven), in ledger order.
    workloads = [entry["name"] for entry in CONTRACT["workloads"]]
    ledger = [workload.name for workload in WORKLOADS]
    assert workloads == [name for name in ledger if name in workloads]
    assert len(ledger) == 7
    assert all(BY_NAME[entry["name"]].why == entry["why"] for entry in CONTRACT["workloads"])
    per_layer = {entry["name"]: (entry["unit"], entry["better"]) for entry in CONTRACT["per_layer"]}
    assert per_layer == {name: spec[:2] for name, spec in trace.PER_LAYER.items()}
    end_to_end = [entry["name"] for entry in CONTRACT["end_to_end"]]
    assert "setup_s" in end_to_end
    assert 2 <= len(workloads) <= 8 and len(end_to_end) <= 16 and len(per_layer) <= 128
    names = workloads + end_to_end + list(per_layer)
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < entry["bound"] <= 0.25 for entry in CONTRACT["end_to_end"])
    assert CONTRACT["paths"] == ["benchmarks/ledger"]


# ----------------------------------------------------------------------
# Every workload and the tracer, at a tiny scale
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(BY_NAME))
def test_workload_runs_and_matches_reference(name):
    record = harness.measure(BY_NAME[name], seed=3, seconds=TINY_SECONDS)
    assert record["failed_ops"] == 0, record["errors"]
    assert record["ops"] > 0
    assert list(record["metrics"]) == [entry["name"] for entry in CONTRACT["end_to_end"]]
    units = {entry["name"]: entry["unit"] for entry in CONTRACT["end_to_end"]}
    for metric, entry in record["metrics"].items():
        assert entry["unit"] == units[metric]
        assert entry["value"] > 0, metric
        assert entry["q1"] <= entry["q3"]


@pytest.mark.parametrize("name", list(BY_NAME))
def test_tracer_reports_every_per_layer_metric(name, tmp_path):
    spans = tmp_path / "spans.json"
    record = trace.trace_workload(BY_NAME[name], seed=3, seconds=TINY_SECONDS, spans_path=spans)
    assert record["failed_ops"] == 0, record["errors"]
    assert record["unresolved"] == []
    assert list(record["metrics"]) == list(trace.PER_LAYER)
    # Self times must account for the traced steps' wall time.
    assert 95.0 <= record["metrics"]["trace.self_coverage_pct"]["value"] <= 105.0
    dumped = json.loads(spans.read_text())
    assert dumped["closed_loop"][trace.STEP_SPAN]["count"] > 0
    assert dumped["paced"][trace.STEP_SPAN]["count"] > 0
    assert dumped["spans"], "the first steps' spans are kept whole"
    _assert_no_wrapper_installed()


def _assert_no_wrapper_installed():
    for target in trace.TARGETS:
        found = trace.resolve(target.path)
        assert found is not None, target.path
        assert not hasattr(found[2], "__ledger_span__"), target.path


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def test_percentiles_over_trimmed_rounds():
    assert harness.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert harness.percentile([1.0, 2.0], 50) == 1.5
    assert harness.percentile([7.0], 99) == 7.0
    assert harness.percentile(list(map(float, range(101))), 99) == 99.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)
    # The first tenth of a round (its warm-up steps) is dropped, in
    # step order; silent steps keep their place.
    samples = [100.0, None] + [float(i) for i in range(18, 0, -1)]
    assert harness.trimmed(samples) == [float(i) for i in range(18, 0, -1)]
    assert harness.trimmed([5.0, 1.0]) == [5.0, 1.0]


def test_floors_take_each_steps_second_fastest_replay():
    # four rounds of four steps: interference hits another step each
    # round and one replay of step 0 is freakishly fast; step 2 is slow
    # in every replay (what it costs); step 3 is silent in every round
    # and has no floor.
    rounds = [
        [1.0, 9.0, 5.0, None],
        [7.0, 2.0, 5.5, None],
        [0.2, 2.5, 5.2, None],
        [1.5, 8.0, 9.9, None],
    ]
    assert harness.floors(rounds) == [1.0, 2.5, 5.2]
    # a step sampled in only some rounds keeps the samples it has
    assert harness.floors([[None, 3.0], [4.0, None]]) == [4.0, 3.0]
    assert harness.floors([[None, 3.0], [4.0, 5.0]]) == [4.0, 5.0]
    assert harness.floors([]) == []


def test_summary_reports_value_beside_median_quartiles_and_count():
    samples = [4.0, 1.0, 3.0, 2.0, 5.0]
    time = harness.summary(samples, "ms", "lower", 0.9)
    assert (time["value"], time["median"], time["n"], time["unit"]) == (0.9, 3.0, 5, "ms")
    assert time["q1"] == 2.0 and time["q3"] == 4.0
    assert harness.summary([2.5], "s", "lower", 2.5) == {
        "unit": "s", "value": 2.5, "median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1,
    }
    # set-up cycles: the decile on the good side, inside the sample
    cycles = [float(i) for i in range(1, 22)]
    assert harness.best_decile(cycles, "lower") == 3.0
    assert harness.best_decile(cycles, "higher") == 19.0
    assert harness.best_decile([7.0], "lower") == 7.0


def test_span_self_time_nested_and_sibling():
    # step 0: root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 8].
    spans = [
        (0, 3, 2, "c", 6.0, 8.0),
        (0, 1, 0, "a", 1.0, 4.0),
        (0, 2, 0, "b", 5.0, 9.0),
        (0, 0, None, "root", 0.0, 10.0),
    ]
    assert trace.self_times(spans) == {0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0}
    assert sum(trace.self_times(spans).values()) == 10.0


class _Probe:
    """A stand-in layer: ``outer`` calls ``inner`` twice."""

    def inner(self, items):
        return len(items)

    def outer(self, items):
        return self.inner(items) + self.inner(items)


class _Child(_Probe):
    pass


def test_tracer_wraps_aggregates_and_restores():
    here = f"{__name__}."
    tracer = trace.Tracer(
        targets=(
            trace.Target(here + "_Probe.outer", "probe.outer", trace._rows_arg(1)),
            trace.Target(here + "_Probe.inner", "probe.inner", trace._rows_arg(1)),
            # inherited: the patch lands on the subclass and is deleted after
            trace.Target(here + "_Child.inner", "probe.child_inner"),
        )
    )
    original_outer, original_inner = _Probe.outer, _Probe.inner
    with tracer:
        assert "inner" in vars(_Child)
        step = tracer.instrument(lambda lo, hi: _Probe().outer([1, 2, 3]), closed_steps=1)
        step(0, 3)  # the closed-loop step
        step(3, 6)  # a paced step: aggregated apart
        _Child().inner([1])  # outside any step
    assert _Probe.outer is original_outer and _Probe.inner is original_inner
    assert "inner" not in vars(_Child)
    assert tracer.unresolved == []
    assert tracer.paced["probe.outer"][0] == 1 and tracer.paced["probe.inner"][0] == 2
    outer, inner = tracer.closed["probe.outer"], tracer.closed["probe.inner"]
    assert (outer[0], outer[3]) == (1, 3) and (inner[0], inner[3]) == (2, 6)
    # self = total minus the children's totals, at every level
    assert outer[2] == pytest.approx(outer[1] - inner[1])
    root = tracer.closed[trace.STEP_SPAN]
    assert root[2] == pytest.approx(root[1] - outer[1])
    assert tracer.self_seconds() == pytest.approx(
        root[1] + tracer.paced[trace.STEP_SPAN][1]
    )
    assert tracer.outside["probe.child_inner"][0] == 1
    # the kept spans form one tree under the step root
    first = [span for span in tracer.spans if span[0] == 0]
    by_id = {span[1]: span for span in first}
    assert sorted(span[3] for span in first) == [
        trace.STEP_SPAN, "probe.inner", "probe.inner", "probe.outer",
    ]
    assert sum(1 for span in first if span[2] is None) == 1
    assert all(span[2] is None or span[2] in by_id for span in first)
    assert sum(trace.self_times(first).values()) == pytest.approx(root[1])


def test_unresolvable_target_is_reported_not_raised():
    tracer = trace.Tracer(
        targets=(
            trace.Target("repro.stream.engine.StreamEngine.no_such_method", "x"),
            trace.Target("repro.no_such_module.Thing.method", "y"),
            trace.Target("no_such_package_at_all.f", "z"),
        )
    )
    with tracer:
        pass
    assert tracer.unresolved == [
        "repro.stream.engine.StreamEngine.no_such_method",
        "repro.no_such_module.Thing.method",
        "no_such_package_at_all.f",
    ]


class _Raiser:
    def go(self):
        raise KeyError("boom")


def test_wrapped_call_propagates_exceptions_and_unwinds():
    tracer = trace.Tracer(targets=(trace.Target(f"{__name__}._Raiser.go", "raiser"),))
    with tracer:
        with pytest.raises(KeyError):
            _Raiser().go()
        assert tracer._stack == []
    assert tracer.outside["raiser"][0] == 1


# ----------------------------------------------------------------------
# compare and the entry point
# ----------------------------------------------------------------------
def _result(rows_per_s, quartiles=(0.99, 1.01), failed=0):
    entry = lambda median: {  # noqa: E731
        "unit": "x", "value": median, "median": median, "q1": median * quartiles[0],
        "q3": median * quartiles[1], "n": 10,
    }
    metrics = {m["name"]: entry(10.0) for m in CONTRACT["end_to_end"]}
    metrics["rows_per_s"] = entry(rows_per_s)
    return {"workloads": {"standing7": {"ops": 100, "failed_ops": failed, "metrics": metrics}}}


def test_compare_applies_bounds():
    bound = next(m["bound"] for m in CONTRACT["end_to_end"] if m["name"] == "rows_per_s")
    verdicts = lambda rows: {row[1]: row[-1] for row in rows}  # noqa: E731
    rows, regressed = compare.compare(_result(1000.0), _result(1000.0 * (1 - bound / 2)), CONTRACT)
    assert not regressed and verdicts(rows)["rows_per_s"] == "ok"
    rows, regressed = compare.compare(_result(1000.0), _result(1000.0 * (1 - 2 * bound)), CONTRACT)
    assert regressed and verdicts(rows)["rows_per_s"] == "REGRESSION"
    # faster is never a regression (higher is better)
    rows, regressed = compare.compare(_result(1000.0), _result(3000.0), CONTRACT)
    assert not regressed
    # spread wider than the bound proves nothing either way
    noisy = _result(1000.0 * (1 - 2 * bound), quartiles=(1 - bound, 1 + bound))
    rows, regressed = compare.compare(_result(1000.0), noisy, CONTRACT)
    assert not regressed and verdicts(rows)["rows_per_s"] == "unresolved"
    # a higher failure ratio always fails
    rows, regressed = compare.compare(_result(1000.0), _result(1000.0, failed=1), CONTRACT)
    assert regressed and verdicts(rows)["failed_ops/ops"] == "REGRESSION"


def test_entry_point_fails_without_the_system_under_test(tmp_path):
    """In a directory holding only BENCHMARK.json and the ledger, the
    command must exit non-zero and print no result."""
    shutil.copytree(
        LEDGER_DIR, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(LEDGER_DIR.parent.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "one_query",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
