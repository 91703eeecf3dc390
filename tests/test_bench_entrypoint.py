"""Tier-1 smoke for the bench tooling (`make bench` / python -m benchmarks).

Runs the recovery bench at a tiny scale and checks the artifact
contract — not the overhead thresholds, which are asserted by the bench
itself when run at full scale (timing assertions would be flaky inside
the CI test suite).
"""

import json

import pytest


def test_bench_recovery_smoke(tmp_path):
    from benchmarks.bench_recovery import run_benchmarks, write_artifact

    results = run_benchmarks(scale=0.01)
    path = write_artifact(results, tmp_path)

    data = json.loads(path.read_text())
    assert data["benchmark"] == "recovery"
    assert data["queries"] == 7 and data["checkpoints_taken"] >= 1
    for name in ("unprotected", "checkpointed"):
        assert data["workloads"][name]["rows_per_s"] > 0
    assert data["checkpoint_overhead"] is not None
    assert data["failover"]["replay_from_seq"] > 0


def test_bench_runner_module_lists_all_benches():
    from benchmarks.__main__ import BENCH_DIR

    names = sorted(p.name for p in BENCH_DIR.glob("bench_*.py"))
    assert "bench_recovery.py" in names
    assert "bench_fig1_federation.py" in names


#: Whole functions each ledger deployment generates while it opens,
#: summed over shards and worker processes. Admission work is gated
#: (``admit_qps``, ``setup_s``), so a change that generates more — or
#: less — edits this pin on purpose. ``xchg_pool4`` read 61 while each
#: stage-1 partial aggregate compiled a key and an argument projection;
#: its one ``compile_partial`` fold-and-take pair per operator reads 57.
#: Each engine (and each pool) also generates one ingest loop per stream
#: a query scans (``compile_ingest``), at admission so that rows flowing
#: never generate code: +1 on one engine, +10 on ``xchg_pool4`` (two
#: streams on four shards and the pool), +3 on ``standing7_proc2``.
#: A stream whose one route feeds a Select/Project operator also gets a
#: fused-ingest loop (``compile_fused_ingest``), built whenever its
#: routes change to that shape: +1 on ``one_query``, +8 on ``xchg_pool4``
#: (``Events`` on four shards, kept; ``Readings`` on four, dropped when
#: the second query arrives), and +1 per engine on the deployments whose
#: first query is such a chain and whose second drops it (``standing7``,
#: ``standing7_rowpush``, ``tenants1k``; +2 on ``standing7_proc2``).
#: A DISTINCT's batch body is a generated dedup loop: one that takes the
#: Select/Project run below it generates the run's closure and that
#: loop — the two functions the FusedOp it replaces generated, so
#: ``standing7``, ``tenants1k`` and ``standing7_proc2`` stay — and one
#: with no run generates the loop alone: ``xchg_pool4`` read 75 before
#: its stage-2 DISTINCT (over the exchange feed, on four shards) did.
#: A federated fragment's deployment counts too: ``federated`` read 4
#: before it did, and its mote collection compiles its predicate
#: ``g.temp > 24.0`` (+1), while the basestation's all-column projection
#: is an ``itemgetter`` and generates nothing. A join both of whose
#: inputs are exchange feeds also generates its two-sided delivery loop:
#: ``xchg_pool4`` read 79 before its stage-2 join (on four shards) did.
#: A pool lowers an admission's replicas on every shard in one kernel
#: scope, so each distinct kernel is generated once per pool, not once
#: per shard: ``xchg_pool4`` read 83 before; a process pool's workers
#: generate their own, so ``standing7_proc2`` stays.
ADMISSION_CODEGEN = {
    "one_query": 4,
    "standing7": 20,
    "standing7_rowpush": 20,
    "tenants1k": 44,
    "xchg_pool4": 23,
    "standing7_proc2": 41,
    "federated": 5,
}


def test_ledger_deployments_never_fall_back_to_the_interpreter():
    """Every ledger workload admits its queries onto generated code —
    exactly the functions :data:`ADMISSION_CODEGEN` pins, and none
    while rows flow: ``stats()["compile"]["fallbacks"]`` is the counter
    that would say otherwise, summed across shards and worker
    processes."""
    from benchmarks.ledger.workloads import WORKLOADS

    assert sorted(ADMISSION_CODEGEN) == sorted(w.name for w in WORKLOADS)
    for workload in WORKLOADS:
        units = 4 if workload.name == "federated" else 64
        deployment = workload.open(workload.build_input(1, units))
        try:
            admitted = dict(deployment.session.stats()["compile"])
            deployment.deliver(0, units)
            counts = deployment.session.stats()["compile"]
        finally:
            deployment.close()
        assert admitted["generated"] == ADMISSION_CODEGEN[workload.name], workload.name
        assert counts == admitted, workload.name
        assert counts["fallbacks"] == 0, workload.name


_PAIR_METRICS = [
    {"name": "rows_per_s", "better": "higher", "bound": 0.25},
    {"name": "emit_p50_ms", "better": "lower", "bound": 0.25},
]


def _pair_runs(rows_per_s, p50, failed=0, attempted=100):
    return [
        {
            "correct": True, "attempted": attempted, "failed": failed,
            "rows_per_s": r, "emit_p50_ms": p,
        }
        for r, p in zip(rows_per_s, p50)
    ]


class TestPairsSummary:
    """``benchmarks/pairs.py::summarize``: the verdict a perf claim cites."""

    def _summarize(self, capsys, base, change):
        from benchmarks.pairs import summarize

        status, _ = summarize(_PAIR_METRICS, base, change)
        return status, {
            line.split()[0]: line for line in capsys.readouterr().out.splitlines() if line
        }

    def test_claim_holds_when_ahead_in_every_pair_beyond_the_spread(self, capsys):
        base = _pair_runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [1.0] * 10)
        change = _pair_runs([120, 121, 119, 120, 122, 118, 120, 121, 119, 120], [1.0] * 10)
        status, lines = self._summarize(capsys, base, change)
        assert status == 0
        assert "ahead 10/10  claim holds" in lines["rows_per_s"]
        assert "claim holds" not in lines["emit_p50_ms"]  # tied is not ahead
        assert "REGRESSION" not in "".join(lines.values())

    def test_the_per_pair_ratio_reads_the_change_apart_from_the_seeds(self, capsys):
        """Seeds far apart spread the base's quartiles past a steady
        +10 %, so the claim rule (unchanged) does not hold; the ratio of
        each pair on its own seed reads the change exactly."""
        from benchmarks.pairs import summarize

        seeds = [100, 300, 150, 250, 200, 120, 280, 180, 220, 160]
        base = _pair_runs(seeds, [1.0] * 10)
        change = _pair_runs([1.1 * r for r in seeds], [0.9, 1.0] * 5)
        status, lines = self._summarize(capsys, base, change)
        assert status == 0
        assert lines["rows_per_s"].split()[-5:] == ["1.100", "[1.100,", "1.100]", "ahead", "10/10"]
        assert lines["emit_p50_ms"].split()[-5:] == ["0.950", "[0.900,", "1.000]", "ahead", "5/10"]
        _, digest = summarize(_PAIR_METRICS, base, change)
        assert digest.endswith(
            "pair ratios rows_per_s 1.100 [1.100, 1.100], "
            "emit_p50_ms 0.950 [0.900, 1.000]  [ok]"
        )

    def test_worse_inside_the_bound_is_not_a_regression(self, capsys):
        base = _pair_runs([100] * 4, [1.0] * 4)
        change = _pair_runs([80] * 4, [1.2] * 4)  # -20 %, +20 %: inside 0.25
        status, lines = self._summarize(capsys, base, change)
        assert status == 0
        assert "REGRESSION" not in "".join(lines.values())

    @pytest.mark.parametrize(
        "metric, change",
        [("rows_per_s", _pair_runs([70] * 4, [1.0] * 4)),
         ("emit_p50_ms", _pair_runs([100] * 4, [1.3] * 4))],
    )
    def test_worse_beyond_the_bound_is_a_regression(self, capsys, metric, change):
        status, lines = self._summarize(capsys, _pair_runs([100] * 4, [1.0] * 4), change)
        assert status == 1
        assert lines[metric].endswith("REGRESSION")
        (other,) = set(lines) & {"rows_per_s", "emit_p50_ms"} - {metric}
        assert "REGRESSION" not in lines[other]

    @pytest.mark.parametrize("side", ["base", "change"])
    def test_an_incorrect_run_refuses_the_comparison(self, capsys, side):
        runs = {"base": _pair_runs([100] * 3, [1.0] * 3), "change": _pair_runs([150] * 3, [1.0] * 3)}
        runs[side][1]["correct"] = False
        status, lines = self._summarize(capsys, runs["base"], runs["change"])
        assert status == 1
        assert f"{side} run of pair 2" in lines["REFUSED:"]
        assert "rows_per_s" not in lines  # no verdict on numbers from a wrong run

    def test_a_larger_failed_share_on_the_change_fails(self, capsys):
        base = _pair_runs([100] * 4, [1.0] * 4, failed=1, attempted=200)
        change = _pair_runs([100] * 4, [1.0] * 4, failed=2, attempted=200)
        status, lines = self._summarize(capsys, base, change)
        assert status == 1
        assert lines["failed"] == "failed ops: base 0.50%, change 1.00%  FAILED-OPS"
        assert "REGRESSION" not in "".join(lines.values())

    def test_the_digest_reads_each_metric(self, capsys):
        from benchmarks.pairs import summarize

        base = _pair_runs([100] * 10, [1.0] * 10)
        change = _pair_runs([120] * 10, [1.5] * 10)
        status, digest = summarize(_PAIR_METRICS, base, change)
        assert status == 1
        assert digest.startswith("rows_per_s +20.0% 10/10  claim holds; ")
        assert "emit_p50_ms +50.0% 0/10  REGRESSION" in digest
        assert digest.endswith("[FAIL]")
        change[0]["correct"] = False
        assert summarize(_PAIR_METRICS, base, change) == (1, "REFUSED")

    def test_all_workloads_on_held_out_seeds(self, capsys, monkeypatch):
        """``--workload all`` runs each BENCHMARK.json workload on the
        seeds from ``--first-seed``, base first on odd pairs, prints one
        summary row each and exits with the OR of their statuses."""
        import benchmarks.pairs as pairs

        spec = json.loads((pairs.REPO_ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        calls = []

        def fake_run(tree, workload, seed, seconds):
            side = "change" if tree == pairs.REPO_ROOT else "base"
            calls.append((workload, seed, side))
            worse = workload == "xchg_pool4" and side == "change"  # twice as bad
            return {
                "correct": True, "attempted": 100, "failed": 0,
                **{
                    m["name"]: (50 if m["better"] == "higher" else 200) if worse else 100
                    for m in spec["end_to_end"]
                },
            }

        monkeypatch.setattr(pairs, "extract", lambda rev: pairs.REPO_ROOT / "base")
        monkeypatch.setattr(pairs, "run", fake_run)
        status = pairs.main(
            ["--base", "HEAD", "--workload", "all", "--pairs", "2", "--first-seed", "11"]
        )
        assert [c for c in calls if c[2] == "base"] == [
            (name, seed, "base") for name in names for seed in (11, 12)
        ]
        assert [c[2] for c in calls[:4]] == ["base", "change", "change", "base"]
        assert status == 1  # one workload regressed
        rows = capsys.readouterr().out.splitlines()[-len(names):]
        assert [row.split()[0] for row in rows] == names
        assert [row.endswith("[FAIL]") for row in rows] == [n == "xchg_pool4" for n in names]

    def test_failed_ops_compare_as_shares_of_attempted(self, capsys):
        """More failures over more attempts is not a worse share, and an
        equal share is not worse either."""
        base = _pair_runs([100] * 4, [1.0] * 4, failed=1, attempted=100)
        for change in (
            _pair_runs([100] * 4, [1.0] * 4, failed=2, attempted=400),
            _pair_runs([100] * 4, [1.0] * 4, failed=1, attempted=100),
        ):
            status, lines = self._summarize(capsys, base, change)
            assert status == 0
            assert "FAILED-OPS" not in lines["failed"]
