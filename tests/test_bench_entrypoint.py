"""Tier-1 smoke for the bench tooling (`make bench` / python -m benchmarks).

Runs the recovery bench at a tiny scale and checks the artifact
contract — not the overhead thresholds, which are asserted by the bench
itself when run at full scale (timing assertions would be flaky inside
the CI test suite).
"""

import json


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
ADMISSION_CODEGEN = {
    "one_query": 2,
    "standing7": 18,
    "standing7_rowpush": 18,
    "tenants1k": 42,
    "xchg_pool4": 57,
    "standing7_proc2": 36,
    "federated": 3,
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
