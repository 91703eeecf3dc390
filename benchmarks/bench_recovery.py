"""Microbenchmark — checkpointing overhead and shard-failover latency.

Two questions about the recovery subsystem, both on the ledger's
``STANDING7`` deployment and seeded ``Readings`` feed (seven concurrent
queries, four shards, batched ingest through the ``Session`` surface):

* **What does protection cost?** The same feed is ingested with no
  :class:`CheckpointCoordinator` and with
  ``connect(checkpoint_interval=...)`` taking punctuation-aligned
  barriers throughout, in :data:`PAIRS` alternated pairs of runs (the
  checkpointed run first on odd pairs). ``checkpoint_overhead`` is the
  median of the pairs' slowdown ratios, each recorded in
  ``overhead_ratios``; the acceptance bar is ≤ 1.10 (checkpointing may
  cost at most 10% of ingest throughput). One ratio of two single runs
  spreads wider than that bar on a shared machine, so it is not gated.
* **How fast is failover?** Mid-feed, one shard engine is killed.
  ``time_to_first_emission_s`` is the wall-clock from the kill until
  the merged output grows again — covering detection, restore from the
  latest barrier, suffix replay and the first post-recovery window
  emission. The replay is asserted to start at the latest barrier's
  sequence number (suffix-only, never full history), and the final
  results are asserted identical to the failure-free run.

Results go to ``BENCH_recovery.json`` (directory override:
``REPRO_BENCH_DIR``); ``REPRO_BENCH_SCALE`` shrinks the workload for
smoke runs, where the timing thresholds are skipped.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from pathlib import Path

from benchmarks.ledger import gen
from benchmarks.ledger.workloads import STANDING7 as QUERIES
from repro.api import StreamSource, connect
from repro.data import Row
from repro.runtime.faults import kill_shard

ARTIFACT_NAME = "BENCH_recovery.json"

SHARDS = 4
BATCH_SIZE = 4096

#: Event-time seconds between barriers. Stamps advance at 100 rows per
#: event-second, so the full-scale feed takes ~10 barriers.
CHECKPOINT_INTERVAL = 40.0

#: Alternated plain/checkpointed ingest pairs behind the overhead gate.
PAIRS = 7


def _session(checkpoint_interval: float | None):
    session = connect(shards=SHARDS, checkpoint_interval=checkpoint_interval)
    session.attach(
        StreamSource("Readings", gen.READINGS, rate=10.0, partition_by="host")
    )
    cursors = [session.query(sql) for sql in QUERIES]
    return session, cursors


def _collect(session, cursors):
    results = tuple(
        tuple(sorted(repr(row.values) for row in cursor.results()))
        for cursor in cursors
    )
    session.close()
    return results


def _run_ingest(checkpoint_interval, rows, stamps):
    """One measured ingest of the whole feed; returns (seconds, results)."""
    n = len(rows)
    session, cursors = _session(checkpoint_interval)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for offset in range(0, n, BATCH_SIZE):
            end = min(offset + BATCH_SIZE, n)
            session.push_many("Readings", rows[offset:end], stamps[offset:end])
            session.punctuate(stamps[end - 1])
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    session.punctuate(stamps[-1] + 80.0)
    taken = session.checkpointer.checkpoints_taken if session.checkpointer else 0
    return elapsed, (_collect(session, cursors), taken)


def _run_failover(rows, stamps):
    """Kill one shard mid-feed; returns (time-to-first-emission, payload).

    The feed is driven in eight segments; the kill lands after the
    fourth. Recovery happens inline on the next segment's ingest, and
    the clock stops the moment any query's merged output grows past its
    pre-kill length.
    """
    n = len(rows)
    segment = max(1, (n + 7) // 8)
    session, cursors = _session(CHECKPOINT_INTERVAL)
    boundaries = list(range(0, n, segment))
    first_emission = None
    kill_after = 4

    for seg_no, offset in enumerate(boundaries):
        if seg_no == kill_after:
            marks = [len(c._handle.sink) for c in cursors]
            kill_shard(session.engine, 1)
            start = time.perf_counter()
        end = min(offset + segment, n)
        session.push_many("Readings", rows[offset:end], stamps[offset:end])
        session.punctuate(stamps[end - 1])
        if seg_no >= kill_after and first_emission is None:
            if any(
                len(c._handle.sink) > mark
                for c, mark in zip(cursors, marks)
            ):
                first_emission = time.perf_counter() - start
    session.punctuate(stamps[-1] + 80.0)
    replay = session.checkpointer.last_replay
    barrier = session.checkpointer.latest()
    return first_emission, (_collect(session, cursors), replay, barrier)


def _overhead_pairs(rows, stamps) -> tuple[list[float], list[float], list[float], tuple]:
    """:data:`PAIRS` pairs of one plain and one checkpointed ingest, the
    checkpointed one first on odd pairs so neither arm always runs
    second. Returns each pair's ``checkpointed / plain`` ratio, the two
    arms' times, and the emissions, asserted equal across every run."""
    ratios, plain, checked, expected = [], [], [], None
    for pair in range(PAIRS):
        arms = (CHECKPOINT_INTERVAL, None) if pair % 2 else (None, CHECKPOINT_INTERVAL)
        timed = {interval: _run_ingest(interval, rows, stamps) for interval in arms}
        (plain_s, (results, _)), (ck_s, (ck_results, taken)) = timed[None], timed[CHECKPOINT_INTERVAL]
        assert ck_results == results, "checkpointing changed emissions"
        assert expected is None or results == expected, "emissions differ between runs"
        assert taken >= 1, "no barrier fired during the checkpointed run"
        expected = results
        plain.append(plain_s)
        checked.append(ck_s)
        ratios.append(ck_s / plain_s)
    return ratios, plain, checked, (expected, taken)


def _best_of(measure, repetitions: int = 3):
    best = None
    for _ in range(repetitions):
        elapsed, payload = measure()
        if best is None or elapsed < best[0]:
            best = (elapsed, payload)
    return best


def run_benchmarks(scale: float | None = None) -> dict:
    if scale is None:
        scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    n = max(400, int(40_000 * scale))
    values, stamps = gen.readings(0, n)
    rows = [Row.raw(gen.READINGS, row) for row in values]

    ratios, plain, checked, (plain_results, taken) = _overhead_pairs(rows, stamps)
    plain_s, ck_s = statistics.median(plain), statistics.median(checked)

    recovery_s, (failover_results, replay, _) = _best_of(
        lambda: _run_failover(rows, stamps)
    )
    assert failover_results == plain_results, "failover changed emissions"
    assert replay is not None and replay["target"] == 1
    # Suffix-only: the replay starts at a barrier, not at sequence 0.
    assert replay["from_seq"] > 0, "recovery replayed the full history"

    return {
        "benchmark": "recovery",
        "scale": scale,
        "rows": n,
        "queries": len(QUERIES),
        "shards": SHARDS,
        "checkpoint_interval_s": CHECKPOINT_INTERVAL,
        "checkpoints_taken": taken,
        # Median seconds over the pairs, per arm.
        "workloads": {
            "unprotected": {
                "seconds": round(plain_s, 6),
                "rows_per_s": round(n / plain_s) if plain_s else None,
            },
            "checkpointed": {
                "seconds": round(ck_s, 6),
                "rows_per_s": round(n / ck_s) if ck_s else None,
            },
        },
        # Acceptance ratio: barriers may cost at most 10% of ingest, read
        # as the median of the alternated pairs' ratios.
        "checkpoint_overhead": round(statistics.median(ratios), 3),
        "overhead_ratios": [round(ratio, 3) for ratio in ratios],
        "failover": {
            "time_to_first_emission_s": round(recovery_s, 6),
            "replayed_entries": replay["entries"],
            "replay_from_seq": replay["from_seq"],
        },
    }


def write_artifact(results: dict, directory: str | os.PathLike | None = None) -> Path:
    if directory is None:
        directory = os.environ.get(
            "REPRO_BENCH_DIR", Path(__file__).resolve().parent.parent
        )
    path = Path(directory) / ARTIFACT_NAME
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def test_recovery_overhead(table_printer):
    results = run_benchmarks()
    path = write_artifact(results)
    workloads = results["workloads"]
    table_printer(
        f"checkpoint/restore, {results['queries']} standing queries on "
        f"{results['shards']} shards (artifact: {path})",
        ["metric", "value"],
        [
            ["unprotected rows/s", workloads["unprotected"]["rows_per_s"]],
            ["checkpointed rows/s", workloads["checkpointed"]["rows_per_s"]],
            [
                f"checkpoint overhead (median of {len(results['overhead_ratios'])} pairs)",
                f'{results["checkpoint_overhead"]:.3f}x',
            ],
            ["barriers taken", results["checkpoints_taken"]],
            [
                "failover → first emission",
                f'{results["failover"]["time_to_first_emission_s"] * 1000:.1f} ms',
            ],
            ["replayed entries", results["failover"]["replayed_entries"]],
        ],
    )
    # Acceptance thresholds, full scale only — smoke is timing noise.
    if results["scale"] >= 1.0:
        assert results["checkpoint_overhead"] <= 1.10
        # Failover must beat re-ingesting the feed from scratch.
        assert (
            results["failover"]["time_to_first_emission_s"]
            < workloads["unprotected"]["seconds"]
        )


if __name__ == "__main__":
    from benchmarks.conftest import print_table

    test_recovery_overhead(print_table)
