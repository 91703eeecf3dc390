"""Non-interactive bench runner: ``python -m benchmarks`` (or ``make bench``).

Runs every ``benchmarks/bench_*.py`` under pytest with output shown,
writes an untracked ``BENCH_run_summary.json`` recording per-file
status and duration, and exits non-zero if any bench fails. Individual
benches may write their own tracked ``BENCH_*.json`` artifacts (e.g.
``bench_recovery.py`` → ``BENCH_recovery.json``).

Extra arguments are passed through to pytest, e.g.::

    python -m benchmarks -k recovery

``--smoke`` (used by ``make check``) shrinks every scale-aware bench via
``REPRO_BENCH_SCALE`` so the whole suite doubles as a fast CI gate:
artifacts are still written, but timing-threshold assertions that only
hold at full scale are skipped by the benches themselves.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def main(argv: list[str] | None = None) -> int:
    argv = list(argv or [])
    scratch_dir: str | None = None
    if "--smoke" in argv:
        argv.remove("--smoke")
        os.environ.setdefault("REPRO_BENCH_SCALE", "0.05")
        # Smoke artifacts go to a scratch directory: the tracked
        # BENCH_*.json files record the full-scale perf trajectory and
        # must not be clobbered with smoke-scale numbers by `make check`.
        if "REPRO_BENCH_DIR" not in os.environ:
            import tempfile

            scratch_dir = tempfile.mkdtemp(prefix="repro-bench-smoke-")
            os.environ["REPRO_BENCH_DIR"] = scratch_dir
    try:
        return _run(argv)
    finally:
        if scratch_dir is not None:
            import shutil

            del os.environ["REPRO_BENCH_DIR"]
            shutil.rmtree(scratch_dir, ignore_errors=True)


def _run(argv: list[str]) -> int:
    bench_files = sorted(BENCH_DIR.glob("bench_*.py"))
    artifact_dir = Path(os.environ.get("REPRO_BENCH_DIR", REPO_ROOT))
    summary: dict[str, dict] = {}
    worst = 0
    for bench in bench_files:
        start = time.perf_counter()
        code = pytest.main([str(bench), "-q", "-s", *argv])
        summary[bench.name] = {
            "exit_code": int(code),
            "seconds": round(time.perf_counter() - start, 2),
        }
        worst = max(worst, int(code))
    path = artifact_dir / "BENCH_run_summary.json"
    path.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\nbench summary written to {path}")
    return worst


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
