"""Whole-ledger front end.

    python -m benchmarks.ledger run   --out FILE [--seed N] [--scale S]
                                      [--workloads a,b] [--repeat N]
    python -m benchmarks.ledger trace --out FILE [--seed N] [--scale S]
                                      [--workloads a,b] [--spans-dir DIR]
    python -m benchmarks.ledger compare A.json B.json

``run`` and ``trace`` start one child process per workload
(``benchmarks/ledger/run.py``), one at a time, and write one result file
with the run envelope; ``compare`` applies the bounds of
``BENCHMARK.json`` to two ``run`` files. They cover all seven workloads
of ``workloads.py``; the gate's share of them is the ``workloads`` list
of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.ledger.harness import DEFAULT_SEED

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent


def load_contract() -> dict:
    """``BENCHMARK.json``: the names, units, directions and bounds."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def workload_names() -> list[str]:
    """Every workload of the ledger, in ``workloads.py`` order (which
    imports ``repro``: ``src/`` goes on the path as ``run.py`` puts it)."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from benchmarks.ledger.workloads import WORKLOADS

    return [workload.name for workload in WORKLOADS]


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _child(workload: str, seed: int, seconds: float, trace: bool, spans: Path | None) -> dict | None:
    """One workload in its own process; its stdout passes through.
    Returns the detail record, or None when the child produced none."""
    with tempfile.TemporaryDirectory(prefix="ledger-") as scratch:
        detail = Path(scratch) / "detail.json"
        command = [
            sys.executable, str(LEDGER_DIR / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
            "--detail", str(detail),
        ]
        if spans is not None:
            command += ["--spans", str(spans)]
        subprocess.run(command, cwd=REPO_ROOT)
        return json.loads(detail.read_text()) if detail.is_file() else None


def _merge(records: list[dict]) -> dict:
    """One workload's entry from its run records. A single run keeps its
    own within-run quartiles; repeated runs report the quartiles of the
    per-run values — the run-to-run noise band."""
    metrics = {}
    for name, first in records[0]["metrics"].items():
        runs = [record["metrics"][name]["value"] for record in records]
        if len(runs) == 1:
            entry = {key: first[key] for key in ("unit", "value", "median", "q1", "q3", "n") if key in first}
        else:
            q1, median, q3 = statistics.quantiles(runs, n=4)
            entry = {"unit": first["unit"], "value": median, "median": median, "q1": q1, "q3": q3, "n": len(runs)}
        entry["runs"] = runs
        metrics[name] = entry
    return {
        "wall_s": [record["wall_s"] for record in records],
        "ops": sum(record["ops"] for record in records),
        "failed_ops": sum(record["failed_ops"] for record in records),
        "metrics": metrics,
        "info": records[-1].get("info", {}),
        "unresolved": records[-1].get("unresolved", []),
    }


def run_ledger(args: argparse.Namespace, trace: bool) -> int:
    contract = load_contract()
    names = workload_names()
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = sorted(set(wanted) - set(names))
        if unknown:
            print(f"ledger: unknown workloads {unknown}; expected {names}", file=sys.stderr)
            return 2
        names = wanted
    seconds = contract["run_seconds"] * args.scale
    envelope = {
        "ledger": "trace" if trace else "run",
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": seconds,
        "repeat": args.repeat,
        "workloads": {},
    }
    spans_dir = getattr(args, "spans_dir", None)
    if spans_dir is not None:
        spans_dir.mkdir(parents=True, exist_ok=True)
    failed = False
    for name in names:
        records = []
        for _ in range(args.repeat):
            spans = spans_dir / f"spans-{name}.json" if spans_dir is not None else None
            record = _child(name, args.seed, seconds, trace, spans)
            if record is None:
                print(f"ledger: workload {name} produced no result", file=sys.stderr)
                failed = True
                continue
            records.append(record)
        if records:
            envelope["workloads"][name] = _merge(records)
            envelope["rounds"] = records[-1].get("rounds")
            failed = failed or envelope["workloads"][name]["failed_ops"] > 0
    args.out.write_text(json.dumps(envelope, indent=2) + "\n")
    print(f"ledger: wrote {args.out}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "trace"):
        sub = commands.add_parser(name)
        sub.add_argument("--out", type=Path, required=True)
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sub.add_argument("--scale", type=float, default=1.0)
        sub.add_argument("--workloads", default="")
        sub.add_argument("--repeat", type=int, default=1)
        if name == "trace":
            sub.add_argument("--spans-dir", type=Path, default=None)
    sub = commands.add_parser("compare")
    sub.add_argument("base", type=Path)
    sub.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    if args.command == "compare":
        from benchmarks.ledger.compare import compare_files

        return compare_files(args.base, args.change, load_contract())
    if args.command == "trace" and args.spans_dir is None:
        args.spans_dir = args.out.parent
    return run_ledger(args, trace=args.command == "trace")


if __name__ == "__main__":
    raise SystemExit(main())
