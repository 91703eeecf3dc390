"""Per-workload entry point: one workload, one process.

    python3 benchmarks/ledger/run.py --workload standing7 --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that produces the per-layer metrics. Every metric is
printed by name with its unit, and the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. The
exit code is non-zero when the system under test is missing or any
operation failed.

``--detail FILE`` additionally writes the full record (quartiles,
sample counts, lateness, wall time); ``--spans FILE`` (traced runs)
writes the span file. ``python -m benchmarks.ledger`` uses both.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent


def _bootstrap_path() -> None:
    """Make ``repro`` (src layout, never installed) and this package
    importable when run as a plain script. The script's own directory
    comes off ``sys.path``: it holds a ``trace.py`` that must not shadow
    the standard library's."""
    sys.path[:] = [p for p in sys.path if p and Path(p).resolve() != LEDGER_DIR]
    for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", type=Path, default=None)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"ledger: the system under test is missing ({REPO_ROOT / 'src' / 'repro'})",
            file=sys.stderr,
        )
        return 2
    _bootstrap_path()
    from benchmarks.ledger.workloads import BY_NAME

    workload = BY_NAME.get(args.workload)
    if workload is None:
        print(
            f"ledger: unknown workload {args.workload!r}; "
            f"expected one of {', '.join(BY_NAME)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("ledger: --seconds must be positive", file=sys.stderr)
        return 2

    if args.trace:
        from benchmarks.ledger.trace import trace_workload

        record = trace_workload(workload, args.seed, args.seconds, spans_path=args.spans)
    else:
        from benchmarks.ledger.harness import measure

        record = measure(workload, args.seed, args.seconds)

    if args.detail is not None:
        args.detail.write_text(json.dumps(record, indent=2) + "\n")
    for error in record["errors"]:
        print(error, file=sys.stderr)
    print(f"workload {record['workload']} seed {record['seed']} "
          f"wall {record['wall_s']:.2f}s ops {record['ops']} failed {record['failed_ops']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in record.get("info", {}).items():
        print(f"  ({name} {value:.6g})")
    print(
        json.dumps(
            {
                "correct": record["failed_ops"] == 0,
                "attempted": record["ops"],
                "failed": record["failed_ops"],
                "metrics": {
                    name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in record["metrics"].items()
                },
            }
        )
    )
    return 0 if record["failed_ops"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
