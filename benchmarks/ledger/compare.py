"""Apply the bounds of ``BENCHMARK.json`` to two ``run`` result files.

One row per (workload, end-to-end metric): both values with their
quartiles, the ratio with its base, the bound, and a verdict:

* ``ok``         — the change's value is no worse than the base's by
  more than the bound;
* ``REGRESSION`` — it is worse by more than the bound, and the spread of
  both files is inside the bound;
* ``unresolved`` — the spread (quartile distance over median, of either
  file) exceeds the bound, so the pair proves nothing either way.

Run each side with ``--repeat N`` so the quartiles are run-to-run
spread; a single run carries only its within-run spread. The exit code
is non-zero on a regression or on a higher ``failed_ops / ops``.
"""

from __future__ import annotations

import json
from pathlib import Path


def spread(entry: dict) -> float:
    """Quartile distance as a share of the value."""
    return abs(entry["q3"] - entry["q1"]) / abs(entry["value"]) if entry["value"] else 0.0


def worsening(base: float, change: float, better: str) -> float:
    """Relative worsening of ``change`` against ``base`` (negative = better)."""
    if not base:
        return 0.0
    delta = (change - base) / abs(base)
    return delta if better == "lower" else -delta


def judge(base: dict, change: dict, better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, worsening, spread)`` for one metric of one workload."""
    worse = worsening(base["value"], change["value"], better)
    noise = max(spread(base), spread(change))
    if noise > bound:
        return "unresolved", worse, noise
    return ("REGRESSION" if worse > bound else "ok"), worse, noise


def _cell(entry: dict) -> str:
    return f"{entry['value']:.5g} [{entry['q1']:.5g}..{entry['q3']:.5g}] n={entry['n']}"


def compare(base: dict, change: dict, contract: dict) -> tuple[list[list[str]], bool]:
    """Rows of the comparison table and whether anything regressed."""
    rows: list[list[str]] = []
    regressed = False
    # Every workload both files ran: the ledger's seven, not only the
    # share of them the contract lists for the gate.
    for workload, a in base["workloads"].items():
        b = change["workloads"].get(workload)
        if b is None:
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            if name not in a["metrics"] or name not in b["metrics"]:
                continue
            verdict, worse, noise = judge(
                a["metrics"][name], b["metrics"][name], metric["better"], metric["bound"]
            )
            regressed = regressed or verdict == "REGRESSION"
            ratio = (
                b["metrics"][name]["value"] / a["metrics"][name]["value"]
                if a["metrics"][name]["value"] else float("nan")
            )
            rows.append([
                workload, name, metric["unit"],
                _cell(a["metrics"][name]), _cell(b["metrics"][name]),
                f"{ratio:.3f}x of base", f"{worse * 100:+.1f}% worse",
                f"spread {noise * 100:.1f}%", f"bound {metric['bound'] * 100:.0f}%", verdict,
            ])
        fail_a = a["failed_ops"] / a["ops"] if a["ops"] else 0.0
        fail_b = b["failed_ops"] / b["ops"] if b["ops"] else 0.0
        if fail_b > fail_a:
            regressed = True
            rows.append([
                workload, "failed_ops/ops", "ratio",
                f"{fail_a:.5g}", f"{fail_b:.5g}", "", "", "", "", "REGRESSION",
            ])
    return rows, regressed


def compare_files(base_path: Path, change_path: Path, contract: dict) -> int:
    base = json.loads(base_path.read_text())
    change = json.loads(change_path.read_text())
    rows, regressed = compare(base, change, contract)
    header = [
        "workload", "metric", "unit", f"base ({base.get('git_sha', '?')[:10]})",
        f"change ({change.get('git_sha', '?')[:10]})", "ratio", "worsening",
        "spread", "bound", "verdict",
    ]
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    for label, data in (("base", base), ("change", change)):
        print(
            f"{label}: seed {data.get('seed')} scale {data.get('scale')} "
            f"repeat {data.get('repeat')} python {data.get('python')} "
            f"cpus {data.get('cpu_count')} loadavg {data.get('loadavg_start')}"
        )
    return 1 if regressed else 0
