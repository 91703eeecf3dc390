"""Alternating pairs of one ledger workload: a base revision against the
working tree — the check every performance claim cites.

    python -m benchmarks.pairs --base REV --workload W [--pairs 10] [--seconds 25]

(``make ledger-pairs BASE=REV WORKLOAD=W PAIRS=10 SECONDS=25``.) REV's
committed files are extracted once into ``ledger-out/.base-<sha>/`` with
``git archive`` — the same committed-files checkout a gate runs on, no
worktree metadata left behind, and a dot directory, which pytest does
not collect from, so the base's tests never join this tree's. Pair *i*
runs ``benchmarks/ledger/run.py --workload W --seed i --seconds S
--trace 0`` in both trees, the base first on odd pairs and second on
even ones, so drift on the host lands on both sides. Each pair's end-to-end metrics
are printed as they finish; the summary gives, per metric, the base's
median and quartiles, the working tree's median, and "ahead k/N": the
pairs in which the working tree was better by ``BENCHMARK.json``'s
direction. A claim needs k ≥ 9 of 10 and a median difference larger
than the base's interquartile distance; ``claim holds`` marks both.
A median worse than the base's by more than the metric's
``BENCHMARK.json`` bound is marked ``REGRESSION``; a larger share of
failed operations (failed over attempted steps, summed over the pairs)
on the working tree than on the base is marked ``FAILED-OPS``; and a
run reporting ``correct: false`` stops the pairs and refuses the
comparison. Any of the three makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
from io import BytesIO
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RUN = Path("benchmarks") / "ledger" / "run.py"


def extract(rev: str) -> Path:
    """``rev``'s committed files under ``ledger-out/.base-<sha>/``."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=REPO_ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    tree = REPO_ROOT / "ledger-out" / f".base-{sha[:12]}"
    if not (tree / RUN).is_file():
        archive = subprocess.run(
            ["git", "archive", "--format=tar", sha],
            cwd=REPO_ROOT, check=True, capture_output=True,
        ).stdout
        tree.mkdir(parents=True, exist_ok=True)
        with tarfile.open(fileobj=BytesIO(archive)) as tar:
            tar.extractall(tree)
    return tree


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One gate-shaped run; its last stdout line is the result JSON."""
    done = subprocess.run(
        [sys.executable, str(tree / RUN), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{tree}: no result (exit {done.returncode})\n{done.stderr}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        **{name: metric["value"] for name, metric in result["metrics"].items()},
    }


def failed_share(runs: list[dict]) -> float:
    """Failed operations over attempted ones, summed across ``runs``."""
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def summarize(metrics: list[dict], base: list[dict], change: list[dict]) -> int:
    """Print the per-metric summary of the pairs so far; returns the
    exit status. A run that reported ``correct: false`` is refused — its
    numbers measure something other than the workload — and so is the
    whole comparison (1). A metric whose change median is worse than the
    base median by more than its ``bound`` (a fraction) is marked
    ``REGRESSION`` (1), and so is a larger failed-ops share on the
    change than on the base, as ``FAILED-OPS`` (1)."""
    refused = [
        f"{side} run of pair {pair}"
        for side, runs in (("base", base), ("change", change))
        for pair, run in enumerate(runs, 1)
        if not run["correct"]
    ]
    if refused:
        print(f"\nREFUSED: correct: false from the {', '.join(refused)}")
        return 1
    status = 0
    print(f"\n{'metric':<14} {'base median [q1, q3]':>32} {'change':>12} {'delta':>8}  ahead")
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        a = [run[name] for run in base]
        b = [run[name] for run in change]
        ahead = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0],) * 3
        median_a, median_b = statistics.median(a), statistics.median(b)
        gain = (median_b - median_a) if higher else (median_a - median_b)
        holds = ahead >= 0.9 * len(a) and gain > q3 - q1
        regressed = median_a != 0 and -gain / abs(median_a) > metric["bound"]
        status |= regressed
        print(
            f"{name:<14} {median_a:>12.5g} [{q1:.5g}, {q3:.5g}] {median_b:>12.5g} "
            f"{(median_b / median_a - 1) * 100 if median_a else 0.0:>+7.1f}%  "
            f"ahead {ahead}/{len(a)}{'  claim holds' if holds else ''}"
            f"{'  REGRESSION' if regressed else ''}"
        )
    shares = failed_share(base), failed_share(change)
    worse = shares[1] > shares[0]
    print(
        f"failed ops: base {shares[0]:.2%}, change {shares[1]:.2%}"
        f"{'  FAILED-OPS' if worse else ''}"
    )
    return status | worse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)

    metrics = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base_tree = extract(args.base)
    print(f"base {args.base} in {base_tree.relative_to(REPO_ROOT)}; change = working tree")
    base: list[dict] = []
    change: list[dict] = []
    for seed in range(1, args.pairs + 1):
        order = [(base_tree, base), (REPO_ROOT, change)]
        for tree, out in order if seed % 2 else order[::-1]:
            out.append(run(tree, args.workload, seed, args.seconds))
        print(f"pair {seed}: " + "  ".join(
            f"{m['name']} {base[-1][m['name']]:.4g}→{change[-1][m['name']]:.4g}"
            for m in metrics
        ), flush=True)
        if not (base[-1]["correct"] and change[-1]["correct"]):
            break  # refused: no later pair can make the comparison valid
    return summarize(metrics, base, change)


if __name__ == "__main__":
    raise SystemExit(main())
