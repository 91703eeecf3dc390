"""Alternating pairs of one ledger workload: a base revision against the
working tree — the check every performance claim cites.

    python -m benchmarks.pairs --base REV --workload W [--pairs 10] [--seconds 25]
                               [--first-seed 1]

(``make ledger-pairs BASE=REV WORKLOAD=W PAIRS=10 SECONDS=25 FIRST_SEED=1``.)
``--workload all`` runs every ``BENCHMARK.json`` workload in turn, ends
with one summary row per workload and exits with the OR of their
statuses. ``--first-seed N`` runs the pairs on seeds N, N+1, ... — seeds
a change was not written against, for a held-out repeat. REV's
committed files are extracted once into ``ledger-out/.base-<sha>/`` with
``git archive`` — the same committed-files checkout a gate runs on, no
worktree metadata left behind, and a dot directory, which pytest does
not collect from, so the base's tests never join this tree's. Pair *i*
runs ``benchmarks/ledger/run.py --workload W --seed N+i-1 --seconds S
--trace 0`` in both trees, the base first on odd pairs and second on
even ones, so drift on the host lands on both sides. Each pair's end-to-end metrics
are printed as they finish; the summary gives, per metric, the base's
median and quartiles, the working tree's median, and "ahead k/N": the
pairs in which the working tree was better by ``BENCHMARK.json``'s
direction, and the per-pair ratio (the working tree's value over the
base's on the same seed) as its median and quartiles: the base's
quartiles mix seed-to-seed differences in the input with noise, the
ratio's spread is the change's own. A claim needs k ≥ 9 of 10 and a
median difference larger than the base's interquartile distance;
``claim holds`` marks both.
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


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values``; all three the value of one."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return q1, statistics.median(values), q3


def verdict(metric: dict, base: list[dict], change: list[dict]) -> dict:
    """One metric over the pairs: the base's median and quartiles, the
    change's median, the per-pair ratio's quartiles (change over base on
    one seed; None when every base value is 0), the pairs the change was
    ahead in, whether a claim holds and whether the change regressed
    beyond the metric's bound."""
    name, higher = metric["name"], metric["better"] == "higher"
    a = [run[name] for run in base]
    b = [run[name] for run in change]
    ahead = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
    q1, median_a, q3 = quartiles(a)
    median_b = statistics.median(b)
    ratios = [y / x for x, y in zip(a, b) if x]
    gain = (median_b - median_a) if higher else (median_a - median_b)
    return {
        "median_a": median_a, "q1": q1, "q3": q3, "median_b": median_b,
        "delta_pct": (median_b / median_a - 1) * 100 if median_a else 0.0,
        "ratio": quartiles(ratios) if ratios else None,
        "ahead": ahead, "pairs": len(a),
        "holds": ahead >= 0.9 * len(a) and gain > q3 - q1,
        "regressed": median_a != 0 and -gain / abs(median_a) > metric["bound"],
    }


def refusals(base: list[dict], change: list[dict]) -> list[str]:
    """The runs that reported ``correct: false``."""
    return [
        f"{side} run of pair {pair}"
        for side, runs in (("base", base), ("change", change))
        for pair, run in enumerate(runs, 1)
        if not run["correct"]
    ]


def summarize(metrics: list[dict], base: list[dict], change: list[dict]) -> tuple[int, str]:
    """Print the per-metric summary of the pairs so far; returns the
    exit status and a one-line digest for ``--workload all`` (each
    metric's median delta and pairs ahead, each one's per-pair ratio,
    then the status). A run that
    reported ``correct: false`` is refused — its numbers measure
    something other than the workload — and so is the whole comparison
    (1). A metric whose change median is worse than the base median by
    more than its ``bound`` (a fraction) is marked ``REGRESSION`` (1),
    and so is a larger failed-ops share on the change than on the base,
    as ``FAILED-OPS`` (1)."""
    refused = refusals(base, change)
    if refused:
        print(f"\nREFUSED: correct: false from the {', '.join(refused)}")
        return 1, "REFUSED"
    status, cells, ratios = 0, [], []
    print(
        f"\n{'metric':<14} {'base median [q1, q3]':>32} {'change':>12} {'delta':>8}  "
        f"{'pair ratio [q1, q3]':<25} ahead"
    )
    for metric in metrics:
        v = verdict(metric, base, change)
        status |= v["regressed"]
        ratio = "n/a" if v["ratio"] is None else "{1:.3f} [{0:.3f}, {2:.3f}]".format(*v["ratio"])
        print(
            f"{metric['name']:<14} {v['median_a']:>12.5g} [{v['q1']:.5g}, {v['q3']:.5g}] "
            f"{v['median_b']:>12.5g} {v['delta_pct']:>+7.1f}%  {ratio:<25} "
            f"ahead {v['ahead']}/{v['pairs']}{'  claim holds' if v['holds'] else ''}"
            f"{'  REGRESSION' if v['regressed'] else ''}"
        )
        flag = "  claim holds" if v["holds"] else "  REGRESSION" if v["regressed"] else ""
        cells.append(f"{metric['name']} {v['delta_pct']:+.1f}% {v['ahead']}/{v['pairs']}{flag}")
        ratios.append(f"{metric['name']} {ratio}")
    cells.append("pair ratios " + ", ".join(ratios))
    shares = failed_share(base), failed_share(change)
    worse = shares[1] > shares[0]
    print(
        f"failed ops: base {shares[0]:.2%}, change {shares[1]:.2%}"
        f"{'  FAILED-OPS' if worse else ''}"
    )
    status |= worse
    return status, "; ".join(cells) + f"  [{'FAIL' if status else 'ok'}]"


def pairs(
    base_tree: Path, workload: str, seeds: range, seconds: float, metrics: list[dict]
) -> tuple[list[dict], list[dict]]:
    """Alternating pairs on ``seeds``: the base first on odd pairs."""
    base: list[dict] = []
    change: list[dict] = []
    for pair, seed in enumerate(seeds, 1):
        order = [(base_tree, base), (REPO_ROOT, change)]
        for tree, out in order if pair % 2 else order[::-1]:
            out.append(run(tree, workload, seed, seconds))
        print(f"pair {pair} (seed {seed}): " + "  ".join(
            f"{m['name']} {base[-1][m['name']]:.4g}→{change[-1][m['name']]:.4g}"
            for m in metrics
        ), flush=True)
        if not (base[-1]["correct"] and change[-1]["correct"]):
            break  # refused: no later pair can make the comparison valid
    return base, change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    workloads = (
        [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    )
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    base_tree = extract(args.base)
    print(f"base {args.base} in {base_tree.relative_to(REPO_ROOT)}; change = working tree")
    status, rows = 0, []
    for workload in workloads:
        print(f"\n== {workload}, seeds {seeds.start}..{seeds.stop - 1}")
        base, change = pairs(base_tree, workload, seeds, args.seconds, metrics)
        outcome, digest = summarize(metrics, base, change)
        status |= outcome
        rows.append(f"{workload:<12} {digest}")
    if len(workloads) > 1:
        print("\n" + "\n".join(rows))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
