"""The run shape shared by every workload: set-up cycles, one warm-up
round, measured rounds (closed-loop phase, then open-loop paced phase),
and the untimed reference run every round's results are checked against.

One call of :func:`measure` is one workload in one process, so heap
state and ``ru_maxrss`` are per workload. All timing is wall clock
(``perf_counter``); the cyclic GC is off inside a round — with millions
of live result rows a generation-2 pass is a multi-millisecond stall
whose timing depends on heap size, not on the engine — and runs between
rounds instead.

Every round replays the *same* steps on a fresh session, and every step
is timed on its own. The gated value of a timing is taken over each
step's **floor** — its second-fastest replay across the rounds (see
:func:`floors`) — because the host this runs on flips, for a second to
twenty at a time, into a state in which the same step takes ~1.5x as
long: interference only ever adds time and hits different steps in
different rounds, while what a step costs (a window close, a checkpoint
barrier, a queue behind either) is there in every replay. A longer run
is more rounds, not longer rounds: what steadies a floor is the number
of replays and the stretch of time they sample.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable

#: Nominal ``--seconds`` at which the workload sizes in ``workloads.py``
#: apply unscaled.
NOMINAL_SECONDS = 10.0
#: Default ``--seed`` of ``python -m benchmarks.ledger run|trace``
#: (``BENCHMARK.json`` has a fixed set of keys, so it lives here).
DEFAULT_SEED = 20090629
#: Set-up cycles run in blocks, one before the warm-up and one before
#: each measured round, so they sample the whole run and not its first
#: half second. A block is at least MIN cycles, then more while its
#: share of the time budget lasts (cheap set-ups get more samples).
MIN_SETUP_CYCLES = 2  # per block
MAX_SETUP_CYCLES = 10  # per block
SETUP_BUDGET_S = 0.6  # per ten seconds of run
#: A paced step is *late* when the generator itself started it more than
#: this long after it could have (its due time, or the return of the
#: previous step if that came later). A step that had to wait for the
#: previous one is *queued*, not late: that wait is the engine's, and
#: the latency sample charges it to the engine.
LATE_TOLERANCE_S = 0.0002
#: ``emit_p99_ms`` is the 99th percentile over the paced steps' floors
#: (113-146 steps a round; 33 on ``tenants1k``): what the round's one or
#: two dearest steps - a window close, a checkpoint barrier - cost. A
#: p99 wants ten samples beyond it: ``p99_supported`` says whether the
#: rounds together pooled this many latency samples.
P99_MIN_SAMPLES = 1000

_values = attrgetter("values")
_MASK = (1 << 64) - 1


def percentile(ordered: list[float], p: float) -> float:
    """Linear-interpolated percentile ``p`` (0..100) of a sorted list."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def trimmed(samples: list) -> list:
    """One round's samples without its first tenth (the steps that
    still see cold caches and an empty pipeline), in step order."""
    return samples[len(samples) // 10:]


def floors(per_round: list[list]) -> list[float]:
    """Each step's second-fastest replay: ``per_round[r][i]`` is what
    step ``i`` took in round ``r`` (``None`` where it produced no
    sample). A step no round sampled has no floor.

    Not the fastest: about one replay in twenty runs a quarter *faster*
    than the host's normal speed, and a minimum over thirty replays
    follows those (run-to-run spread of ``rows_per_s`` on ``xchg_pool4``:
    11.6% over the fastest replay, 5.2% over the second-fastest)."""
    out = []
    for replays in zip(*per_round):
        seen = sorted(sample for sample in replays if sample is not None)
        if seen:
            out.append(seen[min(1, len(seen) - 1)])
    return out


def best_decile(samples: list[float], better: str) -> float:
    """The decile on the good side of independent repetitions (set-up
    cycles): the first decile of a time, the ninth of a rate."""
    if len(samples) < 2:
        return samples[0]
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    return deciles[-1] if better == "higher" else deciles[0]


def summary(samples: list[float], unit: str, better: str, value: float) -> dict:
    """The shape every metric takes: ``value`` — the number the gate
    compares, a floor statistic (see the module docstring) — beside the
    median, quartiles and count of the per-round (or per-cycle) samples,
    which say how disturbed the run was."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = q3 = samples[0]
    return {
        "unit": unit,
        "value": value,
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "n": len(samples),
    }


def digest(cursor) -> tuple[int, int]:
    """Order-insensitive digest of a cursor's result rows: the count and
    the 64-bit sum of the value-tuple hashes. ``hash`` is salted per
    process, so digests compare only within one process — which is
    where the reference run lives."""
    rows = cursor.results()
    return len(rows), sum(map(hash, map(_values, rows))) & _MASK


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    reaped child (the pool's worker processes), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


@dataclass
class RoundResult:
    closed_s: float  #: seconds of the whole closed-loop phase
    closed_steps: list[float]  #: seconds of each closed-loop step
    busy_s: float  #: seconds inside the paced steps (the waits excluded)
    #: seconds from a paced step's due time to the last result it
    #: produced, in step order; ``None`` where the step emitted nothing
    latencies: list
    lags: list[float]  #: seconds each paced step started after its due time
    late_steps: int  #: paced steps the generator itself started late
    queued_steps: int  #: paced steps that waited for the previous step
    digests: list[tuple[int, int]]
    failed_steps: int
    errors: list[str] = field(default_factory=list)


def run_round(
    workload,
    feeds,
    closed: list[tuple[int, int]],
    paced: list[tuple[int, int]],
    instrument: Callable | None = None,
    on_close: Callable | None = None,
) -> RoundResult:
    """One fresh session: the closed-loop phase (no subscribers), then
    the paced phase on the same session with every cursor subscribed.

    ``instrument`` (the tracer's step wrapper) replaces ``deliver``;
    ``on_close(deployment)`` runs after the digests are taken and before
    the session closes, so a tracer can read end-of-round counts.
    """
    deployment = workload.open(feeds)
    deliver = deployment.deliver
    if instrument is not None:
        deliver = instrument(deliver)
    clock = time.perf_counter
    sleep = time.sleep
    failed = 0
    errors: list[str] = []
    closed_steps: list[float] = []
    latencies: list = []
    lags: list[float] = []
    late = queued = 0
    busy_s = 0.0
    gc.collect()
    gc.disable()
    try:
        start = began = clock()
        for lo, hi in closed:
            try:
                deliver(lo, hi)
            except Exception:
                failed += 1
                errors.append(traceback.format_exc(limit=6))
            ended = clock()
            closed_steps.append(ended - began)
            began = ended
        closed_s = began - start

        # The callback only stamps the clock: the latency of a step is
        # the *last* sink callback it triggered minus its due time.
        last = [0.0]

        def stamp(_row) -> None:
            last[0] = clock()

        for cursor in deployment.cursors:
            cursor.subscribe(stamp)
        interval = workload.phases.step / workload.phases.rate
        origin = free_at = clock() + interval
        for index, (lo, hi) in enumerate(paced):
            due = origin + index * interval
            if free_at > due:
                queued += 1
            while True:
                remaining = due - clock()
                if remaining <= 0.0:
                    break
                if remaining > 0.002:  # sleep most of it, spin the last ms
                    sleep(remaining - 0.001)
            started = clock()
            lags.append(started - due)
            if started - max(due, free_at) > LATE_TOLERANCE_S:
                late += 1
            last[0] = 0.0
            try:
                deliver(lo, hi)
            except Exception:
                failed += 1
                errors.append(traceback.format_exc(limit=6))
            free_at = clock()
            busy_s += free_at - started
            latencies.append(last[0] - due if last[0] else None)
    finally:
        gc.enable()
    try:
        deployment.finish()
        digests = [digest(cursor) for cursor in deployment.cursors]
        if on_close is not None:
            on_close(deployment)
    finally:
        deployment.close()
    return RoundResult(
        closed_s, closed_steps, busy_s, latencies, lags, late, queued, digests,
        failed, errors,
    )


def reference_run(workload, feeds, steps: list[tuple[int, int]], read: Callable):
    """The same input, same punctuation cadence, through the simplest
    configuration (see each workload's ``open(reference=True)``);
    returns ``read(deployment)`` taken before the session closes."""
    deployment = workload.open(feeds, reference=True)
    try:
        for lo, hi in steps:
            deployment.deliver(lo, hi)
        deployment.finish()
        return read(deployment)
    finally:
        deployment.close()


def reference_digests(workload, feeds, steps: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """One reference digest per measured cursor. The reference admits
    each distinct statement once — tenants sharing a text must all match
    its digest."""
    by_text = reference_run(
        workload, feeds, steps,
        lambda deployment: {
            sql: digest(cursor)
            for sql, cursor in zip(workload.statements, deployment.cursors)
        },
    )
    return [by_text[sql] for sql in workload.queries]


def preflight(workload, feeds) -> None:
    """Once per process, outside every timed region: fail loudly when
    the deployment would run another way than the workload claims."""
    deployment = workload.open(feeds)
    try:
        workload.check(deployment.session)
    finally:
        deployment.close()


def warm_up(workload, feeds, closed, paced) -> None:
    """Half a round of the measured configuration (the first
    in-process run reads ~30% slow); its results are dropped."""
    run_round(
        workload, feeds,
        closed[: max(1, len(closed) // 2)], paced[: max(2, len(paced) // 2)],
    )


def setup_cycles(workload, feeds, first_step: tuple[int, int], minimum: int, budget_s: float):
    """Repeated open -> admit -> first step -> close: at least
    ``minimum`` cycles, then more while ``budget_s`` lasts; returns the
    per-cycle set-up seconds and admission seconds."""
    clock = time.perf_counter
    setups: list[float] = []
    admits: list[float] = []
    began = clock()
    while len(setups) < minimum or (
        clock() - began < budget_s and len(setups) < MAX_SETUP_CYCLES
    ):
        start = clock()
        deployment = workload.open(feeds)
        try:
            deployment.deliver(*first_step)
            setups.append(clock() - start)
            admits.append(deployment.admit_s)
        finally:
            deployment.close()
    return setups, admits


def lateness(rounds: list[RoundResult]) -> dict:
    """How late the paced generator ran, over every paced step."""
    lags = [lag for result in rounds for lag in result.lags]
    return {
        "late_steps_pct": 100.0 * sum(r.late_steps for r in rounds) / len(lags),
        "queued_steps_pct": 100.0 * sum(r.queued_steps for r in rounds) / len(lags),
        "max_lag_ms": max(lags) * 1000.0,
    }


def measure(workload, seed: int, seconds: float) -> dict:
    """Run one workload end to end; returns its result record.

    ``seconds`` above the nominal ten buys more rounds of the nominal
    size; below it, the nominal rounds shrink (the self-test's scale)."""
    began = time.perf_counter()
    scale = seconds / NOMINAL_SECONDS
    rounds = max(2, round(workload.phases.rounds * scale))
    closed, paced = workload.phases.steps(min(scale, 1.0))
    units = paced[-1][1]
    feeds = workload.build_input(seed, units)
    # The input outlives every round: keep it out of the collector's way.
    gc.collect()
    gc.freeze()
    try:
        setups: list[float] = []
        admits: list[float] = []

        def setup_block() -> None:
            minimum = MIN_SETUP_CYCLES if scale >= 0.5 else 1
            block = setup_cycles(
                workload, feeds, paced[0], minimum, SETUP_BUDGET_S * scale / (rounds + 1)
            )
            setups.extend(block[0])
            admits.extend(block[1])

        preflight(workload, feeds)
        setup_block()
        warm_up(workload, feeds, closed, paced)
        results = []
        for _ in range(rounds):
            setup_block()
            results.append(run_round(workload, feeds, closed, paced))
        # Sampled before the reference run, which holds private
        # per-query pipelines and would otherwise set the high-water mark.
        rss = peak_rss_mb()
        expected = reference_digests(workload, feeds, closed + paced)
    finally:
        gc.unfreeze()

    mismatched = sum(
        1
        for result in results
        for got, want in zip(result.digests, expected)
        if got != want
    )
    failed_steps = sum(result.failed_steps for result in results)
    closed_rows = closed[-1][1] * workload.rows_per_unit
    rates = [closed_rows / result.closed_s for result in results]
    floor_rate = closed_rows / sum(floors([r.closed_steps for r in results]))

    # Latency statistics run over steps: per round for the noise band,
    # over the steps' floors for the gated value.
    in_ms = lambda samples: sorted(s * 1000.0 for s in samples if s is not None)  # noqa: E731
    per_round = [in_ms(trimmed(r.latencies)) for r in results]
    per_round = [samples for samples in per_round if samples]
    if not per_round:
        raise RuntimeError(f"{workload.name}: no paced step emitted a result")
    latency_floors = in_ms(floors([trimmed(r.latencies) for r in results]))
    latency_samples = sum(len(samples) for samples in per_round)

    def latency(statistic) -> dict:
        out = summary(
            [statistic(samples) for samples in per_round], "ms", "lower",
            statistic(latency_floors),
        )
        out["n"] = latency_samples
        return out

    queries = len(workload.queries)
    admit_rates = [queries / s for s in admits]
    metrics = {
        "rows_per_s": summary(rates, "1/s", "higher", floor_rate),
        "emit_p50_ms": latency(lambda samples: percentile(samples, 50)),
        "emit_p99_ms": latency(lambda samples: percentile(samples, 99)),
        "admit_qps": summary(admit_rates, "1/s", "higher", best_decile(admit_rates, "higher")),
        "setup_s": summary(setups, "s", "lower", best_decile(setups, "lower")),
        "peak_rss_mb": summary([rss], "MB", "lower", rss),
    }
    steps_per_round = len(closed) + len(paced)
    paced_steps = len(paced) * len(results)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "rounds": len(results),
        "wall_s": time.perf_counter() - began,
        "ops": steps_per_round * len(results),
        "failed_ops": failed_steps + mismatched,
        "errors": [e for result in results for e in result.errors][:3],
        "metrics": metrics,
        "info": {
            "closed_steps": len(closed),
            "paced_steps": len(paced),
            "input_rows_per_round": units * workload.rows_per_unit,
            "results_per_round": sum(count for count, _ in expected),
            "digest_mismatches": mismatched,
            "latency_samples": latency_samples,
            "p99_supported": latency_samples >= P99_MIN_SAMPLES,
            "silent_steps_pct": 100.0
            * sum(r.latencies.count(None) for r in results) / paced_steps,
            "setup_cycles": len(setups),
            **lateness(results),
        },
    }
