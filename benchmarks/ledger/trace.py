"""Per-layer numbers, measured from outside the program.

Two ways, both in the separate traced run (end-to-end numbers always
come from the untraced run):

* **spans** — :class:`Tracer` installs timing wrappers on public
  callables at each layer boundary (the :data:`TARGETS` table) before the
  session is built and removes them after. A span has a name, start,
  end, parent and step id; its **self time** is its duration minus the
  part covered by child spans. Complete spans are kept for the first
  :data:`KEEP_STEPS` steps, running aggregates (count, total, self,
  rows) for all — in memory, written when the run ends.
* **direct calls** — the admission pipeline is timed stage by stage on
  the workload's own statements, and a few layer primitives
  (``stable_hash``, ``partition_safe``, dict-row coercion) on the
  workload's own data.

Counts come from ``session.stats()``, ``engine.stats()``, the
checkpointer, the network and the operators a compile returned.

Targets are resolved by dotted name at install time. A target a later
refactor removed is listed under ``unresolved`` and its metric reads 0 —
never a crash, because later changes cannot edit this directory. Spans
*inside* the program, and inside worker processes, are a later issue.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import pickle
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from benchmarks.ledger import gen, harness

KEEP_STEPS = 200
#: ...and at most this many spans: a tenants1k step alone is ~1000 sink spans.
KEEP_SPANS = 100_000
STEP_SPAN = "harness.step"
#: Repetitions of each direct call; the median is reported.
DIRECT_REPS = 5


def _rows_arg(index: int) -> Callable[[tuple], int]:
    """Row count of one call: the length of positional argument ``index``."""
    return lambda args: len(args[index]) if len(args) > index else 0


def _one(_args: tuple) -> int:
    return 1


def _tee_deliveries(args: tuple) -> int:
    return len(args[1]) * len(args[0].branches) if len(args) > 1 else 0


@dataclass(frozen=True)
class Target:
    """One wrapped callable: where it lives and what its span is called."""

    path: str
    span: str
    rows: Callable[[tuple], int] | None = None
    #: also time the calls during which this attribute of ``self`` changed
    #: (``on_punctuation`` *firings*: the calls that emitted rows)
    fired_attr: str | None = None
    #: collect the operators of the ``CompiledPlan`` the call returns
    harvest: bool = False


_OPS = "repro.stream.operators."
#: The layer boundaries. Per-row paths are wrapped only at the façade
#: and the engine (``Session.push``, ``StreamEngine.push``): a wrapper
#: around every operator's per-row ``push`` would cost as much as the
#: work it times, so on row-push workloads the operator chains read as
#: self time of ``stream.engine.push``.
TARGETS = (
    Target("repro.api.session.Session.query", "api.query"),
    Target("repro.api.session.Session.push", "api.push", _one),
    Target("repro.api.session.Session.push_many", "api.push_many", _rows_arg(2)),
    Target("repro.api.session.Session.punctuate", "api.punctuate"),
    Target("repro.stream.engine.StreamEngine.push", "stream.engine.push", _one),
    Target("repro.stream.engine.StreamEngine.push_many", "stream.engine.push_many", _rows_arg(2)),
    Target("repro.stream.engine.StreamEngine.push_exchange", "stream.engine.push_exchange", _rows_arg(2)),
    Target("repro.stream.engine.StreamEngine.punctuate", "stream.engine.punctuate"),
    Target("repro.stream.sharded.ShardedStreamEngine.push_many", "stream.sharded.push_many", _rows_arg(2)),
    Target("repro.stream.sharded.ShardedStreamEngine.punctuate", "stream.sharded.punctuate"),
    Target("repro.stream.procshard.ProcessShardEngine.__init__", "stream.procshard.start"),
    Target("repro.stream.procshard.ProcessShardEngine.push_many", "stream.procshard.push_many", _rows_arg(2)),
    Target("repro.stream.procshard.ProcessShardEngine.punctuate", "stream.procshard.punctuate"),
    Target("repro.stream.compiler.PlanCompiler.compile", "stream.compiler.compile", harvest=True),
    Target("repro.stream.multiplex.SubplanRegistry.admit", "stream.multiplex.admit"),
    Target("repro.stream.multiplex.TeeOp.push_batch", "stream.multiplex.tee", _tee_deliveries),
    # Plan sharing cuts chains at Select/Project boundaries, so under the
    # default ``share_plans=True`` a "fused" chain runs as FilterOp and
    # ProjectOp links; all three are the stateless chain.
    Target(_OPS + "FusedOp.push_batch", "stream.operators.fused", _rows_arg(1)),
    Target(_OPS + "FilterOp.push_batch", "stream.operators.filter", _rows_arg(1)),
    Target(_OPS + "ProjectOp.push_batch", "stream.operators.project", _rows_arg(1)),
    Target("repro.stream.compiler._ReschemaConsumer.push_batch", "stream.compiler.reschema", _rows_arg(1)),
    Target(_OPS + "AggregateOp.push_batch", "stream.operators.aggregate", _rows_arg(1)),
    Target(_OPS + "PartialAggregateOp.push_batch", "stream.operators.aggregate", _rows_arg(1)),
    Target(_OPS + "MergeAggregateOp.push_batch", "stream.operators.merge_aggregate", _rows_arg(1)),
    Target(_OPS + "DistinctOp.push_batch", "stream.operators.distinct", _rows_arg(1)),
    Target(_OPS + "SymmetricHashJoin._SidePort.push_batch", "stream.operators.join", _rows_arg(1)),
    Target(_OPS + "AggregateOp.on_punctuation", "stream.operators.window_close", fired_attr="rows_out"),
    Target(_OPS + "PartialAggregateOp.on_punctuation", "stream.operators.window_close", fired_attr="rows_out"),
    Target(_OPS + "MergeAggregateOp.on_punctuation", "stream.operators.window_close", fired_attr="rows_out"),
    Target("repro.data.streams.CollectingConsumer.push_batch", "api.cursor.sink", _rows_arg(1)),
    Target("repro.stream.checkpoint.CheckpointCoordinator.checkpoint", "stream.checkpoint.checkpoint"),
    Target("repro.runtime.simulation.Simulator.run_for", "runtime.simulation.run_for"),
    Target("repro.sensor.network.SensorNetwork.send", "sensor.network.send"),
    Target("repro.sensor.network.SensorNetwork.send_to_base", "sensor.network.send"),
    # The code generators, patched where the operators imported them.
    Target(_OPS + "compile_expr", "sql.compiled.compile_expr"),
    Target(_OPS + "compile_projection", "sql.compiled.compile_projection"),
    Target(_OPS + "compile_fused", "sql.compiled.compile_fused"),
    Target(_OPS + "compile_fused_batch", "sql.compiled.compile_fused_batch"),
    Target(_OPS + "compile_accumulate", "sql.compiled.compile_accumulate"),
)

#: Callables the direct measurements use, resolved the same way.
DIRECT = {
    "normalize": "repro.sql.normalize.normalize_sql",
    "parse": "repro.sql.parse",
    "analyzer": "repro.sql.Analyzer",
    "builder": "repro.plan.PlanBuilder",
    "analyze_plan": "repro.analysis.analyze_plan",
    "compiler": "repro.stream.PlanCompiler",
    "sink": "repro.data.streams.CollectingConsumer",
    "stable_hash": "repro.data.tuples.stable_hash",
    "partition_safe": "repro.stream.partition_safe",
    "build_exchange": "repro.stream.partition.build_exchange",
    "partition_plan": "repro.sensor.partition_plan",
}

#: Every per-layer metric: unit, which way is better, and the end-to-end
#: metric and workload it should move (written down before measuring).
PER_LAYER = {
    "api.query_cold_us": ("us", "lower", "admit_qps on tenants1k; setup_s on all"),
    "api.query_warm_us": ("us", "lower", "admit_qps on tenants1k"),
    "sql.normalize_us": ("us", "lower", "api.query_warm_us -> admit_qps on tenants1k"),
    "sql.parse_us": ("us", "lower", "api.query_cold_us -> admit_qps on tenants1k"),
    "sql.analyze_us": ("us", "lower", "api.query_cold_us -> admit_qps on tenants1k"),
    "plan.build_us": ("us", "lower", "api.query_cold_us -> admit_qps on tenants1k"),
    "analysis.analyze_plan_us": ("us", "lower", "api.query_cold_us -> admit_qps on tenants1k"),
    "stream.compiler.lower_us": ("us", "lower", "api.query_cold_us -> admit_qps on tenants1k"),
    "sql.compiled.codegen_us": ("us", "lower", "api.query_cold_us -> admit_qps on tenants1k"),
    "stream.multiplex.admit_us": ("us", "lower", "api.query_warm_us -> admit_qps on tenants1k"),
    "stream.multiplex.chains": ("count", "lower", "explains admit_qps, rows_per_s on tenants1k"),
    "stream.multiplex.fan_out": ("count", "higher", "explains rows_per_s on tenants1k"),
    "stream.multiplex.plan_cache_hits": ("count", "higher", "admit_qps on tenants1k"),
    "stream.multiplex.plan_cache_misses": ("count", "lower", "admit_qps on tenants1k"),
    "api.push_many.self_ns_per_row": ("ns", "lower", "rows_per_s on one_query"),
    "api.push.self_ns_per_row": ("ns", "lower", "rows_per_s on standing7_rowpush"),
    "data.coerce_ns_per_row": ("ns", "lower", "rows_per_s on standing7_rowpush, tenants1k"),
    "stream.engine.route_ns_per_row": ("ns", "lower", "rows_per_s on one_query, standing7; emit_p50_ms on one_query"),
    "stream.engine.push.self_ns_per_row": ("ns", "lower", "rows_per_s on standing7_rowpush"),
    "stream.engine.punctuate.self_us": ("us", "lower", "emit_p50_ms on one_query, tenants1k"),
    "stream.operators.fused_ns_per_row": ("ns", "lower", "rows_per_s, emit_p50_ms on one_query; minor on standing7"),
    "stream.operators.aggregate_ns_per_row": ("ns", "lower", "rows_per_s on standing7"),
    "stream.operators.distinct_ns_per_row": ("ns", "lower", "rows_per_s on standing7"),
    "stream.operators.window_close_us": ("us", "lower", "emit_p99_ms on standing7, standing7_proc2"),
    "stream.operators.join_ns_per_row": ("ns", "lower", "rows_per_s on xchg_pool4"),
    "stream.operators.rows_in": ("count", "lower", "explains the operator times"),
    "stream.operators.rows_out": ("count", "lower", "explains api.cursor.results"),
    "stream.operators.state_rows": ("count", "lower", "peak_rss_mb on standing7, xchg_pool4"),
    "stream.multiplex.tee_ns_per_delivery": ("ns", "lower", "rows_per_s, emit_p50_ms on tenants1k"),
    "stream.compiler.reschema_ns_per_row": ("ns", "lower", "rows_per_s on tenants1k, standing7; emit_p50_ms on tenants1k"),
    "api.cursor.sink_ns_per_result": ("ns", "lower", "rows_per_s on tenants1k; emit_p50_ms on all"),
    "api.cursor.results": ("count", "lower", "explains sink time and peak_rss_mb"),
    "data.tuples.stable_hash_ns": ("ns", "lower", "rows_per_s on xchg_pool4"),
    "stream.partition.analyze_us": ("us", "lower", "setup_s on xchg_pool4, standing7_proc2"),
    "stream.sharded.route_ns_per_row": ("ns", "lower", "rows_per_s on xchg_pool4"),
    "stream.sharded.barrier_us": ("us", "lower", "rows_per_s, emit_p99_ms on xchg_pool4"),
    "stream.sharded.shard_skew": ("ratio", "lower", "emit_p99_ms on xchg_pool4"),
    "stream.sharded.owner_cache_hit_ratio": ("ratio", "higher", "rows_per_s on xchg_pool4"),
    "stream.checkpoint.barrier_ms": ("ms", "lower", "emit_p99_ms on xchg_pool4"),
    "stream.checkpoint.count": ("count", "lower", "rows_per_s on xchg_pool4"),
    "stream.checkpoint.bytes": ("bytes", "lower", "stream.checkpoint.barrier_ms"),
    "stream.checkpoint.log_entries": ("count", "lower", "peak_rss_mb on xchg_pool4"),
    "stream.procshard.push_many.self_ns_per_row": ("ns", "lower", "rows_per_s on standing7_proc2"),
    "stream.procshard.punctuate_wait_us": ("us", "lower", "rows_per_s, emit_p50_ms on standing7_proc2"),
    "stream.procshard.start_s": ("s", "lower", "setup_s on standing7_proc2"),
    "stream.procshard.queue_hwm": ("count", "lower", "emit_p99_ms on standing7_proc2"),
    "stream.procshard.batches_shipped": ("count", "lower", "rows_per_s on standing7_proc2"),
    "stream.procshard.rows_shipped": ("count", "lower", "explains transport time"),
    "stream.procshard.restarts": ("count", "lower", "failed ops on standing7_proc2"),
    "sensor.optimizer.partition_plan_us": ("us", "lower", "setup_s on federated"),
    "core.federated.fragments": ("count", "higher", "explains sensor.network.tx"),
    "sensor.engine.epoch_us": ("us", "lower", "rows_per_s, emit_p50_ms on federated"),
    "sensor.sim_s_per_s": ("1/s", "higher", "rows_per_s on federated (same run, simulated time)"),
    "sensor.network.tx": ("count", "lower", "the radio budget: federated only, exact count"),
    "sensor.network.bytes": ("bytes", "lower", "the radio budget: federated only"),
    "sensor.network.tx_ship_everything": ("count", "lower", "baseline for tx_reduction"),
    "sensor.network.tx_reduction": ("ratio", "higher", "what in-network execution buys"),
    "gen.late_steps_pct": ("%", "lower", "validity of emit_*: the generator's own lateness"),
    "gen.queued_steps_pct": ("%", "lower", "validity of emit_*: steps that waited for the engine"),
    "gen.max_lag_ms": ("ms", "lower", "validity of emit_*"),
    "trace.overhead_pct": ("%", "lower", "validity of the self times"),
    "trace.self_coverage_pct": ("%", "higher", "validity of the self times"),
    "trace.unresolved": ("count", "lower", "wrap targets a refactor removed"),
}


def resolve(path: str):
    """``(owner, attribute, raw value)`` for a dotted name, or None.

    The longest importable prefix is the module; the rest is an
    attribute chain. ``raw`` is what ``vars(owner)`` holds when the
    attribute is defined there, so restoring it restores descriptors
    unchanged; an inherited attribute has no entry to restore.
    """
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            value = getattr(owner, parts[-1])
        except AttributeError:
            return None
        return owner, parts[-1], value
    return None


class Tracer:
    """Installs the span wrappers, aggregates spans, keeps the first
    :data:`KEEP_STEPS` steps' spans whole."""

    def __init__(self, targets=TARGETS):
        self._targets = targets
        self._installed: list[tuple[Any, str, Any, bool]] = []
        self.unresolved: list[str] = []
        #: Open spans, innermost last: ``[child seconds, span id]``.
        self._stack: list[list] = []
        self._next_id = 0
        self.step = -1
        #: name -> [count, total s, self s, rows, firings, firing s], one
        #: table per phase: spans outside any step (admission, the final
        #: flush), under a closed-loop step, under a paced step. The
        #: paced phase runs with every cursor subscribed, and subscriber
        #: dispatch is unwrapped (it is per result row), so there it
        #: reads as self time of whichever span emitted the rows; the
        #: per-row layer metrics therefore come from ``closed`` alone.
        self.outside: dict[str, list] = {}
        self.closed: dict[str, list] = {}
        self.paced: dict[str, list] = {}
        self._tables = (self.outside, self.closed, self.paced)
        self._phase = 0
        self.spans: list[tuple] = []
        #: Operators of every plan compiled while ``harvesting``.
        self.operators: list = []
        self.harvesting = False

    # -- install / uninstall -------------------------------------------
    def install(self) -> None:
        for target in self._targets:
            found = resolve(target.path)
            if found is None or not inspect.isfunction(found[2]):
                self.unresolved.append(target.path)
                continue
            owner, attribute, function = found
            own = attribute in vars(owner)
            self._installed.append((owner, attribute, vars(owner).get(attribute), own))
            setattr(owner, attribute, self._wrap(target, function))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, raw, own = self._installed.pop()
            if own:
                setattr(owner, attribute, raw)
            else:
                delattr(owner, attribute)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- spans ---------------------------------------------------------
    def _wrap(self, target: Target, function: Callable) -> Callable:
        name, rows, fired_attr = target.span, target.rows, target.fired_attr
        stack, clock = self._stack, time.perf_counter
        slots = tuple(
            table.setdefault(name, [0, 0.0, 0.0, 0, 0, 0.0]) for table in self._tables
        )
        tracer = self

        def span(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            tracer._next_id += 1
            frame = [0.0, tracer._next_id]
            before = getattr(args[0], fired_attr, 0) if fired_attr else 0
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                slot = slots[tracer._phase]
                slot[0] += 1
                slot[1] += duration
                slot[2] += duration - frame[0]
                if rows is not None:
                    slot[3] += rows(args)
                if fired_attr and getattr(args[0], fired_attr, 0) != before:
                    slot[4] += 1
                    slot[5] += duration
                if stack:
                    stack[-1][0] += duration
                if tracer._phase and tracer.step < KEEP_STEPS and len(tracer.spans) < KEEP_SPANS:
                    tracer.spans.append((tracer.step, frame[1], parent, name, start, end))
            if target.harvest and tracer.harvesting:
                tracer.operators.extend(getattr(result, "operators", ()))
            return result

        span.__wrapped__ = function
        span.__ledger_span__ = name
        return span

    def instrument(self, deliver: Callable, closed_steps: int) -> Callable:
        """Wrap a deployment's ``deliver`` so every step is a root span;
        the first ``closed_steps`` calls are the closed-loop phase."""
        root = self._wrap(
            Target("", STEP_SPAN, rows=lambda args: args[1] - args[0]), deliver
        )
        first_paced = self.step + 1 + closed_steps

        def step(lo: int, hi: int) -> None:
            self.step += 1
            self._phase = 1 if self.step < first_paced else 2
            try:
                root(lo, hi)
            finally:
                self._phase = 0

        return step

    # -- reading -------------------------------------------------------
    def self_seconds(self) -> float:
        """Sum of every in-step span's self time."""
        return sum(
            slot[2] for table in (self.closed, self.paced) for slot in table.values()
        )

    def dump(self) -> dict:
        def table(slots: dict) -> dict:
            return {
                name: {
                    "count": s[0], "total_s": s[1], "self_s": s[2], "rows": s[3],
                    "firings": s[4], "firing_s": s[5],
                }
                for name, s in sorted(slots.items()) if s[0]
            }

        return {
            "closed_loop": table(self.closed),
            "paced": table(self.paced),
            "outside_steps": table(self.outside),
            "unresolved": list(self.unresolved),
            "span_fields": ["step", "id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
        }


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time of each span ``(step, id, parent, name, start, end)``:
    its duration minus the part covered by its child spans."""
    out = {span[1]: span[5] - span[4] for span in spans}
    for _, _, parent, _, start, end in spans:
        if parent in out:
            out[parent] -= end - start
    return out


# ----------------------------------------------------------------------
# Direct calls
# ----------------------------------------------------------------------
def _median_us(function: Callable[[], Any], reps: int = DIRECT_REPS) -> float:
    clock = time.perf_counter
    samples = []
    for _ in range(reps):
        start = clock()
        function()
        samples.append(clock() - start)
    return statistics.median(samples) * 1e6


def _resolve_direct(unresolved: list[str]) -> dict[str, Any]:
    out = {}
    for key, path in DIRECT.items():
        found = resolve(path)
        if found is None:
            unresolved.append(path)
        else:
            out[key] = found[2]
    return out


def admission_stages(workload, catalog, tools: dict, tracer: Tracer) -> dict[str, float]:
    """Each admission stage timed on each distinct statement; the mean
    over statements of the per-statement medians, in microseconds."""
    stages: dict[str, list[float]] = {}
    needed = ("normalize", "parse", "analyzer", "builder", "analyze_plan", "compiler", "sink")
    if any(key not in tools for key in needed):
        return {}
    analyzer = tools["analyzer"](catalog)
    builder = tools["builder"](catalog)
    compiler = tools["compiler"]()
    compiles = 0
    before = {name: list(slot) for name, slot in tracer.outside.items()}
    for sql in workload.statements:
        statement = tools["parse"](sql)
        analyzed = analyzer.analyze_select(statement)
        plan = builder.build_select(analyzed)
        for stage, call in (
            ("sql.normalize_us", lambda: tools["normalize"](sql)),
            ("sql.parse_us", lambda: tools["parse"](sql)),
            ("sql.analyze_us", lambda: analyzer.analyze_select(statement)),
            ("plan.build_us", lambda: builder.build_select(analyzed)),
            ("analysis.analyze_plan_us", lambda: tools["analyze_plan"](plan)),
        ):
            stages.setdefault(stage, []).append(_median_us(call))
        for _ in range(DIRECT_REPS):
            compiler.compile(plan, tools["sink"]())
            compiles += 1
    out = {stage: statistics.mean(values) for stage, values in stages.items()}

    def spent(name: str, column: int) -> float:
        slot = tracer.outside.get(name)
        return (slot[column] - before.get(name, [0] * 6)[column]) if slot else 0.0

    # Lowering is the compile span's self time; code generation is the
    # self time of the generators it called (self, so nested generators
    # are not counted twice).
    out["stream.compiler.lower_us"] = spent("stream.compiler.compile", 2) / compiles * 1e6
    out["sql.compiled.codegen_us"] = sum(
        spent(name, 2) for name in tracer.outside if name.startswith("sql.compiled.")
    ) / compiles * 1e6
    return out


def query_cold_warm(workload, feeds) -> dict[str, float]:
    """``session.query`` on a plan-cache miss and on a hit, untraced. A
    statement's first admission is the miss; where the workload never
    repeats a text, each statement is admitted a second time."""
    deployment = workload.open(feeds)
    try:
        seen: set[str] = set()
        cold, warm = [], []
        for sql, seconds in zip(workload.queries, deployment.admit_each):
            (warm if sql in seen else cold).append(seconds)
            seen.add(sql)
        if not warm:
            clock = time.perf_counter
            for sql in workload.statements:
                start = clock()
                deployment.session.query(sql)
                warm.append(clock() - start)
        return {
            "api.query_cold_us": statistics.median(cold) * 1e6,
            "api.query_warm_us": statistics.median(warm) * 1e6,
        }
    finally:
        deployment.close()


def coerce_ns_per_row(seed: int, rows: int = 20_000) -> float:
    """Engine ingest of dict rows minus the same rows prebuilt, with no
    query subscribed: what coercing a mapping costs per row."""
    from repro.api import StreamSource, connect
    from repro.data import Row

    values, stamps = gen.readings(seed, rows)
    names = gen.READINGS.names
    shapes = {
        "dict": [dict(zip(names, row)) for row in values],
        "row": [Row.raw(gen.READINGS, row) for row in values],
    }
    took = {}
    for shape, batch in shapes.items():
        with connect() as session:
            session.attach(StreamSource("Readings", gen.READINGS, rate=100.0))
            took[shape] = _median_us(
                lambda: session.push_many("Readings", batch, stamps), reps=3
            )
    return (took["dict"] - took["row"]) * 1e3 / rows


def partition_costs(workload, catalog, tools: dict) -> dict[str, float]:
    out = {}
    if "stable_hash" in tools:
        stable_hash, hosts = tools["stable_hash"], gen.HOSTS
        out["data.tuples.stable_hash_ns"] = _median_us(
            lambda: [stable_hash(host) for host in hosts]
        ) * 1e3 / len(hosts)
    if all(key in tools for key in ("partition_safe", "build_exchange", "builder")):
        keys = {
            source.lower(): column
            for source, column in getattr(workload, "partition", {}).items()
        }
        builder = tools["builder"](catalog)
        plans = [builder.build_sql(sql) for sql in workload.statements]
        out["stream.partition.analyze_us"] = statistics.mean(
            _median_us(
                lambda: (tools["partition_safe"](plan, keys), tools["build_exchange"](plan, keys))
            )
            for plan in plans
        )
    return out


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def _per(slot: list | None, column: int, divisor_column: int, scale: float) -> float:
    """``slot[column] / slot[divisor_column] * scale``, 0 when unobserved."""
    if not slot or not slot[divisor_column]:
        return 0.0
    return slot[column] / slot[divisor_column] * scale


def _state_rows(operators: list) -> int:
    """Container entries across the operators' snapshots: buffered
    window rows, join buffers, DISTINCT sets, group tables."""
    total = 0
    for operator in operators:
        for value in operator.state_snapshot().values():
            if isinstance(value, (list, dict, set, tuple)) or hasattr(value, "maxlen"):
                total += len(value)
    return total


def _end_of_round_counts(deployment, tracer: Tracer) -> dict[str, float]:
    """Counts read from the public stats surfaces before the session closes."""
    session, out = deployment.session, {}
    stats = session.stats()
    out["stream.multiplex.chains"] = stats["sharing"]["chains"]
    out["stream.multiplex.fan_out"] = stats["sharing"]["fan_out"]
    out["stream.multiplex.plan_cache_hits"] = stats["plan_cache"]["hits"]
    out["stream.multiplex.plan_cache_misses"] = stats["plan_cache"]["misses"]
    workers = stats.get("workers")
    if workers:
        out["stream.procshard.queue_hwm"] = workers["queue_depth_hwm"]
        out["stream.procshard.batches_shipped"] = workers["batches_shipped"]
        out["stream.procshard.rows_shipped"] = workers["rows_shipped"]
        out["stream.procshard.restarts"] = workers["restarts"]
    engine = session.engine
    pool_stats = getattr(engine, "stats", None)
    if pool_stats is not None:
        pool = pool_stats()
        routed = pool["owner_cache_hits"] + pool["owner_cache_misses"]
        if routed:
            out["stream.sharded.owner_cache_hit_ratio"] = pool["owner_cache_hits"] / routed
        per_shard = [shard.elements_ingested for shard in engine.engines]
        if sum(per_shard):
            out["stream.sharded.shard_skew"] = max(per_shard) / statistics.mean(per_shard)
    checkpointer = session.checkpointer
    if checkpointer is not None:
        out["stream.checkpoint.count"] = checkpointer.checkpoints_taken
        out["stream.checkpoint.log_entries"] = len(checkpointer.log)
        latest = checkpointer.latest()
        if latest is not None:
            out["stream.checkpoint.bytes"] = len(pickle.dumps(latest))
    network = deployment.extras.get("network")
    if network is not None:
        out["sensor.network.tx"] = network.stats.transmissions
        out["sensor.network.bytes"] = network.stats.bytes_transmitted
        out["core.federated.fragments"] = sum(len(c.fragments) for c in deployment.cursors)
    out["api.cursor.results"] = sum(len(cursor) for cursor in deployment.cursors)
    out["stream.operators.rows_in"] = sum(op.rows_in for op in tracer.operators)
    out["stream.operators.rows_out"] = sum(op.rows_out for op in tracer.operators)
    out["stream.operators.state_rows"] = _state_rows(tracer.operators)
    return out


def _span_metrics(tracer: Tracer) -> dict[str, float]:
    """Span-derived metrics, from the closed-loop phase (see ``Tracer``)."""
    closed, outside = tracer.closed.get, tracer.outside.get
    aggregate = [closed(n) for n in ("stream.operators.aggregate", "stream.operators.merge_aggregate")]
    aggregate_self = sum(slot[2] for slot in aggregate if slot)
    aggregate_rows = (aggregate[0] or [0] * 4)[3]
    stateless = [
        slot
        for slot in map(closed, ("stream.operators.fused", "stream.operators.filter", "stream.operators.project"))
        if slot
    ]
    stateless_rows = sum(slot[3] for slot in stateless)
    return {
        "stream.multiplex.admit_us": _per(outside("stream.multiplex.admit"), 1, 0, 1e6),
        "api.push_many.self_ns_per_row": _per(closed("api.push_many"), 2, 3, 1e9),
        "api.push.self_ns_per_row": _per(closed("api.push"), 2, 3, 1e9),
        "stream.engine.route_ns_per_row": _per(closed("stream.engine.push_many"), 2, 3, 1e9),
        "stream.engine.push.self_ns_per_row": _per(closed("stream.engine.push"), 2, 3, 1e9),
        "stream.engine.punctuate.self_us": _per(closed("stream.engine.punctuate"), 2, 0, 1e6),
        # per row entering a stateless chain operator (fused, filter or project)
        "stream.operators.fused_ns_per_row": (
            sum(slot[2] for slot in stateless) / stateless_rows * 1e9 if stateless_rows else 0.0
        ),
        "stream.compiler.reschema_ns_per_row": _per(closed("stream.compiler.reschema"), 2, 3, 1e9),
        "stream.operators.aggregate_ns_per_row": (
            aggregate_self / aggregate_rows * 1e9 if aggregate_rows else 0.0
        ),
        "stream.operators.distinct_ns_per_row": _per(closed("stream.operators.distinct"), 2, 3, 1e9),
        "stream.operators.window_close_us": _per(closed("stream.operators.window_close"), 5, 4, 1e6),
        "stream.operators.join_ns_per_row": _per(closed("stream.operators.join"), 2, 3, 1e9),
        "stream.multiplex.tee_ns_per_delivery": _per(closed("stream.multiplex.tee"), 2, 3, 1e9),
        "api.cursor.sink_ns_per_result": _per(closed("api.cursor.sink"), 2, 3, 1e9),
        "stream.sharded.route_ns_per_row": _per(closed("stream.sharded.push_many"), 2, 3, 1e9),
        "stream.sharded.barrier_us": _per(closed("stream.sharded.punctuate"), 2, 0, 1e6),
        "stream.checkpoint.barrier_ms": _per(closed("stream.checkpoint.checkpoint"), 1, 0, 1e3),
        "stream.procshard.push_many.self_ns_per_row": _per(closed("stream.procshard.push_many"), 2, 3, 1e9),
        "stream.procshard.punctuate_wait_us": _per(closed("stream.procshard.punctuate"), 2, 0, 1e6),
        "stream.procshard.start_s": _per(outside("stream.procshard.start"), 1, 0, 1.0),
        "sensor.engine.epoch_us": _per(closed("runtime.simulation.run_for"), 1, 0, 1e6),
    }


def trace_workload(workload, seed: int, seconds: float, spans_path: Path | None = None) -> dict:
    """The traced run of one workload; returns its record, whose
    ``metrics`` hold every :data:`PER_LAYER` name (0 where the layer is
    not on this workload's path or its target is unresolved)."""
    began = time.perf_counter()
    scale = seconds / harness.NOMINAL_SECONDS
    closed, paced = workload.phases.steps(scale)
    feeds = workload.build_input(seed, paced[-1][1])
    values: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    gc.collect()
    gc.freeze()
    try:
        # Untraced: warm-up, then one round before the traced round and
        # one after it; the faster of the two is what tracing is charged
        # against, so a slow spell of the host reads as neither a negative
        # nor an inflated overhead.
        harness.preflight(workload, feeds)
        harness.warm_up(workload, feeds, closed, paced)
        before = harness.run_round(workload, feeds, closed, paced)
        values.update(query_cold_warm(workload, feeds))
        values["data.coerce_ns_per_row"] = coerce_ns_per_row(seed)
        period = getattr(workload, "sample_period", None)
        if period is not None:
            values["sensor.sim_s_per_s"] = closed[-1][1] * period / before.closed_s
            values["sensor.network.tx_ship_everything"] = harness.reference_run(
                workload, feeds, closed + paced,
                lambda deployment: deployment.extras["network"].stats.transmissions,
            )

        tracer = Tracer()
        tools = _resolve_direct(tracer.unresolved)
        with tracer:
            probe = workload.open(feeds)
            try:
                catalog = probe.session.catalog
                values.update(admission_stages(workload, catalog, tools, tracer))
                values.update(partition_costs(workload, catalog, tools))
                if period is not None and "partition_plan" in tools:
                    plan = probe.session.plan(workload.queries[0])
                    network = probe.extras["network"]
                    values["sensor.optimizer.partition_plan_us"] = _median_us(
                        lambda: tools["partition_plan"](plan, catalog=catalog, network=network)
                    )
            finally:
                probe.close()
            tracer.harvesting = True
            counts: dict[str, float] = {}
            traced = harness.run_round(
                workload, feeds, closed, paced,
                instrument=lambda deliver: tracer.instrument(deliver, len(closed)),
                on_close=lambda deployment: counts.update(
                    _end_of_round_counts(deployment, tracer)
                ),
            )
        plain = harness.run_round(workload, feeds, closed, paced)
        values.update(counts)
        values.update(_span_metrics(tracer))
        values.update(
            {f"gen.{key}": value for key, value in harness.lateness([plain]).items()}
        )
    finally:
        gc.unfreeze()

    if values["sensor.network.tx"]:
        values["sensor.network.tx_reduction"] = (
            values["sensor.network.tx_ship_everything"] / values["sensor.network.tx"]
        )
    values["trace.overhead_pct"] = 100.0 * (
        traced.closed_s / min(before.closed_s, plain.closed_s) - 1.0
    )
    values["trace.self_coverage_pct"] = (
        100.0 * tracer.self_seconds() / (traced.closed_s + traced.busy_s)
    )
    values["trace.unresolved"] = float(len(tracer.unresolved))
    rounds = (before, traced, plain)
    errors = [error for result in rounds for error in result.errors]
    mismatched = sum(
        1 for result in (traced, plain)
        for a, b in zip(before.digests, result.digests) if a != b
    )

    if spans_path is not None:
        spans_path.write_text(
            json.dumps({"workload": workload.name, "seed": seed, **tracer.dump()}) + "\n"
        )
    steps = len(closed) + len(paced)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "wall_s": time.perf_counter() - began,
        "ops": len(rounds) * steps,
        # Tracing must not change results: the traced round's digests
        # are checked against the untraced rounds'.
        "failed_ops": sum(result.failed_steps for result in rounds) + mismatched,
        "errors": errors[:3],
        "unresolved": list(tracer.unresolved),
        "metrics": {
            name: {"unit": PER_LAYER[name][0], "value": values[name]} for name in PER_LAYER
        },
    }
