"""A sharded pool of stream engines: partition-parallel continuous queries.

A :class:`ShardedStreamEngine` presents the same surface as one
:class:`~repro.stream.engine.StreamEngine` — ``execute``/``stop``,
``push``/``push_many``/``push_remote``, ``punctuate``,
``load_table``/``table_rows``/``drop_table`` — over N shards plus one
*designated fallback* engine. It owns the one copy of everything the
pool does, and speaks to its shards only through the
:mod:`~repro.stream.channel` verbs, so the same code drives shard
engines in this interpreter (:class:`~repro.stream.channel.
LoopbackChannel`) and worker OS processes
(:class:`~repro.stream.procshard.FramedChannel`):

* **Ingestion partitions.** ``push``/``push_many`` route each row to
  the shard owning its partition key
  (:func:`~repro.data.tuples.stable_hash` of the key value, modulo the
  shard count); sources without a declared key round-robin. A shard is
  fed a source only while a partitioned query reads it; the fallback
  engine receives the full, unpartitioned feed — likewise only while a
  fallback query is subscribed.
* **Safe plans replicate.** ``execute`` runs
  :func:`~repro.stream.partition.partition_safe`; safe plans start one
  replica per shard, all feeding a single merged sink through a
  watermark-merging coordinator (elements stream through; a punctuation
  is forwarded once the *minimum* watermark across shards advances, so
  every shard's window emissions for a boundary land before the merged
  punctuation — exactly the contract
  :meth:`~repro.stream.engine.QueryHandle.latest_batch` and subscribers
  rely on).
* **Unsafe plans exchange or fall back.** A shape an exchange can fix
  runs as a two-stage shuffle (stage-1 replicas on every shard deposit
  into pool-owned buffers; every punctuation is a two-round barrier
  that flushes them to the stage-2 owners). Anything else — and, on a
  channel that cannot ship plan objects, any plan that arrived without
  its SQL text — runs whole on the fallback engine against the full
  feed: same results, no parallelism. Its one replica writes through a
  one-slot merge, so every pool query has exactly one merge coordinator
  (a fallback sink, like a merged one, records a punctuation only when
  the watermark advances).
* **Tables replicate.** ``load_table`` broadcasts to every shard and
  the fallback. Punctuation broadcasts likewise.
* **Shards fail over.** Every op — and every admission — is written to
  the attached :class:`~repro.stream.checkpoint.CheckpointCoordinator`'s
  log *before* it is sent, so a shard found dead by any verb
  (:class:`~repro.stream.channel.ShardDied`) is respawned and brought
  back by the coordinator's one recovery routine (re-admitted pinned,
  restored from the latest barrier, seeded, replayed through the same
  verbs live ingest uses; a query admitted since the barrier starts
  where the replay reaches its admission). Every recovering replica —
  the fallback's included — skips the re-derived output its merge slot
  (or shuffle port) already forwarded.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Mapping, Sequence

from repro.catalog import Catalog, SourceKind
from repro.data.schema import Schema
from repro.data.streams import (
    CollectingConsumer,
    Punctuation,
    StreamElement,
    edge,
    push_all,
)
from repro.data.tuples import Row, stable_hash
from repro.errors import CatalogError, ExecutionError, RecoveryError
from repro.plan.exchange import ExchangeRecipe, ExchangeSource
from repro.plan.logical import LogicalOp, RemoteSource, Scan
from repro.sql.compiled import kernel_scope
from repro.stream.channel import LoopbackChannel, ShardDied
from repro.stream.checkpoint import FALLBACK, Feed
from repro.stream.engine import (
    QueryHandle,
    StreamEngine,
    generate_ingest_loop,
    ingest_loop,
)
from repro.stream.partition import PartitionAnalysis, partition_safe

_pool_query_ids = itertools.count(1)

#: How many times one failover recovers a dead host before giving up:
#: a host that dies again during its own recovery is respawned and
#: recovered again, from the same checkpoint.
RECOVERY_ATTEMPTS = 3


class _MergeCoordinator:
    """Funnels a query's replica outputs into one merged sink.

    One slot per feeding replica: per shard, per stage-2 destination,
    or the fallback replica's one. Elements pass straight through in
    arrival order. Watermarks merge: each slot's latest watermark is
    tracked and a punctuation is emitted downstream only when
    ``min(slot watermarks)`` advances — by then every replica has
    flushed its window emissions for that boundary into the merged
    sink. (With one slot, a punctuation that does not advance the
    watermark is dropped.)
    """

    __slots__ = ("_sink", "_marks", "_sent", "_counts")

    def __init__(self, sink: CollectingConsumer, slots: int):
        self._sink = sink
        self._marks = [float("-inf")] * slots
        self._sent = float("-inf")
        # Forwarded-element counts per slot: failover's dedup anchor.
        # A recovering replica deterministically re-derives its past
        # emissions during log replay; skipping exactly
        # ``forwarded(i) - count_at_barrier(i)`` of them restores the
        # exactly-once merged output.
        self._counts = [0] * slots

    def receive_batch(self, index: int, rows: list[Row], stamps: list[float], source: str) -> None:
        self._counts[index] += len(rows)
        push_all(self._sink, rows, stamps, source)

    @property
    def counts(self) -> list[int]:
        """Forwarded-element counts per slot (checkpoint barrier state)."""
        return list(self._counts)

    def forwarded(self, index: int) -> int:
        return self._counts[index]

    def advance(self, index: int, watermark: float) -> None:
        marks = self._marks
        if watermark > marks[index]:
            marks[index] = watermark
        merged = min(marks)
        if merged > self._sent:
            self._sent = merged
            self._sink.push(Punctuation(merged))


class _ShardFeed(Feed):
    """Feeds one slot of a query's :class:`_MergeCoordinator`: a shard
    replica, a stage-2 replica or the fallback replica. The skip counts
    against the slot's forwarded elements; punctuations always pass —
    the coordinator's monotonic merge deduplicates them."""

    __slots__ = ("_coordinator", "_index")

    def __init__(self, coordinator: _MergeCoordinator, index: int, skip: int):
        super().__init__(skip)
        self._coordinator = coordinator
        self._index = index

    def _run(self, rows: list[Row], stamps: list[float], source: str) -> None:
        self._coordinator.receive_batch(self._index, rows, stamps, source)

    def _punctuate(self, watermark: float) -> None:
        self._coordinator.advance(self._index, watermark)


def _plan_sources(plan: LogicalOp) -> frozenset[str]:
    """Lowercased names of the sources ``plan`` reads (stored tables,
    streams and remote fragment feeds; exchange ports are internal)."""
    names = set()
    for node in plan.walk():
        if isinstance(node, Scan):
            names.add(node.entry.name.lower())
        elif isinstance(node, RemoteSource) and not isinstance(node, ExchangeSource):
            names.add(node.name.lower())
    return frozenset(names)


class _ExchangeState:
    """Pool-side shuffle buffers and routing of one exchanged query.

    Stage-1 replicas deposit their emissions here (via
    :class:`_ExchangeFeed`); at every pool punctuation the buffers flush
    per destination shard, sorted by ``(timestamp, source shard)`` so
    stage 2 observes rows in the same global order a single engine
    would, then the destination's exchange ports are punctuated. The
    buffers are therefore empty at every checkpoint barrier — only the
    per-``(ordinal, src)`` delivered counts (``flushed``, failover's
    dedup anchor) persist.
    """

    __slots__ = ("recipe", "keys", "dests", "names", "key_positions", "sources",
                 "flushed", "_pending", "_owners")

    def __init__(self, recipe: ExchangeRecipe, dests: list[int], keys: dict):
        self.recipe = recipe
        #: The partition keys the recipe was derived under: a channel
        #: that ships SQL text re-derives the identical recipe from them.
        self.keys = dict(keys)
        self.dests = list(dests)
        self.names = [spec.name for spec in recipe.specs]
        self.key_positions = [spec.key_positions for spec in recipe.specs]
        # Source names each spec's stage-1 subtree reads: a named
        # punctuate advances only the exchange feeds it reaches.
        self.sources = [_plan_sources(spec.stage1) for spec in recipe.specs]
        #: (ordinal, src shard) -> rows delivered to destinations so far.
        self.flushed: dict[tuple[int, int], int] = {}
        # dest shard -> [(ts, src, ordinal, values), ...] since last flush
        self._pending: dict[int, list[tuple]] = {dest: [] for dest in self.dests}
        # per ordinal: exchange-key value -> slot in ``dests`` (bounded
        # like the pool's ingest owner cache)
        self._owners: list[dict[Any, int]] = [{} for _ in self.names]

    def deposit_run(
        self, ordinal: int, src: int, values: list[tuple], stamps: list[float]
    ) -> None:
        """Deposit one stage-1 emission run — value tuples and their
        timestamps, in emission order — into the destination buffers.

        One loop per run: the destination of a key value is
        ``stable_hash(key) % len(dests)``, memoized per port (exchange
        keys are join / group keys — low-cardinality, like the ingest
        partition keys the pool's owner cache serves), so a row costs a
        dict probe and an append.
        """
        pending = self._pending
        dests = self.dests
        positions = self.key_positions[ordinal]
        if len(dests) == 1 or not positions:
            pending[dests[0]] += [
                (ts, src, ordinal, row) for row, ts in zip(values, stamps)
            ]
            return
        owners = self._owners[ordinal]
        limit = ShardedStreamEngine._OWNER_CACHE_LIMIT
        get = owners.get
        position = positions[0] if len(positions) == 1 else None
        appends = [pending[dest].append for dest in dests]
        for row, ts in zip(values, stamps):
            if position is not None:
                key = row[position]
            else:
                key = tuple([row[p] for p in positions])
            slot = get(key)
            if slot is None:
                if len(owners) >= limit:
                    del owners[next(iter(owners))]
                slot = owners[key] = stable_hash(key) % len(dests)
            appends[slot]((ts, src, ordinal, row))

    def flush(self, dest: int) -> list[tuple[str, list, list]]:
        """Drain ``dest``'s buffer into delivery runs.

        Rows sort by ``(timestamp, src)`` — re-interleaving the shards'
        emissions into global arrival order — and consecutive same-
        ordinal rows group into ``(port name, values, timestamps)``
        runs. A destination's runs at one barrier, every exchanged
        query's, are delivered with one ``push_exchange`` call, which
        hands a join's interleaved runs to it whole. The ``flushed``
        counts advance once per flush and ``(ordinal, src)``.
        """
        pending = self._pending[dest]
        if not pending:
            return []
        self._pending[dest] = []
        pending.sort(key=_TS_SRC)
        flushed = self.flushed
        names = self.names
        runs: list[tuple[str, list, list]] = []
        last = None
        for ts, src, ordinal, values in pending:
            if ordinal != last:
                last = ordinal
                run_values, run_stamps = [], []
                runs.append((names[ordinal], run_values, run_stamps))
            run_values.append(values)
            run_stamps.append(ts)
        for key, count in Counter(map(_ORDINAL_SRC, pending)).items():
            flushed[key] = flushed.get(key, 0) + count
        return runs

    def drop_src(self, src: int) -> None:
        """Discard unflushed rows from a dead shard: its recovering
        stage-1 replicas re-derive them during log replay (the flushed
        counts arm the skip that drops already-delivered re-derivations)."""
        for dest, rows in self._pending.items():
            self._pending[dest] = [e for e in rows if e[1] != src]

    def pending_rows(self) -> int:
        return sum(len(rows) for rows in self._pending.values())

    def snapshot(self) -> dict:
        return {"flushed": dict(self.flushed), "dests": list(self.dests)}


#: Keys of a pending ``(ts, src, ordinal, values)`` entry: its delivery
#: order, and its ``flushed`` count.
_TS_SRC, _ORDINAL_SRC = itemgetter(0, 1), itemgetter(2, 1)


class _ExchangeFeed(Feed):
    """Terminal consumer of one stage-1 replica: deposits emissions into
    the query's :class:`_ExchangeState` buffers.

    Punctuations never pass — exchange watermarks travel through the
    pool's shuffle barrier, not through stage-1 pipelines. The skip
    counts against this ``(ordinal, src)``'s flushed rows. The feed
    lives in the parent on every transport: a loopback host pushes
    runs into it, a framed channel the decoded column runs
    (``push_run``) — and either way a run is deposited by one
    :meth:`_ExchangeState.deposit_run` call (one loop, destinations
    memoized per key value), never row by row. It reads only each
    row's values and stamp (``positional``): a hand-built
    stage-1 replica hands it source rows unlabelled, and the
    destination's ``push_exchange`` builds them again under the leaf's
    schema.
    """

    __slots__ = ("_state", "_ordinal", "_src")
    positional = True

    def __init__(self, state: _ExchangeState, ordinal: int, src: int, skip: int):
        super().__init__(skip)
        self._state = state
        self._ordinal = ordinal
        self._src = src

    def _run(self, rows: list[Row], stamps: list[float], source: str) -> None:
        self._state.deposit_run(self._ordinal, self._src, [row.values for row in rows], stamps)

    def _punctuate(self, watermark: float) -> None:
        pass

    def push_run(self, values: list[tuple], stamps: list[float]) -> None:
        drop = self._skipped(len(values))
        if drop:
            values, stamps = values[drop:], stamps[drop:]
        if values:
            self._state.deposit_run(self._ordinal, self._src, values, stamps)


@dataclass
class ShardedQueryHandle(QueryHandle):
    """Handle over a pool-hosted continuous query.

    ``results``/``latest_batch``/``sink`` read the *merged* output.
    ``partitioned`` tells whether the plan runs across the shards (one
    replica each, or exchanged) or fell back; ``analysis`` carries the
    safety verdict and reason. ``compiled`` is the lead replica's
    pipeline — None while the replicas live behind a channel that is
    not in this process.
    """

    #: Per-shard replicas whose output is the query's (the fallback
    #: replica alone for fallback handles). None where a shard hosts no
    #: such replica or the channel keeps it out of process.
    inner: list = field(default_factory=list)
    partitioned: bool = False
    analysis: PartitionAnalysis | None = None
    #: The merge coordinator feeding ``sink`` (one slot per shard, per
    #: stage-2 destination, or the fallback replica's one) — failover
    #: reads its per-slot forwarded counts.
    coordinator: "_MergeCoordinator" = field(default=None, repr=False)
    #: The pool-side shuffle state when the plan runs as a repartitioned
    #: two-stage pipeline (see :mod:`repro.plan.exchange`).
    exchange: "_ExchangeState | None" = field(default=None, repr=False)
    #: The SQL text ``plan`` compiles from, when the caller vouched for
    #: it — what a channel that cannot ship plan objects sends instead.
    sql: str | None = field(default=None, repr=False)
    #: Lowercased source names the plan reads (subscription counting).
    sources: frozenset = field(default=frozenset(), repr=False)

    @property
    def exchanged(self) -> bool:
        return self.exchange is not None

    @property
    def shard_stats(self) -> list[dict[str, int]]:
        """Per-replica operator row counters (partition spread probe)."""
        return [h.compiled.stats for h in self.inner if h is not None]


class ShardedStreamEngine:
    """Pool of N shards behind one StreamEngine-shaped surface.

    Args:
        catalog: Shared catalog (all engines resolve sources in it).
        shards: Number of partitions (≥ 1).
        deliver: Display callback, forwarded to every in-process engine.
        share_plans: Forwarded to every engine (and to failover
            replacements): replicas of structurally identical plans
            share one operator chain per shard.
    """

    def __init__(
        self,
        catalog: Catalog,
        shards: int = 2,
        deliver: Callable[[str, StreamElement], None] | None = None,
        share_plans: bool = False,
    ):
        if shards < 1:
            raise ExecutionError(f"shard count must be >= 1, got {shards}")
        self._catalog = catalog
        self._deliver = deliver
        self.share_plans = share_plans
        self._channels = [self._open_channel(index) for index in range(shards)]
        #: The designated fallback engine: always in this process.
        self._fallback = LoopbackChannel(FALLBACK, catalog, deliver, share_plans)
        #: Recovery plumbing: a CheckpointCoordinator attaches itself
        #: here (same protocol as on a plain engine); failover then
        #: restores dead shards from its barriers + log.
        self.checkpointer = None
        self._keys: dict[str, str] = {}  # source.lower() -> bare column
        self._key_index: dict[str, int] = {}  # source.lower() -> position
        self._round_robin: dict[str, int] = {}  # source.lower() -> cursor
        #: Per-source memo of key value -> owning shard. Partition keys
        #: are low-cardinality in practice (hosts, rooms, device ids),
        #: so a dict probe replaces the stable_hash call on the ingest
        #: hot path; bounded so a high-cardinality key cannot leak.
        self._owners: dict[str, dict[Any, int]] = {}
        self._owner_hits = 0
        self._owner_misses = 0
        self._owner_evictions = 0
        #: Remote-source routing recipes learned from executed plans:
        #: source.lower() -> tuple of (position, full name, bare name)
        #: per declared key column, and source.lower() -> the remote
        #: schema ``push_remote`` validates against (see
        #: ``_register_remotes``).
        self._remote_keys: dict[str, tuple] = {}
        self._remote_schemas: dict[str, Schema] = {}
        self._handles: dict[int, ShardedQueryHandle] = {}
        #: source.lower() -> how many partitioned / fallback queries
        #: read it: who is fed what, and what ``subscribed`` answers
        #: (a dead shard has lost its routes, the pool has not).
        self._shard_subs: dict[str, int] = {}
        self._fallback_subs: dict[str, int] = {}
        #: id(catalog schema) -> the pool's row-coercing ingest loop,
        #: and what generating them cost (summed into compile_stats).
        self._ingest_loops: dict[int, Callable] = {}
        self._compile_counts = {"generated": 0, "fallbacks": 0}
        self.elements_ingested = 0
        self._exchange_rounds = 0
        self._exchange_delivered = 0
        self._exchange_runs = 0

    def _open_channel(self, index: int):
        """The transport to shard ``index``: a local host, called
        directly (:class:`~repro.stream.procshard.ProcessShardEngine`
        opens worker processes instead)."""
        return LoopbackChannel(index, self._catalog, self._deliver, self.share_plans)

    # ------------------------------------------------------------------
    # Pool introspection
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self._channels)

    @property
    def engines(self) -> list:
        """The shard engines (the designated fallback engine excluded).
        Over a process channel these are the parent's views of the
        remote engines: ``elements_ingested`` and ``failed`` only."""
        return [channel.engine for channel in self._channels]

    @property
    def fallback_engine(self) -> StreamEngine:
        """The designated engine hosting partition-unsafe queries."""
        return self._fallback.engine

    @property
    def running_queries(self) -> list[ShardedQueryHandle]:
        return list(self._handles.values())

    def sharing_stats(self) -> dict:
        """Shared-subplan counters summed over every shard engine and
        the designated fallback (same keys as
        :meth:`StreamEngine.sharing_stats`)."""
        return self._summed("sharing_stats")

    def compile_stats(self) -> dict:
        """Generated / fallback counters, summed like
        :meth:`sharing_stats` (same keys as
        :meth:`StreamEngine.compile_stats`), the pool's own ingest loops
        included."""
        totals = self._summed("compile_stats")
        for key, value in self._compile_counts.items():
            totals[key] = totals.get(key, 0) + value
        return totals

    def _summed(self, verb: str) -> dict:
        totals: dict = {}
        for index in self._everyone():
            for key, value in self._call(index, verb, retry=True).items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def worker_stats(self) -> dict[str, int]:
        """Transport counters aggregated across shards — empty when the
        channels transport nothing (the in-process pool): batch counts,
        rows/batches shipped and restarts summed; ``queue_depth_hwm``
        is the max across workers (a per-queue high-water mark)."""
        per_shard = [c.transport for c in self._channels if c.transport is not None]
        if not per_shard:
            return {}
        out = {key: sum(stats[key] for stats in per_shard) for key in per_shard[0]}
        out["queue_depth_hwm"] = max(stats["queue_depth_hwm"] for stats in per_shard)
        out["workers"] = len(per_shard)
        return out

    def stats(self) -> dict:
        """Pool counters: total elements routed, owner-cache
        effectiveness, and the shuffle (``exchange``: exchanged queries
        live, rows deposited into / delivered out of the shuffle
        buffers, the runs those rows were delivered in — one per change
        of port in a destination's ``(ts, src)`` order, summed over
        barriers — and barrier delivery rounds)."""
        live = [h.exchange for h in self._handles.values() if h.exchanged]
        return {
            "elements_ingested": self.elements_ingested,
            "owner_cache_hits": self._owner_hits,
            "owner_cache_misses": self._owner_misses,
            "owner_cache_evictions": self._owner_evictions,
            "owner_cache_size": sum(len(c) for c in self._owners.values()),
            "owner_cache_limit": self._OWNER_CACHE_LIMIT,
            "exchange": {
                "queries": len(live),
                "rows_deposited": self._exchange_delivered
                + sum(state.pending_rows() for state in live),
                "rows_delivered": self._exchange_delivered,
                "runs_delivered": self._exchange_runs,
                "barrier_rounds": self._exchange_rounds,
            },
        }

    # ------------------------------------------------------------------
    # Partition keys
    # ------------------------------------------------------------------
    def set_partition_key(self, source: str, column: str) -> None:
        """Declare that ``source`` partitions by ``column`` (a bare
        column of its catalog schema). Undeclared sources round-robin."""
        entry = self._catalog.source(source)
        lower = entry.name.lower()
        for position, f in enumerate(entry.schema):
            if f.name == column or f.bare_name == column:
                self._keys[lower] = f.bare_name
                self._key_index[lower] = position
                return
        raise CatalogError(
            f"partition key {column!r} is not a column of {entry.name!r} "
            f"(available: {', '.join(entry.schema.names)})"
        )

    def clear_partition_key(self, source: str) -> None:
        """Forget a declared partition key (detach symmetry); the source
        reverts to round-robin. Unknown names are a no-op."""
        lower = source.lower()
        self._keys.pop(lower, None)
        self._key_index.pop(lower, None)

    def partition_key(self, source: str) -> str | None:
        """The declared partition column of ``source`` (None = round-robin)."""
        return self._keys.get(source.lower())

    # ------------------------------------------------------------------
    # The channel seam
    # ------------------------------------------------------------------
    def _channel(self, index):
        return self._fallback if index == FALLBACK else self._channels[index]

    def _everyone(self) -> list:
        """Every channel's index — the fallback first: it is in this
        process, so a bad broadcast raises here, not out of a worker."""
        return [FALLBACK, *range(len(self._channels))]

    def _call(self, index, verb: str, *args, retry: bool = False):
        """Invoke one channel verb on shard ``index`` (or ``FALLBACK``).

        A dead shard is failed over on the spot. Ops the pool logged
        before sending are *not* re-sent — failover's replay of the log
        suffix already applied them — while requests that read state
        back (``retry=True``) are re-issued to the restored shard.
        """
        while True:
            try:
                return getattr(self._channel(index), verb)(*args)
            except ShardDied:
                self._recover(index)
                if not retry:
                    return None

    def _subscribe(self, handle: "ShardedQueryHandle", delta: int) -> None:
        counts = self._shard_subs if handle.partitioned else self._fallback_subs
        for name in handle.sources:
            count = counts.get(name, 0) + delta
            if count > 0:
                counts[name] = count
            else:
                counts.pop(name, None)

    def subscribed(self, source: str) -> bool:
        """True when any query of the pool reads ``source``."""
        lower = source.lower()
        return lower in self._shard_subs or lower in self._fallback_subs

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: LogicalOp,
        sink: CollectingConsumer | None = None,
        *,
        sql: str | None = None,
    ) -> ShardedQueryHandle:
        """Start a continuous query: one replica per shard when the
        plan is partition-safe, a two-stage exchanged pipeline when a
        shuffle makes it so, else whole on the designated fallback
        engine — each writing into one merged sink. ``sql`` is the text
        ``plan`` compiles from; a channel that cannot ship plan objects
        needs it and falls back without. ``sink`` overrides the merged
        sink — federated repair reuses a surviving cursor's sink so
        subscription taps keep observing results.

        The analysis runs once, its recipe's port names keyed by the
        query id (several exchanged queries may coexist on one engine),
        and every replica is lowered inside one
        :func:`~repro.sql.compiled.kernel_scope`: shards compiling the
        pool's plan objects share each generated kernel, so admission
        generates it once, not once per shard."""
        query_id = next(_pool_query_ids)
        analysis = partition_safe(plan, self._keys, query_id)
        shippable = bool(self._channels) and (
            sql is not None or self._channels[0].ships_plans
        )
        if sink is None:
            sink = CollectingConsumer()
        shards = len(self._channels)
        partitioned = shippable and (analysis.safe or analysis.exchange is not None)
        replicas = shards if partitioned else 1
        slots, state = replicas, None
        if partitioned and not analysis.safe:
            recipe = analysis.exchange
            # Stage 2 runs on every shard when the merge itself
            # partitions by the exchange key, else on shard 0.
            dests = list(range(shards)) if recipe.distributed else [0]
            state = _ExchangeState(recipe, dests, self._keys)
            slots = len(dests)
        handle = ShardedQueryHandle(
            query_id,
            plan,
            None,
            sink,
            self,
            inner=[None] * replicas,
            partitioned=partitioned,
            analysis=analysis,
            coordinator=_MergeCoordinator(sink, slots),
            exchange=state,
            sql=sql,
            sources=_plan_sources(plan),
        )
        # Tracked and logged before its replicas start: a shard found
        # dead while admitting is failed over, and failover starts every
        # tracked handle — this one where the replay reaches its
        # admission, as for every query admitted since the barrier.
        self._handles[query_id] = handle
        self._subscribe(handle, +1)
        if self.checkpointer is not None:
            self.checkpointer.record(("admit", None, query_id))
        try:
            self._register_remotes(handle)
            with kernel_scope():
                # At admission, not mid-ingest; in the scope, so loopback
                # shards take the pool's own ingest loops.
                for node in plan.walk():
                    if isinstance(node, Scan) and node.entry.kind is not SourceKind.TABLE:
                        generate_ingest_loop(self._ingest_loops, self._compile_counts, node.entry.schema)
                for index in range(shards) if handle.partitioned else (FALLBACK,):
                    try:
                        self._admit(handle, index)
                    except ShardDied:
                        self._recover(index)
        except BaseException:
            self.stop(handle)
            raise
        return handle

    def _admit(self, handle: ShardedQueryHandle, index, handle_cp=None) -> None:
        """Start ``handle``'s replicas on shard ``index`` (or the
        fallback) into fresh feeds — at ``execute``, and again at
        failover, where each feed's skip drops the re-derived output its
        merge slot (or shuffle port) forwarded since the barrier
        (``handle_cp``), or since the admission for a query the barrier
        does not hold. (At ``execute`` every skip is 0.)"""
        channel = self._channel(index)
        coordinator = handle.coordinator

        def merged(slot: int) -> _ShardFeed:
            at_barrier = handle_cp.merge_counts[slot] if handle_cp is not None else 0
            return _ShardFeed(coordinator, slot, coordinator.forwarded(slot) - at_barrier)

        slot = 0 if index == FALLBACK else index
        share = handle_cp.shared[slot] if handle_cp is not None and handle_cp.shared else None
        lead = slot
        if handle.exchanged:
            state = handle.exchange
            # At failover, unflushed rows from the dead shard are
            # re-derived by replay; already-delivered ones are dropped by
            # the skips. (At execute nothing is pending.)
            state.drop_src(index)
            at_barrier = handle_cp.exchange["flushed"] if handle_cp is not None else {}
            feeds = []
            for ordinal in range(len(state.names)):
                key = (ordinal, index)
                skip = state.flushed.get(key, 0) - at_barrier.get(key, 0)
                feeds.append(_ExchangeFeed(state, ordinal, index, skip))
            feed = merged(state.dests.index(index)) if index in state.dests else None
            lead = state.dests[0]
            replica = channel.admit_exchanged(handle, feeds, feed)
        else:
            replica = channel.admit(handle, merged(slot), share)
        handle.inner[slot] = replica
        if replica is not None and slot == lead:
            handle.compiled = replica.compiled

    def _register_remotes(self, handle: ShardedQueryHandle) -> None:
        """Learn the schema of every remote source ``handle`` reads, so
        ``push_remote`` rejects a tuple that does not fit before it is
        logged or routed, and — for a partitioned handle — the routing
        key of every keyed one: a federated fragment whose
        :class:`RemoteSource` declares ``partition_by`` ships
        pre-partitioned output, so ``push_remote`` can hash-route its
        elements to the owning shard instead of round-robining them
        (exchange ports are internal — the shuffle barrier routes those
        itself)."""
        for node in handle.plan.walk():
            if not isinstance(node, RemoteSource) or isinstance(node, ExchangeSource):
                continue
            self._remote_schemas[node.name.lower()] = node.schema
            if not handle.partitioned or not node.partition_by:
                continue
            recipe = []
            for key in node.partition_by:
                for position, f in enumerate(node.schema):
                    if f.name == key or f.bare_name == key:
                        recipe.append((position, f.name, f.bare_name))
                        break
                else:
                    recipe = None  # unresolvable key: keep round-robin
                    break
            if recipe:
                self._remote_keys[node.name.lower()] = tuple(recipe)

    def _remote_owner(
        self, lower: str, values: Mapping[str, Any] | Row
    ) -> int | None:
        """Owning shard for a keyed remote element (None = round-robin)."""
        recipe = self._remote_keys.get(lower)
        if recipe is None:
            return None
        if isinstance(values, Row):
            parts = [values.values[position] for position, _, _ in recipe]
        else:
            parts = [
                values.get(full, values.get(bare)) for _, full, bare in recipe
            ]
        key = parts[0] if len(parts) == 1 else tuple(parts)
        owners = self._owners.setdefault(lower, {})
        try:
            owner = owners.get(key)
        except TypeError:  # unhashable key value: no memo, direct hash
            self._owner_misses += 1
            return stable_hash(key) % len(self._channels)
        if owner is None:
            self._owner_misses += 1
            owner = stable_hash(key) % len(self._channels)
            self._remember(owners, key, owner)
        else:
            self._owner_hits += 1
        return owner

    def stop(self, handle: QueryHandle) -> None:
        """Stop a pool query (all replicas / the fallback). Idempotent."""
        tracked = self._handles.pop(handle.query_id, None)
        if tracked is None:
            return
        self._subscribe(tracked, -1)
        if tracked.partitioned:
            channels = self._channels
        else:
            channels = [self._fallback]
        for channel in channels:
            try:
                channel.stop(tracked.query_id)
            except ShardDied:
                pass  # the corpse hosts nothing; failover re-admits tracked handles only

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    _OWNER_CACHE_LIMIT = 8192

    def _remember(self, owners: dict, value: Any, owner: int) -> None:
        """Memoize ``value``'s owner in one source's owner memo, a plain
        dict bounded at :data:`_OWNER_CACHE_LIMIT` by evicting its
        oldest entry (a full ``clear()`` would stall ingest with a burst
        of stable_hash recomputations each time a high-cardinality key
        wraps the limit)."""
        if len(owners) >= self._OWNER_CACHE_LIMIT:
            del owners[next(iter(owners))]
            self._owner_evictions += 1
        owners[value] = owner

    def _route(
        self, lower: str, rows: list, stamps: list[float] | None
    ) -> tuple[list[list], list[list[float]] | None]:
        """Split a batch into per-shard sub-batches (arrival order kept
        within each shard): by owner of the declared partition key, else
        round-robin. ``stamps`` is None for one scalar timestamp."""
        shards = len(self._channels)
        key = self._keys.get(lower)
        if key is None:
            cursor = self._round_robin.get(lower, 0)
            self._round_robin[lower] = (cursor + len(rows)) % shards
            per_rows: list = [None] * shards
            per_stamps = None if stamps is None else [None] * shards
            for offset in range(shards):
                shard = (cursor + offset) % shards
                per_rows[shard] = rows[offset::shards]
                if stamps is not None:
                    per_stamps[shard] = stamps[offset::shards]
            return per_rows, per_stamps
        # Rows arrive coerced onto the catalog schema, so the declared
        # key's catalog position is authoritative. One loop over the
        # source's owner memo (shared with ``_remote_owner``): a row
        # whose key it holds costs a dict probe and two appends.
        index = self._key_index[lower]
        owners = self._owners.setdefault(lower, {})
        get = owners.get
        per_rows = [[] for _ in range(shards)]
        per_stamps = [[] for _ in range(shards)]
        misses = 0
        for row, stamp in zip(rows, itertools.repeat(None) if stamps is None else stamps):
            value = row.values[index]
            try:
                owner = get(value)
            except TypeError:  # unhashable key value: no memo, direct hash
                owner = stable_hash(value) % shards
                misses += 1
            else:
                if owner is None:
                    misses += 1
                    owner = stable_hash(value) % shards
                    self._remember(owners, value, owner)
            per_rows[owner].append(row)
            per_stamps[owner].append(stamp)
        self._owner_hits += len(rows) - misses
        self._owner_misses += misses
        return per_rows, None if stamps is None else per_stamps

    def _ingest_loop(self, schema: Schema) -> Callable:
        """The pool's row-coercing ingest loop for ``schema``."""
        return ingest_loop(self._ingest_loops, schema)

    def push(
        self,
        source: str,
        row: Row | Mapping[str, Any],
        timestamp: float,
    ) -> None:
        """Push one element to its owning shard (and the fallback feed)."""
        self.push_many(source, [row], [timestamp])

    @edge
    def push_many(
        self,
        source: str,
        rows: Sequence[Row | Mapping[str, Any]],
        timestamps: float | Sequence[float] = 0.0,
    ) -> int:
        """Batched ingestion: the batch is split into per-shard
        sub-batches (preserving arrival order within each shard) and
        each shard consumes its sub-batch through the vectorized
        ``push_many`` path. The fallback engine, when subscribed,
        receives the whole batch unsplit — identical to what a single
        engine would see."""
        entry = self._catalog.source(source)
        lower = entry.name.lower()
        # Coerced once, here: a malformed row raises before anything is
        # routed, logged or sent, so no shard sees part of a rejected
        # batch, and every host takes the identity pass-through.
        rows = self._ingest_loop(entry.schema)(rows)
        stamps = None
        if not isinstance(timestamps, (int, float)):
            stamps = timestamps if isinstance(timestamps, list) else list(timestamps)
            if len(stamps) != len(rows):
                raise ExecutionError(
                    f"push_many got {len(rows)} rows but {len(stamps)} timestamps"
                )
        checkpointer = self.checkpointer
        fed = lower in self._shard_subs
        per_rows, per_stamps = self._route(lower, rows, stamps)
        for shard, shard_rows in enumerate(per_rows):
            if not shard_rows:
                continue
            shard_stamps = timestamps if stamps is None else per_stamps[shard]
            if checkpointer is not None:
                checkpointer.record(("many", shard, source, shard_rows, shard_stamps))
            if fed:
                self._call(shard, "ingest", source, shard_rows, shard_stamps)
        if lower in self._fallback_subs:
            whole = timestamps if stamps is None else stamps
            if checkpointer is not None:
                checkpointer.record(("many", FALLBACK, source, rows, whole))
            self._call(FALLBACK, "ingest", source, rows, whole)
        self.elements_ingested += len(rows)
        return len(rows)

    @edge
    def push_remote(
        self, name: str, values: Mapping[str, Any] | Row, timestamp: float
    ) -> None:
        """Route a remote-source element (a federated fragment's output
        arriving at the basestation) into whichever engines subscribed:
        a partition-safe residual has one replica per shard, so its
        remote feed either hash-routes on the fragment's declared
        ``partition_by`` key or round-robins across them; an unsafe
        residual's ports live on the fallback engine and receive the
        full feed there."""
        lower = name.lower()
        schema = self._remote_schemas.get(lower)
        if schema is not None:
            # Shaped here, as push_many coerces: a tuple that does not
            # fit raises before it is logged, counted or routed.
            StreamEngine._remote_row(schema, values)
        self.elements_ingested += 1
        checkpointer = self.checkpointer
        targets = []
        if lower in self._shard_subs:
            owner = self._remote_owner(lower, values)
            if owner is None:
                owner = self._round_robin.get(lower, 0)
                self._round_robin[lower] = (owner + 1) % len(self._channels)
            targets.append(owner)
        if lower in self._fallback_subs:
            targets.append(FALLBACK)
        for target in targets:
            if checkpointer is not None:
                checkpointer.record(("remote", target, name, values, timestamp))
            self._call(target, "ingest_remote", name, values, timestamp)

    @edge
    def punctuate(self, watermark: float, sources: list[str] | None = None) -> None:
        """Broadcast the watermark to every engine; merged sinks forward
        one punctuation once all replicas have processed it.

        The punctuation is logged *before* the broadcast, so a shard
        found dead at any point of the barrier recovers by replaying
        it: the watermark that triggered detection reaches the restored
        replicas too, and the merged punctuation (held while the dead
        shard's watermark was frozen) advances in the same segment as a
        failure-free run.
        """
        checkpointer = self.checkpointer
        if checkpointer is not None:
            checkpointer.record(("punct", None, watermark, sources))
        if self._shard_subs:
            # Round 1: every shard punctuates (sent to all before any
            # is waited for — worker processes run it concurrently).
            shards = range(len(self._channels))
            for index in shards:
                self._call(index, "punctuate", watermark, sources)
            for index in shards:  # a framed channel forwards emissions while settling
                self._call(index, "settle")
            # Round 2, the shuffle barrier: stage-1 emissions (including
            # this punctuation's window closes and running deltas) flush
            # to their destination shards, then the exchange ports are
            # punctuated — so stage 2 sees everything ≤ watermark before
            # its own watermark advances, exactly like a single engine.
            self._deliver_exchanges(watermark, sources)
        self._call(FALLBACK, "punctuate", watermark, sources)
        if checkpointer is not None:
            checkpointer.barrier(watermark)

    def _deliver_exchanges(
        self, watermark: float, sources: list[str] | None = None
    ) -> None:
        """Flush every exchanged query's shuffle buffers — all of them
        before anything is sent, so the flushed counts failover dedups
        against always cover a *prefix* of each shard's emissions — then
        deliver per destination shard and wait for all of them. A
        destination's delivery carries one punctuation: every exchange
        port it advances, in delivery order, at the one watermark (one
        ``punctuate`` there and one ``xpunct`` log entry)."""
        named = None if sources is None else {s.lower() for s in sources}
        checkpointer = self.checkpointer
        deliveries: dict[int, tuple[list, list]] = {}  # dest -> (runs, port names)
        for handle in self._handles.values():
            if not handle.exchanged:
                continue
            state = handle.exchange
            xnames = state.names
            if named is not None:
                # A named punctuate advances only the feeds whose
                # stage-1 subtree reads one of the named sources (a
                # shuffled join side holds its watermark until its own
                # source is punctuated, matching the single engine).
                xnames = [
                    name for name, reads in zip(xnames, state.sources) if reads & named
                ]
                if not xnames:
                    continue
            for dest in state.dests:
                runs, names = deliveries.setdefault(dest, ([], []))
                flushed = state.flush(dest)
                if flushed:
                    runs += flushed
                    self._exchange_runs += len(flushed)
                    self._exchange_delivered += sum(len(run[1]) for run in flushed)
                    if checkpointer is not None:
                        checkpointer.record(("xdeliver", dest, flushed))
                names += xnames
        if not deliveries:
            return
        self._exchange_rounds += 1
        if checkpointer is not None:
            for dest, (_, names) in deliveries.items():
                checkpointer.record(("xpunct", dest, watermark, names))
        for dest, (runs, names) in deliveries.items():
            self._call(dest, "deliver", runs, [(watermark, names)])
        for dest in deliveries:
            self._call(dest, "settle")

    # ------------------------------------------------------------------
    # Tables (replicated to every engine)
    # ------------------------------------------------------------------
    @edge
    def load_table(
        self,
        name: str,
        rows: list[Row | Mapping[str, Any]],
        timestamp: float = 0.0,
    ) -> None:
        schema = self._catalog.source(name).schema
        # Coerced once, here: errors surface before anything is logged
        # or sent, and every host takes the identity fast path.
        rows = [StreamEngine._coerce_row(schema, row) for row in rows]
        if self.checkpointer is not None:
            self.checkpointer.record(("table", None, name, rows, timestamp))
        for index in self._everyone():
            self._call(index, "load_table", name, rows, timestamp)

    def table_rows(self, name: str) -> list[Row]:
        return self._fallback.engine.table_rows(name)

    def drop_table(self, name: str) -> None:
        if self.checkpointer is not None:
            self.checkpointer.record(("drop", None, name))
        for index in self._everyone():
            self._call(index, "drop_table", name)

    # ------------------------------------------------------------------
    # Barriers, failure and failover
    # ------------------------------------------------------------------
    def snapshot_hosts(self) -> tuple[list[tuple[dict, dict]], tuple[dict, dict]]:
        """Every shard's ``snapshot`` reply, then the fallback's (the
        checkpoint coordinator assembles the barrier from them)."""
        return (
            [
                self._call(index, "snapshot", retry=True)
                for index in range(len(self._channels))
            ],
            self._call(FALLBACK, "snapshot", retry=True),
        )

    def fail_shard(self, index: int, sig=None):
        """Kill one shard (state loss — see ``StreamEngine.fail``; a
        worker process gets ``sig``, SIGKILL by default). The next verb
        reaching the shard triggers failover from the attached
        CheckpointCoordinator. Returns the corpse."""
        return self._channels[index].kill(sig)

    def fail_fallback(self) -> None:
        """Kill the designated fallback engine."""
        self._fallback.kill()

    def _recover(self, index) -> None:
        """Failover one dead shard (or the fallback): respawn it and run
        the coordinator's one recovery routine
        (:meth:`~repro.stream.checkpoint.CheckpointCoordinator.restore_host`)
        over its channel, with every query it hosts — each started by
        :meth:`_admit` into fresh merge (or shuffle) feeds, pinned to
        the sharing decision recorded at the barrier, and skipping what
        its slot forwarded since the barrier (or since its admission),
        so each sink sees each result exactly once.

        A host that dies again while it recovers is respawned and
        recovered again from the same checkpoint — every start makes
        fresh feeds whose skips count from the merge slots and shuffle
        ports, which a half-done attempt left as they were — up to
        :data:`RECOVERY_ATTEMPTS` times in all; then it raises
        :class:`~repro.errors.RecoveryError`.
        """
        on_fallback = index == FALLBACK
        channel = self._channel(index)
        hosted = [h for h in self._handles.values() if h.partitioned != on_fallback]
        coordinator = self.checkpointer
        if coordinator is None and hosted:
            raise ExecutionError(
                f"{'the fallback engine' if on_fallback else f'shard {index}'} "
                "failed with queries running and no CheckpointCoordinator "
                "attached — attach one (connect(checkpoint_interval=...)) to "
                "enable failover"
            )
        if coordinator is None:
            channel.respawn()
            return
        checkpoint = coordinator.latest()
        slot = 0 if on_fallback else index
        states, starts = {}, {}
        for handle in hosted:
            handle_cp = None
            if checkpoint is not None:
                handle_cp = checkpoint.handles.get(handle.query_id)
            if handle_cp is not None:
                if handle_cp.merge_counts is None:
                    raise ExecutionError(
                        f"checkpointed pool query {handle.query_id} uses the "
                        "sink-length fallback layout ('sink_len' / "
                        "'sink_punct_len', no 'merge_counts'), which this pool "
                        "does not restore: a fallback replica dedups on its "
                        "one-slot merge's forwarded count"
                    )
                states[handle.query_id] = handle_cp.replicas[slot]
            starts[handle.query_id] = lambda _admission, handle=handle, handle_cp=handle_cp: (
                self._admit(handle, index, handle_cp)
            )
        chains = None
        if checkpoint is not None:
            chains = checkpoint.fallback_chains if on_fallback else checkpoint.shard_chains[index]
        replay = coordinator.replay_plan(checkpoint)
        for _ in range(RECOVERY_ATTEMPTS):
            channel.respawn()
            try:
                coordinator.restore_host(channel, index, checkpoint, replay, chains, states, starts)
                return
            except ShardDied:
                continue
        raise RecoveryError(index, RECOVERY_ATTEMPTS)
