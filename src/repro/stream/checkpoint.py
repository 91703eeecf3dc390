"""Checkpoint/restore for standing queries.

The paper's queries are *always-on*: window buffers, symmetric-join hash
tables and accumulator maps represent minutes-to-weeks of observed
environment state, so an engine death must not reset them. This module
provides the recovery spine:

* :class:`CheckpointCoordinator` — attaches to a :class:`StreamEngine`
  or a :class:`~repro.stream.sharded.ShardedStreamEngine` pool, appends
  every ingest call (and every admission) to a bounded
  :class:`ReplayLog`, and snapshots operator state at
  **punctuation-aligned barriers** (every ``interval`` seconds of
  stream time) into a :class:`CheckpointStore`. Barriers are aligned
  because punctuation is the only point where an operator's externally
  observable state is well-defined: windows at or before the watermark
  have been emitted, expired join rows evicted.
* :class:`MemoryCheckpointStore` / :class:`FileCheckpointStore` — keep
  the last few checkpoints in memory or pickled on disk.
* Recovery — one routine, :meth:`CheckpointCoordinator.restore_host`,
  over the verbs of a :class:`~repro.stream.channel.ShardHost`: it
  restarts each hosted query into fresh feeds, pinned to its barrier
  sharing decision (compilation is deterministic, so operator order
  matches the snapshot positionally), pours the barrier state back in,
  seeds the barrier's tables and replays only the **log suffix since
  the barrier**. The pool's failover
  (:meth:`ShardedStreamEngine._recover`) runs it for each dead shard
  through the shard's channel; :meth:`CheckpointCoordinator.recover`
  runs it for a plain engine through a host over that same engine.

A checkpoint holds operator state, tables and counts — never results.
Results stay where they were delivered: a query's sink (a shared
query's view reads its chain's log) outlives an engine death, and the
restored pipeline writes into it again through a :class:`Feed`, which
drops what the replay derives a second time, counted against what the
sink had received at the barrier — on a pool, what the query's merge
slot had forwarded. A query admitted since the barrier starts again
where the replay reaches its admission, its skip counted from there,
so its cursor too reads every result once. A recovery is therefore
invisible to a cursor's ``results()`` and subscriptions, and a
checkpoint's size does not grow with the results delivered.

**A process restart is not a recovery of the sinks, and it replays
nothing.** A fresh engine restored from a :class:`FileCheckpointStore`
has no sink to write into: each query comes back under a new handle
with a new sink that reads from the barrier on. The :class:`ReplayLog`
lives in memory only, so a fresh coordinator replays no entry
(``last_replay["entries"] == 0``): rows ingested after the latest
barrier are lost unless the caller pushes them again, and ``results()``
history from before the barrier does not survive either; nor does a
query admitted since the barrier.

Snapshots share :class:`StreamElement` objects (immutable by
convention) and copy only the mutable containers, so a barrier costs
O(state size) pointer copies, not a deep serialization — the file store
pays serialization only when explicitly chosen.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import pickle
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.data.streams import (
    CollectingConsumer,
    LogView,
    Punctuation,
    StreamElement,
    StreamItem,
    push_all,
    replayed,
)
from repro.errors import ExecutionError
from repro.plan.logical import LogicalOp

#: Replay-log key marking entries delivered to the pool's fallback engine.
FALLBACK = "fb"
#: What a recovery replays: every kind a verb logs but ``("drop", ...)``,
#: which :meth:`CheckpointCoordinator.replay_plan` applies instead.
_LOG_KINDS = frozenset({"admit", "punct", "table", "many", "push", "remote", "xdeliver", "xpunct"})


class ReplayLog:
    """Bounded in-order ingest log with monotonically increasing seqs.

    Entries older than the newest barrier are pruned
    (:meth:`prune_through`); the hard ``limit`` bounds memory even when
    no barrier ever fires. :meth:`suffix` raises when the requested
    range was truncated — recovery must then fall back to a newer
    checkpoint rather than silently dropping input.
    """

    def __init__(self, limit: int = 1_000_000):
        self._entries: deque[tuple] = deque()
        self.base_seq = 0
        self.limit = limit

    @property
    def next_seq(self) -> int:
        return self.base_seq + len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, entry: tuple) -> None:
        self._entries.append(entry)
        if len(self._entries) > self.limit:
            self._entries.popleft()
            self.base_seq += 1

    def prune_through(self, seq: int) -> None:
        """Drop entries with seq below ``seq`` (subsumed by a barrier)."""
        while self.base_seq < seq and self._entries:
            self._entries.popleft()
            self.base_seq += 1

    def suffix(self, from_seq: int) -> list[tuple]:
        """Entries with seq >= ``from_seq``, oldest first."""
        if from_seq < self.base_seq:
            raise ExecutionError(
                f"replay log truncated: recovery needs entries from seq "
                f"{from_seq} but the log starts at {self.base_seq} — "
                f"raise the log limit or checkpoint more often"
            )
        start = from_seq - self.base_seq
        return list(itertools.islice(self._entries, start, None))


# ----------------------------------------------------------------------
# Checkpoint payloads
# ----------------------------------------------------------------------
@dataclass
class QueryCheckpoint:
    """One query's barrier state on a plain engine.

    Operator state holds rows as the operators hold them (a buffered
    source row keeps its catalog schema); restore re-executes ``plan``,
    which rebuilds a hand-built plan's exit label with the pipeline.
    """

    plan: LogicalOp
    operators: list[dict]
    #: The handle's id: a restore re-executes the plan into the handle
    #: the engine still holds under it.
    query_id: int
    #: Elements the query's sink — a view's: its chain's log — had
    #: received at the barrier (``CollectingConsumer.received``, which
    #: ``clear()`` does not reset); None for a custom consumer, which
    #: keeps no count.
    received: int | None
    #: Whether the query ran as tee branches of shared chains at the
    #: barrier; ``operators`` then holds only its residual pipeline and
    #: the chain state lives in ``EngineCheckpoint.chains``. Restore
    #: pins the re-executed query to the same sharing decision.
    shared: bool = False


@dataclass
class EngineCheckpoint:
    """Barrier state of one :class:`StreamEngine`."""

    checkpoint_id: int
    watermark: float
    log_seq: int  # replay starts here
    tables: dict[str, list[StreamElement]]
    queries: list[QueryCheckpoint]
    #: Shared-chain operator states by structural fingerprint — one
    #: snapshot per chain however many queries fan out of it.
    chains: dict = field(default_factory=dict)


@dataclass
class HandleCheckpoint:
    """One pool query's barrier state across its replicas."""

    plan: LogicalOp
    partitioned: bool
    #: Per-shard operator states for partitioned handles; a single
    #: entry (the fallback replica) otherwise.
    replicas: list[list[dict]]
    #: Merge-coordinator forwarded-element counts per slot at the
    #: barrier — one per shard, per stage-2 destination, or the
    #: fallback replica's one. A recovering replica skips the elements
    #: its slot forwarded since: ``forwarded(slot) - merge_counts[slot]``.
    merge_counts: list[int]
    #: Per-replica sharing decisions (aligned with ``replicas``);
    #: failover re-executes each replica under the same decision.
    shared: list[bool] = field(default_factory=list)
    #: Exchanged handles only: the pool-side shuffle state at the
    #: barrier (``{"flushed": {(ordinal, src): count}, "dests": [...]}``
    #: — buffers are empty at barriers by construction). ``replicas``
    #: then holds per-shard ``{"s1": [stage-1 op states per spec],
    #: "s2": stage-2 op states or None}`` dicts and ``merge_counts``
    #: aligns with ``dests``.
    exchange: dict | None = None


@dataclass
class PoolCheckpoint:
    """Barrier state of a :class:`ShardedStreamEngine` pool."""

    checkpoint_id: int
    watermark: float
    log_seq: int
    tables: dict[str, list[StreamElement]]
    handles: dict[int, HandleCheckpoint] = field(default_factory=dict)
    #: Per-shard shared-chain snapshots (aligned with pool.engines),
    #: plus the designated fallback engine's.
    shard_chains: list[dict] = field(default_factory=list)
    fallback_chains: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Stores
# ----------------------------------------------------------------------
class MemoryCheckpointStore:
    """Keeps the last ``keep`` checkpoints in memory."""

    def __init__(self, keep: int = 4):
        self.keep = keep
        self.checkpoints: list = []

    def save(self, checkpoint) -> None:
        self.checkpoints.append(checkpoint)
        del self.checkpoints[: -self.keep]

    def latest(self):
        return self.checkpoints[-1] if self.checkpoints else None


class FileCheckpointStore:
    """Pickles checkpoints into ``directory``, pruning old files.

    Existing ``checkpoint-*.pkl`` files are picked up on construction,
    so a store pointed at a previous run's directory can serve
    :meth:`latest` across process restarts. A file is written under a
    temporary name the glob skips and then renamed into place, so a
    process killed mid-save leaves the previous checkpoint the latest;
    a file that does not unpickle fails :meth:`latest` with an
    ``ExecutionError`` naming it.
    """

    def __init__(self, directory, keep: int = 4):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self._paths = sorted(
            self.directory.glob("checkpoint-*.pkl"),
            key=lambda p: int(p.stem.split("-")[1]),
        )

    def save(self, checkpoint) -> None:
        path = self.directory / f"checkpoint-{checkpoint.checkpoint_id:08d}.pkl"
        try:
            data = pickle.dumps(checkpoint)
        except (pickle.PicklingError, TypeError) as exc:
            raise ExecutionError(f"checkpoint is not serializable: {exc}") from exc
        temp = path.with_name(path.name + ".tmp")
        try:
            temp.write_bytes(data)
            os.replace(temp, path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
        self._paths.append(path)
        while len(self._paths) > self.keep:
            stale = self._paths.pop(0)
            stale.unlink(missing_ok=True)

    def latest(self):
        if not self._paths:
            return None
        path = self._paths[-1]
        try:
            return pickle.loads(path.read_bytes())
        except Exception as exc:  # whatever a damaged pickle raises
            raise ExecutionError(f"checkpoint file {path} does not unpickle: {exc!r}") from exc


# ----------------------------------------------------------------------
# Dedup feeds
# ----------------------------------------------------------------------
class Feed:
    """The terminal consumer of one restored pipeline, and recovery's
    dedup point. Subclasses say where a run of elements goes (``_run``)
    and where a punctuation goes (``_punctuate``); the rest is here. The
    pool's feeds stand in front of a merge slot or a shuffle port
    (:mod:`repro.stream.sharded`), :class:`SinkFeed` in front of a
    restarted plain-engine query's sink.

    A feed drops the first ``skip`` elements it is handed (the
    re-derivations of what the dead pipeline already delivered), then
    everything flows through; the skip never counts a punctuation.
    """

    __slots__ = ("_skip",)

    def __init__(self, skip: float):
        self._skip = skip

    def push(self, item: StreamItem) -> None:
        if isinstance(item, Punctuation):
            self._punctuate(item.watermark)
        elif self._skip > 0:
            self._skip -= 1
        else:
            self._run([item])

    def push_batch(self, elements: list[StreamElement]) -> None:
        drop = self._skipped(len(elements))
        if drop:
            elements = elements[drop:]
        if elements:
            self._run(elements)

    def _skipped(self, count: int) -> int:
        """How many of the next ``count`` elements the skip drops."""
        drop = min(self._skip, count)
        self._skip -= drop
        return drop


class SinkFeed(Feed):
    """Writes a restarted plain-engine query into the sink that outlived
    the failure (a view's: into its chain's log again).

    The sink already holds everything the replay of the log suffix
    derives: the feed drops as many elements as the sink received since
    the barrier (or since the query's admission) and every punctuation
    until :meth:`arm`, which the recovery calls once the suffix is
    replayed, so the sink records nothing twice. A sink that keeps no
    count (``skip`` None) gets no element until then either.
    """

    __slots__ = ("_sink", "_held")

    def __init__(self, sink, skip: int | None):
        super().__init__(math.inf if skip is None else skip)
        self._sink, self._held = sink, True

    def _run(self, elements: list[StreamElement]) -> None:
        push_all(self._sink, elements)

    def _punctuate(self, watermark: float) -> None:
        if not self._held:
            self._sink.push(Punctuation(watermark))

    def arm(self) -> None:
        """The suffix is replayed: everything flows through from now on."""
        self._held = False
        if self._skip == math.inf:
            self._skip = 0


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class CheckpointCoordinator:
    """Barrier scheduler + replay log for one engine or pool.

    Attaching sets ``engine.checkpointer = self``; the engine then calls
    :meth:`record` on every ingest and :meth:`on_punctuation` after
    each watermark broadcast. ``interval`` is measured in stream time
    (watermark deltas): ``interval=0`` checkpoints at every punctuation,
    ``interval=None`` only on explicit :meth:`checkpoint` calls — the
    log still accumulates, so cold recovery (replay from seq 0) works
    before the first barrier.
    """

    def __init__(
        self,
        engine,
        store=None,
        interval: float | None = None,
        log_limit: int = 1_000_000,
    ):
        if interval is not None and interval < 0:
            raise ExecutionError("checkpoint interval must be >= 0")
        self.engine = engine
        self.store = store if store is not None else MemoryCheckpointStore()
        self.interval = interval
        self.log = ReplayLog(log_limit)
        self.checkpoints_taken = 0
        #: Set by each recovery: {"target", "from_seq", "entries"} — the
        #: suffix-only replay assertion reads this.
        self.last_replay: dict | None = None
        self._last_barrier: float | None = None
        self._ids = itertools.count(1)
        engine.checkpointer = self

    # -- engine hooks ---------------------------------------------------
    def record(self, entry: tuple) -> None:
        self.log.append(entry)

    def on_punctuation(self, watermark: float, sources=None) -> None:
        self.log.append(("punct", None, watermark, sources))
        self.barrier(watermark)

    def barrier(self, watermark: float) -> None:
        """Checkpoint when the interval elapsed. The pool logs its
        punctuation *ahead* of the broadcast (a shard that dies inside
        the barrier recovers by replaying it) and calls this after."""
        if self.interval is None:
            return
        if self._last_barrier is None or watermark >= self._last_barrier + self.interval:
            self.checkpoint(watermark)

    # -- barriers -------------------------------------------------------
    def checkpoint(self, watermark: float = float("-inf")):
        """Take a barrier snapshot now and prune the log behind it.

        For punctuation alignment call this right after
        :meth:`StreamEngine.punctuate` (the interval-driven path does).
        """
        log_seq = self.log.next_seq
        checkpoint_id = next(self._ids)
        snapshot = (
            _snapshot_pool if hasattr(self.engine, "shard_count") else _snapshot_engine
        )
        checkpoint = snapshot(self.engine, checkpoint_id, watermark, log_seq)
        self.store.save(checkpoint)
        self.log.prune_through(log_seq)
        self.checkpoints_taken += 1
        self._last_barrier = watermark
        return checkpoint

    def latest(self):
        return self.store.latest()

    # -- recovery -------------------------------------------------------
    def recover(self):
        """Restore a plain engine from the latest barrier + log suffix,
        by :meth:`restore_host` through a host over the engine itself.
        Returns the restored handles: those the engine held at the
        failure, in checkpoint order, then those admitted since the
        barrier in admission order — so a caller's cursors and
        subscriptions carry on with no rebinding, a query admitted since
        the barrier included: it starts again where the replay reaches
        its admission, and its cursor reads every result once. A query
        stopped since the barrier stays stopped. On an engine that did
        not fail — a fresh process's, which holds none — a checkpointed
        query comes back under a new handle whose new sink reads from
        the barrier on.

        Pools recover per shard through the pool's failover path, which
        runs the same routine; calling this on a pool is an error.
        """
        if hasattr(self.engine, "shard_count"):
            raise ExecutionError(
                "pool recovery is per-shard: ingest into the pool (or "
                "punctuate) and the failed shard restores itself"
            )
        checkpoint = self.store.latest()
        if checkpoint is None:
            # A plain engine restores the queries a barrier recorded,
            # so there is nothing to rebuild from without one. (The
            # pool's cold failover re-admits the handles it tracks and
            # replays the full log.)
            raise ExecutionError(
                "no checkpoint to recover from — set an interval or call "
                "checkpoint() at least once before the failure"
            )
        if any("sink" in vars(query_cp) for query_cp in checkpoint.queries):
            raise ExecutionError(
                "checkpoint uses the sink-content layout ('sink', no 'received' "
                "count), which this engine does not restore"
            )
        from repro.stream.channel import ShardHost  # it imports this module
        from repro.stream.engine import QueryHandle, _query_ids

        replay = self.replay_plan(checkpoint)  # raises on a truncated log first
        engine = self.engine
        held, failed = engine._queries, engine.failed
        outlived = set(held)
        engine.fail()
        engine.failed, engine._queries = False, {}
        host = ShardHost("engine", engine)
        feeds: dict[int, SinkFeed] = {}  # id(sink, or a view's log) -> its one feed
        handles: list = []

        def start(handle, shared, received, admission):
            """Restart ``handle``: one whose sink outlived the failure
            through that sink's feed, which skips what the sink took since
            the barrier (or since ``admission``); a new handle straight
            into its new sink."""
            if admission is not None:  # ("admit", None, query_id, received, shared)
                received, shared = admission[3], admission[4]
            feed = None
            if handle.query_id in outlived:
                target = handle.sink.log if isinstance(handle.sink, LogView) else handle.sink
                feed = feeds.get(id(target))
                if feed is None:
                    count = getattr(target, "received", None)
                    skip = None if count is None or received is None else count - received
                    feed = feeds[id(target)] = SinkFeed(target, skip)
            engine._start(handle, shared, feed)
            host.queries[handle.query_id] = handle
            handles.append(handle)

        states, starts = {}, {}
        for query_cp in checkpoint.queries:
            handle = held.pop(query_cp.query_id, None)
            if handle is None and failed:  # stopped since the barrier: it stays stopped
                continue
            if handle is None:
                # A sink of its own, never a view: a regrown chain's log
                # is the one a held view brings back.
                handle = QueryHandle(
                    next(_query_ids), query_cp.plan, None, CollectingConsumer(), engine
                )
            states[handle.query_id] = query_cp.operators
            starts[handle.query_id] = functools.partial(
                start, handle, query_cp.shared, query_cp.received
            )
        for handle in held.values():  # admitted since the barrier (or before the log began)
            starts[handle.query_id] = functools.partial(start, handle, None, None)
        engine.checkpointer = None  # the replay logs nothing
        try:
            self.restore_host(host, None, checkpoint, replay, checkpoint.chains, states, starts)
        finally:
            engine.checkpointer = self
            for feed in feeds.values():
                feed.arm()
        return handles

    def restore_host(
        self, host, key, checkpoint, replay, chains, states: dict, starts: dict
    ) -> None:
        """The one recovery routine: bring ``host`` — a pool's respawned
        shard or fallback, or a plain engine through a host over it —
        from ``checkpoint`` (None before the first barrier) to the
        present, through the verbs a
        :class:`~repro.stream.channel.ShardHost` has.

        ``key`` names the host's own log entries (a shard index,
        ``FALLBACK``, or None on a plain engine, whose log holds no
        other, and which names no shard); punctuations, table loads and
        admissions reach every host. ``replay`` is :meth:`replay_plan`
        of ``checkpoint``, which the caller makes before it touches the
        host. ``chains`` is the barrier's shared-chain state here;
        ``states`` maps each query the barrier holds to its operator
        states here. ``starts`` maps every query to bring back, in start
        order, to its start, which starts it into fresh :class:`Feed` s
        whose skips count what its sink (or merge slot) took since the
        barrier: ``start(None)`` for a query the barrier holds,
        ``start(entry)`` — counting since then — for one admitted since,
        at its ``("admit", ...)`` entry.

        In order: start each query the barrier holds (and one whose
        admission the suffix does not record: admitted before the log
        began), pinned to its sharing decision at the barrier; pour the
        barrier state back in; seed the barrier's tables — after the
        starts, so no restarted pipeline derives again from them what
        the state already holds; replay the log suffix through the verbs
        live ingest uses, starting each query admitted since the barrier
        where the replay reaches its admission.
        """
        from repro.stream.channel import ShardDied  # it imports this module

        tables, suffix = replay
        admitted = {entry[2] for entry in suffix if entry[0] == "admit"}
        for query_id, start in starts.items():
            if query_id in states or query_id not in admitted:
                start(None)
        if checkpoint is not None:
            host.restore(states, chains)
        host.seed(tables)
        count = 0
        for entry in suffix:
            kind, at = entry[0], entry[1]
            if kind not in _LOG_KINDS:  # log corruption
                raise ExecutionError(f"unknown replay-log entry kind {kind!r}")
            if at is not None and at != key:
                if key is None:  # a plain engine logs nothing to a shard
                    raise ExecutionError(
                        f"replay-log entry {kind!r} names shard {at!r} on a plain engine"
                    )
                continue
            if kind == "admit":
                if entry[2] not in starts:  # hosted elsewhere, or stopped since
                    continue
                call = starts[entry[2]], entry
            elif kind == "punct":
                call = host.punctuate, entry[2], entry[3]
            elif kind == "table":
                call = host.load_table, entry[2], entry[3], entry[4]
            elif kind == "many":
                call = host.ingest, entry[2], entry[3], entry[4]
            elif kind == "push":
                call = host.ingest, entry[2], [entry[3]], [entry[4]]
            elif kind == "remote":
                call = host.ingest_remote, entry[2], entry[3], entry[4]
            elif kind == "xdeliver":
                call = host.deliver, entry[2], []
            else:  # "xpunct"
                call = host.deliver, [], [(entry[2], entry[3])]
            # What the verb raised reached its caller when it first ran;
            # a second death of the shard is not dropped.
            replayed(*call, keep=ShardDied)
            count += 1
        # Replayed emissions (a worker's errors ride along) have cleared
        # the skips.
        replayed(host.settle, keep=ShardDied)
        self.last_replay = {
            "target": "engine" if key is None else key,
            "from_seq": checkpoint.log_seq if checkpoint is not None else 0,
            "entries": count,
        }

    def replay_plan(self, checkpoint) -> tuple[dict, list[tuple]]:
        """What a recovery seeds and replays: the barrier's tables and
        the log suffix since it (the whole log when ``checkpoint`` is
        None), with ``("drop", ...)`` records already applied — a table
        dropped since the barrier is neither seeded nor are its earlier
        loads replayed (its source may have left the catalog)."""
        suffix = self.log.suffix(checkpoint.log_seq if checkpoint is not None else 0)
        dropped: set[str] = set()
        kept = []
        for entry in reversed(suffix):
            if entry[0] == "drop":
                dropped.add(entry[2].lower())
            elif entry[0] != "table" or entry[2].lower() not in dropped:
                kept.append(entry)
        kept.reverse()
        tables = checkpoint.tables if checkpoint is not None else {}
        return (
            {n: list(e) for n, e in tables.items() if n.lower() not in dropped},
            kept,
        )


# ----------------------------------------------------------------------
# Snapshot helpers (same-package access to engine internals)
# ----------------------------------------------------------------------
def restore_operators(handle, states: list[dict]) -> None:
    """Load checkpointed operator states into a recompiled query (or
    shared chain), refusing a snapshot of another shape."""
    operators = handle.compiled.operators
    if len(operators) != len(states):
        raise ExecutionError("checkpointed operator count does not match the recompiled plan")
    for operator, state in zip(operators, states):
        operator.state_restore(state)


def snapshot_operators(handle) -> list[dict]:
    """Barrier state of every operator of one compiled replica."""
    return [op.state_snapshot() for op in handle.compiled.operators]


def _snapshot_engine(engine, checkpoint_id, watermark, log_seq) -> EngineCheckpoint:
    queries = [
        QueryCheckpoint(
            plan=handle.plan,
            operators=snapshot_operators(handle),
            query_id=handle.query_id,
            received=getattr(handle.sink, "received", None),
            shared=handle.shared,
        )
        for handle in engine.running_queries
    ]
    tables = {name: list(elements) for name, elements in engine._tables.items()}
    return EngineCheckpoint(
        checkpoint_id,
        watermark,
        log_seq,
        tables,
        queries,
        chains=engine.subplans.snapshot_chains(),
    )


def _snapshot_pool(pool, checkpoint_id, watermark, log_seq) -> PoolCheckpoint:
    """Assemble the pool barrier from each host's ``snapshot`` verb
    (``{query_id: (states, shared)}, chains`` per shard and for the
    fallback) plus the parent-side merge and shuffle counters."""
    shards, (fallback_states, fallback_chains) = pool.snapshot_hosts()
    handles: dict[int, HandleCheckpoint] = {}
    for query_id, handle in pool._handles.items():
        if handle.partitioned:
            replicas = [states[query_id] for states, _ in shards]
        else:
            replicas = [fallback_states[query_id]]
        handles[query_id] = HandleCheckpoint(
            plan=handle.plan,
            partitioned=handle.partitioned,
            replicas=[states for states, _ in replicas],
            merge_counts=handle.coordinator.counts,
            shared=[shared for _, shared in replicas],
            exchange=handle.exchange.snapshot() if handle.exchanged else None,
        )
    tables = {
        name: list(elements)
        for name, elements in pool.fallback_engine._tables.items()
    }
    return PoolCheckpoint(
        checkpoint_id,
        watermark,
        log_seq,
        tables,
        handles,
        shard_chains=[chains for _, chains in shards],
        fallback_chains=fallback_chains,
    )
