"""Checkpoint/restore for standing queries.

The paper's queries are *always-on*: window buffers, symmetric-join hash
tables and accumulator maps represent minutes-to-weeks of observed
environment state, so an engine death must not reset them. This module
provides the recovery spine:

* :class:`CheckpointCoordinator` — attaches to a :class:`StreamEngine`
  or a :class:`~repro.stream.sharded.ShardedStreamEngine` pool, appends
  every ingest call to a bounded :class:`ReplayLog`, and snapshots
  operator state at **punctuation-aligned barriers** (every
  ``interval`` seconds of stream time) into a :class:`CheckpointStore`.
  Barriers are aligned because punctuation is the only point where an
  operator's externally observable state is well-defined: windows at or
  before the watermark have been emitted, expired join rows evicted.
* :class:`MemoryCheckpointStore` / :class:`FileCheckpointStore` — keep
  the last few checkpoints in memory or pickled on disk.
* Recovery — ``StreamEngine.restore(checkpoint, replay=suffix)``
  recompiles each checkpointed plan (compilation is deterministic, so
  operator order matches the snapshot positionally), loads state, and
  replays only the **log suffix since the barrier**; the sharded pool's
  failover (:meth:`ShardedStreamEngine._recover`) does the same per
  shard through the shard's channel.

A checkpoint holds operator state, tables and counts — never results.
Results stay where they were delivered: a query's sink (a shared
query's view reads its chain's log) outlives an engine death, and the
restored pipeline writes into it again through a :class:`Feed`, which
drops what the replay derives a second time, counted against what the
sink had received at the barrier — on a pool, what the query's merge
slot had forwarded. A recovery is therefore invisible to a cursor's
``results()`` and subscriptions, and a checkpoint's size does not grow
with the results delivered.

**A process restart is not a recovery of the sinks, and it replays
nothing.** A fresh engine restored from a :class:`FileCheckpointStore`
has no sink to write into: each query comes back under a new handle
with a new sink that reads from the barrier on. The :class:`ReplayLog`
lives in memory only, so a fresh coordinator replays no entry
(``last_replay["entries"] == 0``): rows ingested after the latest
barrier are lost unless the caller pushes them again, and ``results()``
history from before the barrier does not survive either.

Snapshots share :class:`StreamElement` objects (immutable by
convention) and copy only the mutable containers, so a barrier costs
O(state size) pointer copies, not a deep serialization — the file store
pays serialization only when explicitly chosen.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import pickle
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.data.streams import Punctuation, StreamElement, StreamItem, push_all
from repro.errors import ExecutionError
from repro.plan.logical import LogicalOp

#: Replay-log key marking entries delivered to the pool's fallback engine.
FALLBACK = "fb"


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
    restored single-engine query's sink.

    A muted feed drops everything: a pool replica's fresh feeds start
    muted, since its re-execution over checkpointed tables re-derives
    output that is already downstream. ``arm(skip)`` unmutes the feed
    and drops the next ``skip`` elements (the re-derivations of what the
    dead pipeline already delivered), then everything flows through.
    The skip never counts a punctuation.
    """

    __slots__ = ("_skip", "_muted")

    def __init__(self):
        self._skip = 0
        self._muted = False

    def mute(self) -> None:
        self._muted = True

    def arm(self, skip: int) -> None:
        self._muted = False
        self._skip = skip

    def push(self, item: StreamItem) -> None:
        if self._muted:
            return
        if isinstance(item, Punctuation):
            self._punctuate(item.watermark)
        elif self._skip > 0:
            self._skip -= 1
        else:
            self._run([item])

    def push_batch(self, elements: list[StreamElement]) -> None:
        if self._muted:
            return
        drop = self._skipped(len(elements))
        if drop:
            elements = elements[drop:]
        if elements:
            self._run(elements)

    def _skipped(self, count: int) -> int:
        """How many of the next ``count`` elements the armed skip drops."""
        drop = min(self._skip, count)
        self._skip -= drop
        return drop


class SinkFeed(Feed):
    """Writes a restored single-engine query into the sink that outlived
    the failure (a view's: into its chain's log again).

    The sink already holds everything the replay of the log suffix
    derives: the feed drops as many elements as it received since the
    barrier (``received`` now minus ``at_barrier``) and every punctuation
    until :meth:`release`, which the engine calls once the suffix is
    replayed, so the sink records nothing twice. A custom consumer keeps
    no count: its feed drops every element until then too.
    """

    __slots__ = ("_sink", "_held")

    def __init__(self, sink, at_barrier: int | None):
        super().__init__()
        self._sink, self._held = sink, True
        received = getattr(sink, "received", None)
        self._muted = received is None
        self._skip = 0 if received is None else received - at_barrier

    def _run(self, elements: list[StreamElement]) -> None:
        push_all(self._sink, elements)

    def _punctuate(self, watermark: float) -> None:
        if not self._held:
            self._sink.push(Punctuation(watermark))

    def release(self) -> None:
        """The suffix is replayed: everything flows through from now on."""
        self._muted = self._held = False


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
        """Restore a plain engine from the latest barrier + log suffix.
        Returns the restored handles in checkpoint order: those the
        engine held at the failure, so a caller's cursors and
        subscriptions carry on with no rebinding.

        Pools recover per shard through the pool's failover path
        instead; calling this on a pool is an error.
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
        tables, suffix = self.replay_plan(checkpoint)
        handles = self.engine.restore(
            dataclasses.replace(checkpoint, tables=tables), replay=suffix
        )
        self.note_replay("engine", checkpoint.log_seq, len(suffix))
        return handles

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

    def note_replay(self, target: Any, from_seq: int, entries: int) -> None:
        self.last_replay = {
            "target": target,
            "from_seq": from_seq,
            "entries": entries,
        }


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
