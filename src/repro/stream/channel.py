"""The shard seam: what a pool says to one shard, and what answers.

:class:`~repro.stream.sharded.ShardedStreamEngine` talks to each of its
shards (and to its designated fallback) only through a **ShardChannel**
— the verbs below. Every implementation hosts, on its far side, one
:class:`ShardHost`: a :class:`~repro.stream.engine.StreamEngine` plus
the pool queries it runs. The transport is data, not a second engine:

==================  ====================================================
verb                effect on the shard
==================  ====================================================
``admit``           start one replica of a partition-safe (or fallback)
                    query, emitting into the given feed
``admit_exchanged`` start the stage-1 replicas of an exchanged query
                    (and its stage-2 replica when a feed is given)
``stop``            stop every replica of one pool query
``ingest``          a batch of rows of one source (``ingest_remote``:
                    one element of a remote fragment feed)
``punctuate``       advance the watermark on the sources' ports
``deliver``         the shuffle barrier's round 2: exchanged runs into
                    their ports, then the ports' watermarks
``settle``          return once everything sent so far is processed and
                    its emissions have reached the feeds
``load_table`` /    replicated-table maintenance; ``seed`` installs a
``drop_table`` /    barrier's tables wholesale during failover
``seed``
``snapshot`` /      per-query operator states + shared-chain states at
``restore``         a barrier, and back
``sharing_stats``   the host engine's shared-subplan counters
``compile_stats``   the host engine's generated / fallback counters
``kill`` /          fault injection, and a fresh empty host after a
``respawn``         death
==================  ====================================================

plus three attributes: ``ships_plans`` (True when plan objects cross
the channel as they are; otherwise the pool must hand over SQL text and
falls back without it), ``engine`` (the shard engine, or the parent's
view of a remote one: ``elements_ingested`` / ``failed``) and
``transport`` (queue counters, None when nothing is transported).

A dead shard surfaces as one :class:`ShardDied` from whichever verb
finds it; the pool's single retry wrapper turns that into failover.
A data error never travels that way: the host's verbs are edges (the
hand-off rule on :class:`~repro.data.streams.StreamConsumer`), so one
raised under a pool verb is parked, and the pool verb raises it once
every shard has its work.

:class:`LoopbackChannel` — this module — is the in-process transport:
the channel *is* a local host, called synchronously, handed the
parent's feeds and rows by reference. The framed-queue transport (one
worker OS process per shard) lives in :mod:`repro.stream.procshard`.
"""

from __future__ import annotations

from repro.data.streams import edge
from repro.errors import ExecutionError
from repro.stream.checkpoint import restore_operators, snapshot_operators
from repro.stream.engine import QueryHandle, StreamEngine


class ShardDied(ExecutionError):
    """A channel verb found its shard dead (crashed engine, killed or
    hung worker process)."""

    def __init__(self, index):
        super().__init__(f"shard {index} died")
        self.index = index


class ShardHost:
    """One shard's far side: a stream engine plus its pool queries.

    ``queries`` maps a pool query id to the replica whose output is the
    query's (the safe replica, the fallback replica, or an exchanged
    query's stage-2 merge); ``stage1`` maps exchanged query ids to their
    stage-1 replicas, whose output feeds the pool's shuffle buffers.
    """

    def __init__(self, index, catalog, deliver, share_plans):
        self.index = index
        self.engine = StreamEngine(catalog, deliver, share_plans)
        self.queries: dict[int, QueryHandle] = {}
        self.stage1: dict[int, list[QueryHandle]] = {}

    def _live(self) -> StreamEngine:
        if self.engine.failed:
            raise ShardDied(self.index)
        return self.engine

    def start(self, query_id, plan, sink, share=None) -> QueryHandle:
        handle = self._live().execute(plan, sink=sink, share=share)
        self.queries[query_id] = handle
        return handle

    def start_exchanged(self, query_id, recipe, sinks, stage2_sink):
        """Stage-1 replicas of every spec, emitting into ``sinks``; the
        stage-2 merge too when this shard is one of its destinations.
        Returns the stage-2 replica (None when not hosted here)."""
        engine = self._live()
        stage2 = None
        if stage2_sink is not None:
            stage2 = engine.execute(recipe.stage2, sink=stage2_sink, share=False)
            self.queries[query_id] = stage2
        self.stage1[query_id] = [
            engine.execute(spec.stage1, sink=sink, share=False)
            for spec, sink in zip(recipe.specs, sinks)
        ]
        return stage2

    def stop(self, query_id) -> None:
        engine = self._live()
        replicas = self.stage1.pop(query_id, [])
        if query_id in self.queries:
            replicas.append(self.queries.pop(query_id))
        for replica in replicas:
            engine.stop(replica)

    @edge
    def deliver(self, runs, puncts) -> None:
        engine = self._live()
        for name, values, stamps in runs:
            engine.push_exchange(name, values, stamps)
        for watermark, names in puncts:
            engine.punctuate(watermark, names)

    def seed(self, tables) -> None:
        self._live()._tables = {
            name: list(elements) for name, elements in tables.items()
        }

    def snapshot(self) -> tuple[dict, dict]:
        """``({query_id: (operator states, shared)}, chain states)``;
        an exchanged query's states are ``{"s1": [per spec], "s2":
        stage-2 states or None}`` and it never shares."""
        engine = self._live()
        states = {
            query_id: (snapshot_operators(replica), replica.shared)
            for query_id, replica in self.queries.items()
            if query_id not in self.stage1
        }
        for query_id, replicas in self.stage1.items():
            stage2 = self.queries.get(query_id)
            states[query_id] = (
                {
                    "s1": [snapshot_operators(replica) for replica in replicas],
                    "s2": snapshot_operators(stage2) if stage2 is not None else None,
                },
                False,
            )
        return states, engine.subplans.snapshot_chains()

    def restore(self, states, chains) -> None:
        """Pour a barrier's state into re-admitted replicas: shared
        chains once per chain, then each query's own operators."""
        self._live().subplans.restore_chains(chains)
        for query_id, state in states.items():
            stage1 = self.stage1.get(query_id)
            if stage1 is None:
                restore_operators(self.queries[query_id], state)
                continue
            for replica, replica_state in zip(stage1, state["s1"]):
                restore_operators(replica, replica_state)
            if state["s2"] is not None and query_id in self.queries:
                restore_operators(self.queries[query_id], state["s2"])


class LoopbackChannel(ShardHost):
    """The in-process transport: the channel is its own host. Verbs run
    synchronously, feeds and rows cross by reference — no packing, no
    frames — so ``settle`` has nothing to wait for."""

    ships_plans = True
    transport = None

    def __init__(self, index, catalog, deliver, share_plans):
        self._host_args = (index, catalog, deliver, share_plans)
        self.respawn()

    def respawn(self) -> None:
        ShardHost.__init__(self, *self._host_args)

    def kill(self, sig=None) -> StreamEngine:
        """Crash the engine (state loss); returns the corpse."""
        self.engine.fail()
        return self.engine

    def admit(self, handle, feed, share):
        return self.start(handle.query_id, handle.plan, feed, share)

    def admit_exchanged(self, handle, feeds, stage2_feed):
        return self.start_exchanged(
            handle.query_id, handle.exchange.recipe, feeds, stage2_feed
        )

    def ingest(self, source, rows, stamps) -> None:
        self._live().push_many(source, rows, stamps)

    def ingest_remote(self, name, values, timestamp) -> None:
        self._live().push_remote(name, values, timestamp)

    def punctuate(self, watermark, sources) -> None:
        self._live().punctuate(watermark, sources)

    def settle(self) -> None:
        pass

    def load_table(self, name, rows, timestamp) -> None:
        self._live().load_table(name, rows, timestamp)

    def drop_table(self, name) -> None:
        self._live().drop_table(name)

    def sharing_stats(self) -> dict:
        return self._live().sharing_stats()

    def compile_stats(self) -> dict:
        return self._live().compile_stats()
