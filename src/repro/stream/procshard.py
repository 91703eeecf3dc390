"""The framed-queue shard channel: one worker OS process per shard.

:class:`~repro.stream.sharded.ShardedStreamEngine` runs every shard in
one interpreter over :class:`~repro.stream.channel.LoopbackChannel`, so
the GIL caps it at single-core throughput. :class:`FramedChannel`
implements the same :mod:`~repro.stream.channel` verbs against a
:class:`~repro.stream.channel.ShardHost` living in a worker process —
the pool above it (routing, merge, shuffle barrier, checkpoints,
failover) is the same code — and :class:`ProcessShardEngine` is merely
the pool constructed over it:

* **Plan text ships, never closures.** ``admit`` sends the query's SQL
  text; the worker recompiles the replica locally through the ordinary
  :class:`~repro.plan.PlanBuilder` → ``StreamEngine.execute`` path
  (``ships_plans`` is False: plans that did not come verbatim from SQL —
  federated residuals, prepared statements with baked parameters — run
  on the pool's in-parent fallback engine like partition-unsafe plans).
  The parent constructs no shard engine and keeps no shard table copy.
* **Bounded batched frames.** ``ingest`` takes rows the pool's ingest
  loop coerced in the parent (errors surface at the call site, as on a
  single engine), buffers them as plain value tuples and flushes one
  ``("data", ...)`` frame per source at :data:`MAX_BATCH_ROWS` rows,
  when the oldest buffered row is :data:`FLUSH_TIMEOUT_S` old, or ahead
  of any control frame. The input queue is bounded
  (:data:`MAX_QUEUE_FRAMES`) for backpressure;
  the output queue is unbounded so a worker never blocks shipping
  results while the parent blocks feeding it.
* **Barriers are acked frames.** ``punctuate`` and ``deliver`` send a
  sequenced frame (buffered rows ride inside the punctuation) and
  return; ``settle`` blocks for the ack in the one wait loop
  (:meth:`FramedChannel._await`). Queue FIFO puts every emission for
  the boundary ahead of — or inside — its ack, so what reaches the
  parent-side feeds per punctuation segment is byte-identical to the
  loopback channel. Each frame is one edge in the worker (the hand-off
  rule on :class:`~repro.data.streams.StreamConsumer`): a frame that
  raised did all its work, is acked, and reports its first exception
  in an ``("error", ...)`` frame ahead of the ack, which the parent
  parks like any other hand-off's. The wait has one overall deadline
  (:data:`ACK_DEADLINE_S`): a worker that hangs instead of dying is
  killed and reported dead like any other.
* **Death is one exception.** A missing process, a broken pipe or an
  expired deadline all raise :class:`~repro.stream.channel.ShardDied`
  from the verb that noticed; the pool fails the shard over through
  ``respawn`` / ``seed`` / ``admit`` / ``restore`` and replays its log.

Everything crossing the process boundary is a plain tuple of picklable
values (the ``RA904`` engine-invariant lint: this is the one module
that may import ``multiprocessing``, and every frame it enqueues is a
tuple): no engine references, no closures, no bound methods. The bulky
payloads — value-tuple batches and emission runs — are pre-encoded
with :mod:`marshal` (2–4× faster than pickle for all-scalar containers;
both queue ends are the same interpreter, so marshal's
version-specificity is moot), falling back to the plain objects when a
value type is unmarshallable.
"""

from __future__ import annotations

import gc
import itertools
import marshal
import multiprocessing
import os
import pickle
import queue
import signal
import sys
import time
import traceback
from typing import Callable

from repro.catalog import Catalog
from repro.data.streams import (
    Punctuation,
    StreamElement,
    edge,
    park,
    push_all,
    rows_of,
)
from repro.data.tuples import Row
from repro.errors import ExecutionError
from repro.plan import PlanBuilder
from repro.stream.channel import ShardDied, ShardHost
from repro.stream.engine import QueryHandle, StreamEngine
from repro.stream.partition import build_exchange
from repro.stream.sharded import ShardedStreamEngine

#: Input-queue bound in *frames*; a full queue backpressures ingest.
MAX_QUEUE_FRAMES = 64
#: Rows buffered per worker before a size flush.
MAX_BATCH_ROWS = 4096
#: Seconds the oldest buffered row may wait before the next ingest call
#: forces a flush (the driver is synchronous, so staleness is checked
#: on touch, not by a timer thread).
FLUSH_TIMEOUT_S = 0.05
#: Frames a worker drains per wakeup before shipping its accumulated
#: emissions (amortizes output-queue traffic).
PREFETCH_FRAMES = 8
#: Overall bound on one ack wait or one blocked queue put. Past it the
#: worker is hung, not slow: it is killed and the shard reported dead.
ACK_DEADLINE_S = 30.0
_POLL_S = 0.25


def _pack(payload):
    """Pre-encode a bulk frame payload with :mod:`marshal`.

    The hot frames carry lists of all-scalar value tuples, which
    marshal serializes 2–4× faster than pickle; the queue then pickles
    an opaque ``bytes`` blob (a memcpy). Engine column types (int,
    float, str, bool, None) are all marshal-safe; anything exotic falls
    back to the plain object and rides the queue's ordinary pickle.
    Receivers must decode with :func:`_unpack`. Packed payloads are
    never bare ``bytes`` themselves (always a list or tuple), so the
    type tag is unambiguous.
    """
    try:
        return marshal.dumps(payload)
    except ValueError:
        return payload


def _unpack(payload):
    return marshal.loads(payload) if type(payload) is bytes else payload


def usable_start_method() -> str | None:
    """The multiprocessing start method process workers would use, or
    None when the platform offers none (the Session then degrades to
    the in-process pool with an ``RA313`` diagnostic)."""
    try:
        methods = multiprocessing.get_all_start_methods()
    except Exception:
        return None
    for method in ("fork", "forkserver", "spawn"):
        if method in methods:
            return method
    return None


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class FramedChannel:
    """The :mod:`~repro.stream.channel` verbs as frames to one worker
    process. Also the parent's view of the remote engine (``engine`` is
    the channel itself): ``elements_ingested`` counts rows accepted for
    the shard, ``failed`` mirrors the process's liveness.

    Emissions come back as column runs and are decoded into the feeds
    the pool handed to ``admit`` / ``admit_exchanged`` — parent-side
    objects, so merge counts and failover dedup never leave the pool.
    """

    ships_plans = False

    def __init__(self, index, catalog, share_plans, ctx):
        self.index = index
        self._catalog = catalog
        self._share_plans = share_plans
        self._ctx = ctx
        #: Transport counters; they out-live worker restarts.
        self.transport = {
            "queue_depth_hwm": 0,
            "batches_by_size": 0,
            "batches_by_timeout": 0,
            "batches_by_barrier": 0,
            "rows_shipped": 0,
            "batches_shipped": 0,
            "restarts": 0,
        }
        self.elements_ingested = 0
        self._seqs = itertools.count(1)
        self._spawn()

    def _spawn(self) -> None:
        self.inq = self._ctx.Queue(MAX_QUEUE_FRAMES)
        self.outq = self._ctx.Queue()
        self.process = self._ctx.Process(
            target=_worker_main,
            args=(self.index, self.inq, self.outq, self._share_plans),
            daemon=True,
            name=f"repro-shard-{self.index}",
        )
        self.process.start()
        self._epoch: int | None = None  # catalog epoch last shipped
        #: The ack the newest frame sent will answer (None: it asked
        #: for none) — receiving it proves the worker is caught up.
        self._awaiting: int | None = None
        #: query id -> (feed, result schema) / stage-1 deposit feeds.
        #: Emissions cross as value tuples and are rebuilt under the
        #: result schema (``handle.plan.schema``): the label on the way
        #: out, as ``StreamEngine.execute`` gives a hand-built plan.
        self._feeds: dict[int, tuple] = {}
        self._xfeeds: dict[int, list] = {}
        self._rows: dict[str, list[tuple]] = {}
        self._stamps: dict[str, list[float]] = {}
        self._buffered = 0
        self._oldest: float | None = None

    # -- lifecycle ------------------------------------------------------
    @property
    def engine(self) -> "FramedChannel":
        return self

    @property
    def failed(self) -> bool:
        return not self.process.is_alive()

    def _live(self) -> None:
        if not self.process.is_alive():
            raise ShardDied(self.index)

    def kill(self, sig=None):
        """Signal the worker process (SIGKILL unless ``sig`` says
        otherwise — SIGSTOP makes it hang). Returns the process."""
        process = self.process
        if process.is_alive():
            os.kill(process.pid, signal.SIGKILL if sig is None else sig)
            if sig is None:
                process.join()
        return process

    def respawn(self) -> None:
        # Emissions the dead worker shipped before dying are real
        # results: forward them so the forwarded counts (failover's
        # dedup anchor) include them. Buffered rows are dropped — they
        # are in the replay log, and failover re-ships that.
        self._drain()
        self.close()
        self.transport["restarts"] += 1
        self._spawn()

    def close(self) -> None:
        """Terminate the process and release both queues."""
        process = self.process
        if process.is_alive():
            try:
                self.inq.put_nowait(("shutdown", None))
            except Exception:
                pass
            process.join(timeout=2.0)
        if process.is_alive():
            process.kill()
            process.join()
        for channel in (self.inq, self.outq):
            try:
                channel.close()
                channel.cancel_join_thread()
            except Exception:
                pass

    # -- verbs ----------------------------------------------------------
    def admit(self, handle, feed, share) -> None:
        self._feeds[handle.query_id] = (feed, handle.plan.schema)
        self._control(("execute", None, handle.query_id, handle.sql, share))

    def admit_exchanged(self, handle, feeds, stage2_feed) -> None:
        # The worker rebuilds the exchange recipe locally: same SQL,
        # same keys and same token give the identical stage-1/stage-2
        # split and port names the parent computed.
        self._xfeeds[handle.query_id] = feeds
        if stage2_feed is not None:
            self._feeds[handle.query_id] = (stage2_feed, handle.plan.schema)
        self._control(
            ("xexec", None, handle.query_id, handle.sql, handle.exchange.keys,
             stage2_feed is not None)
        )

    def stop(self, query_id) -> None:
        self._feeds.pop(query_id, None)
        self._xfeeds.pop(query_id, None)
        self._control(("stop", None, query_id))

    def ingest(self, source, rows, stamps) -> None:
        # The pool's ingest loop has coerced every row onto the catalog
        # schema (and logged it so), live and in replay alike.
        self._live()
        entry = self._catalog.source(source)
        values = [row.values for row in rows]
        if isinstance(stamps, (int, float)):
            stamps = [float(stamps)] * len(values)
        self.elements_ingested += len(values)
        self._awaiting = None
        self._rows.setdefault(entry.name, []).extend(values)
        self._stamps.setdefault(entry.name, []).extend(stamps)
        self._buffered += len(values)
        now = time.monotonic()
        if self._oldest is None:
            self._oldest = now
        if self._buffered >= MAX_BATCH_ROWS:
            self._flush("size")
        elif now - self._oldest >= FLUSH_TIMEOUT_S:
            self._flush("timeout")
        self._drain()

    def ingest_remote(self, name, values, timestamp) -> None:
        raise ExecutionError(
            "remote-fragment plans carry no SQL text, so they never run "
            "behind a channel that cannot ship plans"
        )

    def punctuate(self, watermark, sources) -> None:
        self._live()
        # Buffered rows ride inside the barrier frame: one queue put
        # instead of a data put plus a punctuation put.
        batches = _pack(self._take("barrier"))
        self._put(("punct", next(self._seqs), watermark, sources, batches))

    def deliver(self, runs, puncts) -> None:
        self._control(("xdel", next(self._seqs), _pack(runs), puncts))

    def settle(self) -> None:
        if self._awaiting is None:
            self._control(("sync", next(self._seqs)))
        self._await()

    def load_table(self, name, rows, timestamp) -> None:
        entry = self._catalog.source(name)
        values = [row.values for row in rows]  # coerced by the pool, as ingest's
        self._control(("table", None, entry.name, values, timestamp))
        self._drain()

    def drop_table(self, name) -> None:
        self._control(("drop", None, name))

    def seed(self, tables) -> None:
        if tables:
            seed = {
                name: [(element.row.values, element.timestamp) for element in elements]
                for name, elements in tables.items()
            }
            self._control(("seed", None, seed))

    def restore(self, states, chains) -> None:
        self._control(("restore", None, states, chains))

    def snapshot(self) -> tuple[dict, dict]:
        return self._request("checkpoint")

    def sharing_stats(self) -> dict:
        return self._request("stats")

    def compile_stats(self) -> dict:
        return self._request("compile_stats")

    # -- frames out -----------------------------------------------------
    def _take(self, reason: str) -> list[tuple[str, list[tuple], list[float]]]:
        """Drain the row buffers into ``(source, values, stamps)``
        batches, counted under ``reason``."""
        if self._oldest is None:
            return []
        batches = [(source, rows, self._stamps[source]) for source, rows in self._rows.items()]
        transport = self.transport
        transport["rows_shipped"] += self._buffered
        transport["batches_shipped"] += len(batches)
        transport["batches_by_" + reason] += len(batches)
        self._rows = {}
        self._stamps = {}
        self._buffered = 0
        self._oldest = None
        return batches

    def _flush(self, reason: str = "barrier") -> None:
        for source, rows, stamps in self._take(reason):
            self._put(("data", None, source, _pack((rows, stamps))))

    def _control(self, frame: tuple) -> None:
        """Send a control frame behind everything it must follow: the
        current catalog (workers resolve sources and recompile SQL
        against it) and the rows buffered so far."""
        self._live()
        epoch = self._catalog.schema_epoch
        if self._epoch != epoch:
            # Pickled here, not by the queue's feeder thread later: the
            # frame must hold the catalog as of this frame's position.
            self._put(("catalog", None, pickle.dumps(self._catalog)))
            self._epoch = epoch
        self._flush()
        self._put(frame)

    def _request(self, kind: str):
        self._control((kind, next(self._seqs)))
        return self._await()[3]

    def _put(self, frame: tuple) -> None:
        self._awaiting = frame[1]
        try:
            depth = self.inq.qsize()
        except (NotImplementedError, OSError):
            depth = 0
        if depth > self.transport["queue_depth_hwm"]:
            self.transport["queue_depth_hwm"] = depth
        deadline = time.monotonic() + ACK_DEADLINE_S
        while True:
            try:
                self.inq.put(frame, timeout=2 * _POLL_S)
                return
            except queue.Full:
                self._check(deadline)

    def _check(self, deadline: float) -> None:
        """Between polls of a blocked wait: a dead worker, or a hung
        one past the deadline (which is then killed), ends the wait."""
        if self.process.is_alive():
            if time.monotonic() < deadline:
                return
            self.kill()
        raise ShardDied(self.index)

    # -- frames in ------------------------------------------------------
    @edge
    def _await(self) -> tuple:
        """The one ack-wait loop: drain the worker's output (forwarding
        emissions into the feeds) until the ack of the newest frame. An
        edge, like :meth:`_drain`: what a feed or the worker raised is
        parked, so the wait always reaches the ack."""
        seq = self._awaiting
        deadline = time.monotonic() + ACK_DEADLINE_S
        while True:
            try:
                frame = self.outq.get(timeout=_POLL_S)
            except queue.Empty:
                self._check(deadline)
                continue
            except (EOFError, OSError):
                raise ShardDied(self.index) from None
            self._on_frame(frame)
            if frame[0] == "ack" and frame[1] == seq:
                self._awaiting = None
                return frame

    @edge
    def _drain(self) -> None:
        while True:
            try:
                frame = self.outq.get_nowait()
            except (queue.Empty, EOFError, OSError):
                break
            self._on_frame(frame)

    def _on_frame(self, frame: tuple) -> None:
        """Forward one frame's emissions — every query's items, in frame
        order, each feed a hand-off — or park the exception a worker's
        frame raised: its own when it pickled, else an ExecutionError
        carrying the worker's traceback."""
        kind = frame[0]
        if kind == "error":
            _, _, exported, trace = frame
            exc = ExecutionError(f"shard worker {self.index} failed:\n{trace}")
            if exported is not None:
                exc = pickle.loads(exported)
                exc.add_note(f"raised in shard worker {self.index}:\n{trace}")
            park(exc)
            return
        if kind == "xout":
            for query_id, ordinal, values, stamps in _unpack(frame[2]):
                feeds = self._xfeeds.get(query_id)
                if feeds is not None:  # else: stopped with deposits in flight
                    try:
                        feeds[ordinal].push_run(values, stamps)
                    except Exception as exc:
                        park(exc)
            return
        # ("out", None, emissions) and ("ack", seq, emissions, reply)
        for query_id, items in _unpack(frame[2]):
            entry = self._feeds.get(query_id)
            if entry is None:
                continue  # query stopped while emissions were in flight
            feed, schema = entry
            # Runs by push_batch, watermarks by push, in frame order:
            # the merge coordinator depends on the interleaving.
            for item in items:
                try:
                    if item[0] == "p":
                        feed.push(Punctuation(item[1]))
                    else:
                        push_all(feed, rows_of(schema, item[2]), item[3], item[1])
                except Exception as exc:
                    park(exc)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _FrameSink:
    """Terminal consumer inside a worker: records emissions as plain
    frame items — ``("e", source, values_list, stamps_list)`` runs for
    consecutive same-source rows, ``("p", watermark)`` for
    punctuations — preserving interleaving so the parent's merge
    coordinator sees the exact per-boundary order. Runs keep the frame
    one tuple per burst instead of one per element, which is most of
    the transport's per-element pickle and allocation cost. Only values,
    timestamps and sources cross (``positional``): the parent builds the
    rows again under the query's schema, so a replica hands this sink
    its rows unlabelled."""

    __slots__ = ("items", "_source", "_values", "_stamps")
    positional = True

    def __init__(self):
        self.items: list[tuple] = []
        self._source: str | None = None
        self._values: list[tuple] = []
        self._stamps: list[float] = []

    def _seal(self) -> None:
        if self._source is not None:
            self.items.append(("e", self._source, self._values, self._stamps))
            self._source = None
            self._values = []
            self._stamps = []

    def push(self, item) -> None:
        if isinstance(item, Punctuation):
            self._seal()
            self.items.append(("p", item.watermark))
        else:
            if item.source != self._source:
                self._seal()
                self._source = item.source
            self._values.append(item.row.values)
            self._stamps.append(item.timestamp)

    def push_batch(self, rows, stamps, source) -> None:
        if not rows:
            return
        if source != self._source:
            self._seal()
            self._source = source
        self._values += [row.values for row in rows]
        self._stamps += stamps

    def take(self) -> list[tuple]:
        self._seal()
        out, self.items = self.items, []
        return out


def _adopt_catalog(catalog: Catalog, shipped: Catalog) -> None:
    """Adopt a shipped catalog's registrations in place, so the worker
    engine and plan builder (which hold the local catalog object) see
    every source/view the parent knows."""
    catalog._sources = shipped._sources
    catalog._views = shipped._views
    catalog._displays = shipped._displays
    catalog.network = shipped.network
    catalog.schema_epoch = shipped.schema_epoch


def _take_emissions(queries: dict[int, QueryHandle]) -> list[tuple]:
    payload = []
    for query_id, handle in queries.items():
        items = handle.sink.take()
        if items:
            payload.append((query_id, items))
    return payload


def _ship(outq, host: ShardHost, seq=None, reply=None) -> None:
    """Ship the host's pending emissions: stage-1 exchange output as one
    ``("xout", ...)`` frame of ``(query_id, ordinal, values, stamps)``
    runs (punctuations dropped — exchange watermarks travel through the
    pool's barrier), then every query's output — inside the ack when
    ``seq`` asks for one (the parent is already blocked on it), else as
    one ``("out", ...)`` frame. One frame for all queries: every put
    costs a pickle, a feeder-thread wakeup and a pipe write."""
    deposits = []
    for query_id, replicas in host.stage1.items():
        for ordinal, replica in enumerate(replicas):
            values: list[tuple] = []
            stamps: list[float] = []
            for item in replica.sink.take():
                if item[0] == "e":
                    values += item[2]
                    stamps += item[3]
            if values:
                deposits.append((query_id, ordinal, values, stamps))
    if deposits:
        outq.put(("xout", None, _pack(deposits)))
    emissions = _take_emissions(host.queries)
    if seq is not None:
        outq.put(("ack", seq, _pack(emissions), reply))
    elif emissions:
        outq.put(("out", None, _pack(emissions)))


def _exported() -> bytes | None:
    """The exception being handled, pickled, when it survives the round
    trip (the parent then raises it with its type); else None."""
    try:
        exported = pickle.dumps(sys.exc_info()[1])
        pickle.loads(exported)
    except Exception:
        return None
    return exported


def _worker_main(index, inq, outq, share_plans) -> None:
    """One shard worker: a :class:`ShardHost` driven entirely by frames
    ``(kind, seq, *args)``; a frame with a ``seq`` is acked once done.
    Each frame is one edge: it does all its work, then reports the
    first exception it raised in an ``("error", ...)`` frame — ahead of
    its ack, which it still gets.

    The host, catalog and plan builder are constructed *here* — the
    worker import path carries no parent engine state (RA904), so fork
    and spawn start methods behave identically.
    """
    # The worker is a dedicated batch processor: engine state is
    # acyclic (tuples, Rows, lists), so refcounting reclaims it and the
    # cycle collector only adds tracing churn to the hot loop. Cycle
    # garbage (compiled closures, plan graphs) accrues at query
    # start/stop, so collect at the frames that mark those boundaries.
    gc.disable()
    catalog = Catalog()
    builder = PlanBuilder(catalog)
    host = ShardHost(index, StreamEngine(catalog, None, share_plans))
    engine = host.engine

    @edge
    def run(frame: tuple):
        """Do one frame's work; returns its reply (None for most)."""
        kind = frame[0]
        if kind == "data":
            values, stamps = _unpack(frame[3])
            engine.push_values(frame[2], values, stamps)
        elif kind == "punct":
            for source, values, stamps in _unpack(frame[4]):
                engine.push_values(source, values, stamps)
            engine.punctuate(frame[2], frame[3])
        elif kind == "xdel":
            host.deliver(_unpack(frame[2]), frame[3])
        elif kind == "execute":
            host.start(frame[2], builder.build_sql(frame[3]), _FrameSink(), frame[4])
        elif kind == "xexec":
            recipe = build_exchange(builder.build_sql(frame[3]), frame[4], token=frame[2])
            host.start_exchanged(
                frame[2],
                recipe,
                [_FrameSink() for _ in recipe.specs],
                _FrameSink() if frame[5] else None,
            )
        elif kind == "stop":
            host.stop(frame[2])
            if not host.queries and not host.stage1:
                gc.collect()  # stopped plans drop cyclic graphs
        elif kind == "table":
            schema = catalog.source(frame[2]).schema
            engine.load_table(
                frame[2], [Row.raw(schema, values) for values in frame[3]], frame[4]
            )
        elif kind == "drop":
            engine.drop_table(frame[2])
        elif kind == "catalog":
            _adopt_catalog(catalog, pickle.loads(frame[2]))
        elif kind == "seed":
            host.seed(
                {
                    name: [
                        StreamElement(Row.raw(catalog.source(name).schema, values), ts, name)
                        for values, ts in items
                    ]
                    for name, items in frame[2].items()
                }
            )
        elif kind == "restore":
            host.restore(frame[2], frame[3])
        elif kind == "checkpoint":
            return host.snapshot()
        elif kind == "stats":
            return engine.sharing_stats()
        elif kind == "compile_stats":
            return engine.compile_stats()
        # ("sync", seq) does nothing but ask for its ack.

    while True:
        frames = [inq.get()]
        while len(frames) < PREFETCH_FRAMES:
            try:
                frames.append(inq.get_nowait())
            except queue.Empty:
                break
        for frame in frames:
            if frame[0] == "shutdown":
                return
            reply = None
            try:
                reply = run(frame)
            except Exception:
                outq.put(("error", None, _exported(), traceback.format_exc()))
            if frame[1] is not None:
                _ship(outq, host, frame[1], reply)
        _ship(outq, host)


# ----------------------------------------------------------------------
# The pool over it
# ----------------------------------------------------------------------
class ProcessShardEngine(ShardedStreamEngine):
    """The sharded pool with one worker *process* per shard: the same
    engine, constructed over :class:`FramedChannel`.

    Call :meth:`shutdown` when done — Session/backends do, and tests
    must, or worker processes linger until interpreter exit.
    """

    def __init__(
        self,
        catalog: Catalog,
        shards: int = 2,
        deliver: Callable[[str, StreamElement], None] | None = None,
        share_plans: bool = False,
        start_method: str | None = None,
    ):
        method = start_method if start_method is not None else usable_start_method()
        if method is None:
            raise ExecutionError(
                "no usable multiprocessing start method; use the in-process "
                "ShardedStreamEngine instead"
            )
        self._ctx = multiprocessing.get_context(method)
        super().__init__(catalog, shards, deliver, share_plans)

    def _open_channel(self, index: int) -> FramedChannel:
        return FramedChannel(index, self._catalog, self.share_plans, self._ctx)

    def shutdown(self) -> None:
        """Stop every worker process and release the queues. Idempotent."""
        for channel in self._channels:
            channel.close()
        self._channels = []
