"""Stream elements and the push-based stream protocol.

ASPEN's stream engine is a push dataflow: sources call
:meth:`StreamConsumer.push` with :class:`StreamElement` items (a row plus
its event timestamp) and :class:`Punctuation` markers asserting that no
element with a smaller timestamp will ever arrive, and ``push_batch``
with a run of rows and their stamps. Punctuations drive window closing
and allow bounded state in joins and aggregates.
"""

from __future__ import annotations

import functools
import os
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Protocol, runtime_checkable

from repro.data.tuples import Row


class StreamElement:
    """One timestamped row on a stream.

    The per-element verb's item (``push``): a run (``push_batch``) is
    rows and their stamps, and builds none. A slotted plain class; treat
    instances as immutable.

    Attributes:
        row: The data tuple.
        timestamp: Event time in simulation seconds.
        source: Optional name of the producing source (for tracing).
    """

    __slots__ = ("row", "timestamp", "source")

    def __init__(self, row: Row, timestamp: float, source: str = ""):
        self.row = row
        self.timestamp = timestamp
        self.source = source

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamElement):
            return NotImplemented
        return (
            self.row == other.row
            and self.timestamp == other.timestamp
            and self.source == other.source
        )

    def __hash__(self) -> int:
        return hash((self.row, self.timestamp, self.source))

    def __repr__(self) -> str:
        return f"@{self.timestamp:g} {self.row!r}"


def rows_of(schema, values_list) -> list[Row]:
    """Hot-path constructor: one ``Row.raw(schema, values)`` per value
    tuple, with the call frame flattened into slot stores — at tens of
    thousands of rows per shipped run the frame is measurable. Same
    trust contract as :meth:`Row.raw`: ``values`` must already be
    tuples of the schema's arity."""
    new = object.__new__
    out: list[Row] = []
    append = out.append
    for values in values_list:
        row = new(Row)
        row.schema = schema
        row.values = values
        row._hash = None
        append(row)
    return out


@dataclass(frozen=True)
class Punctuation:
    """Assertion that no element with ``timestamp < watermark`` will follow."""

    watermark: float

    def __repr__(self) -> str:
        return f"Punct(<{self.watermark:g})"


StreamItem = StreamElement | Punctuation


@runtime_checkable
class StreamConsumer(Protocol):
    """Anything that can receive stream items — the push protocol.

    Two verbs, one meaning each; this is the single statement of the
    contract every producer and consumer in the package follows:

    * ``push(item)`` carries one :class:`StreamElement` **or** one
      :class:`Punctuation`. Every punctuation travels this way.
    * ``push_batch(rows, stamps, source)`` carries a (possibly empty)
      **punctuation-free run in arrival order**: ``rows[i]`` (a
      :class:`Row`) stamped ``stamps[i]``, every row from ``source``.
      No :class:`StreamElement` is built for a run — one exists only
      for ``push``, for a cursor subscribed with ``elements=True``, for
      a ``push``-only consumer (:func:`push_all`) and in an operator's
      ``state_snapshot``. A producer holding elements and punctuations
      interleaved sends each run by ``push_batch`` and each punctuation
      by ``push``; a consumer never scans a batch for, splits a batch
      at, or recovers from a punctuation inside one, and a batch body
      builds no element (lint rule RA902 enforces all three). The lists
      stay the producer's: a receiver **neither mutates nor keeps
      them** (it copies out what it buffers). Ingest hands one run to
      every route of a source and a shared chain's tee hands one run
      to every branch, so the next receiver reads the same lists.

    **A hand-off never raises into its producer.** A *hand-off* passes
    a run, an item or a callback argument to someone else: a fan-out
    (the engine's routes of a source, a tee's branches, a pool's
    shards, a sink's observers, the frame pump's feeds) or an
    operator's ``emit`` / ``emit_batch``. When one raises while a
    *verb* is open — an engine verb through which rows or punctuations
    enter (``push``, ``push_many``, ``punctuate``, ``load_table``,
    ``execute`` and the rest), or a shard worker's frame — the
    exception is *parked* (:func:`park`) and the producer carries on as
    if the hand-off had returned. Verbs nest (:func:`edge`); the
    outermost one raises the first parked exception once its own work
    is done. So the verb still raises, what it carried counts as
    ingested (it is in the replay log: a caller that retries it
    duplicates it), and one raising consumer costs no sibling — nor the
    operator that emitted, which finishes its loop — a row. A fan-out
    reached with no verb open is an edge of its own: it finishes, then
    raises.

    ``push_batch`` is optional and deliberately *not* part of this
    runtime-checkable protocol — a ``push``-only consumer is still a
    StreamConsumer. Producers discover it by duck typing
    (:func:`push_all` is the one fallback: one element per row, by
    ``push``, in order). Which verb runs is the caller's choice: a row at a time
    (``session.push``) stays on ``push`` end to end, a bulk batch
    (``session.push_many``) on ``push_batch``.
    """

    def push(self, item: StreamItem) -> None:
        """Receive one element or punctuation."""
        ...


class _Edge:
    """The error edge's state: ``open`` while a verb runs, and
    ``parked``, the first exception the hand-offs under it parked (later
    ones drop).

    One per process, not per engine: verbs of different engines nest (a
    pool's around its in-process shards', a callback's feeding another
    session), and the engine is synchronous — one thread drives it."""

    __slots__ = ("open", "parked")

    def __init__(self) -> None:
        self.open = False
        self.parked: Exception | None = None


#: The one edge. A fan-out on the per-row path reads ``EDGE.open``
#: inline; only this module assigns it.
EDGE = _Edge()
# A forked shard worker starts with no verb open, whatever its parent
# was in the middle of.
os.register_at_fork(after_in_child=EDGE.__init__)


def park(exc: Exception) -> None:
    """Hand a raising hand-off's exception to the edge: parked for the
    outermost open verb, or — no verb open — raised on the spot (a
    fan-out is an edge, so only a lone ``emit`` gets here without one).

    Never park a failover signal (``ShardDied``): the pool's retry has
    to see it, so no hand-off sits between it and its ``_call``."""
    if not EDGE.open:
        raise exc
    if EDGE.parked is None:
        EDGE.parked = exc


def edge(verb: Callable) -> Callable:
    """Make ``verb`` an edge: inside another edge it is part of that
    one's work; outermost, it raises the first exception parked under it
    once it returned. An exception of its own propagates as it is, and
    what was parked is dropped."""

    @functools.wraps(verb)
    def edged(*args, **kwargs):
        if EDGE.open:
            return verb(*args, **kwargs)
        EDGE.open = True
        try:
            result = verb(*args, **kwargs)
        finally:
            EDGE.open = False
            parked, EDGE.parked = EDGE.parked, None
        if parked is not None:
            raise parked
        return result

    return edged


def replayed(verb: Callable, *args, keep: type[Exception] | tuple = ()) -> None:
    """Re-run a logged verb and drop the errors it raises again.

    The verb raised them to its caller when it first ran (an operator's
    error was parked and raised once the run was through; a row that
    failed coercion was never logged), and the replay derives again all
    it derived then. So the replay is an edge of its own: what it parks
    or raises is dropped, and stays out of any verb open around it (a
    pool fails a shard over inside the verb that found it dead). An
    exception of a ``keep`` type — a failover signal — propagates."""
    saved = EDGE.open, EDGE.parked
    EDGE.open, EDGE.parked = True, None
    try:
        verb(*args)
    except keep:
        raise
    except Exception:  # raised to the verb's caller when it first ran
        pass
    finally:
        EDGE.open, EDGE.parked = saved


#: ``outermost(fn, *args)`` is ``fn(*args)`` as an edge. A fan-out on the
#: per-row path tests ``EDGE.open`` inline and calls this only when no
#: verb is open, so under a verb it pays no extra call.
outermost = edge(lambda fn, *args: fn(*args))


class CallbackConsumer:
    """Adapter turning a plain callable into a :class:`StreamConsumer`
    (``push`` only: a run reaches it element by element through
    :func:`push_all`)."""

    def __init__(self, fn: Callable[[StreamItem], None]):
        self._fn = fn

    def push(self, item: StreamItem) -> None:
        self._fn(item)


#: ``observer(rows, stamps, source)``: one stored run, as it was handed over.
Observer = Callable[[list[Row], list[float], str], None]


class CollectingConsumer:
    """Consumer that buffers everything it receives — used by tests,
    benches, as the terminal sink of executed query plans, and as a
    shared chain's append-only result log, which each of the chain's
    queries reads through its own :class:`LogView`.

    The log stores each run as one *chunk* — ``(rows, stamps, source)``,
    copies it owns — plus a running count, so a run costs two list
    copies and no per-row object. A ``push`` appends its element's row
    and stamp to the tail chunk when that chunk has the element's
    source (else it opens one), so a row at a time allocates no chunk
    per row. Rows are numbered in arrival order from the last
    :meth:`clear`; :meth:`runs` reads any range of them, chunk by chunk.
    """

    def __init__(self) -> None:
        self._chunks: list[tuple[list[Row], list[float], str]] = []
        #: The number of each chunk's first row.
        self._starts: list[int] = []
        #: The last chunk, which a ``push`` of its source extends.
        self._tail: tuple | None = None
        self._count = 0
        self.punctuations: list[Punctuation] = []
        #: Times clear() has run — lets incremental readers (e.g.
        #: QueryHandle.latest_batch) detect a reset.
        self.clears = 0
        #: Rows clear() has dropped (see :attr:`received`).
        self._cleared = 0
        #: Rebound, never mutated: a fan-out in flight keeps its list.
        self._observers: list[Observer] = []
        #: ``(rows, stamps, source, observers)`` stored while a fan-out
        #: is in flight; None when no fan-out is.
        self._queued: list[tuple] | None = None

    def observe(self, callback: Observer) -> None:
        """Call ``callback(rows, stamps, source)`` once with every run
        stored from now on, after it is stored (a Cursor's subscriptions
        hang off this).

        A ``push_batch`` run arrives as it was handed over and a
        ``push`` as a one-row run, so an observer has one body. The
        lists are the producer's: an observer neither mutates nor keeps
        them (the ``push_batch`` rule on :class:`StreamConsumer`).
        Empty runs and punctuations are not observed. The rules of the
        observer fan-out:

        * *a hand-off never raises into its producer* — every observer
          gets the run; an observer's exception is parked for the verb
          (the rule on :class:`StreamConsumer`);
        * *log order* — every observer sees runs in the order they were
          stored. A run stored while a fan-out is in flight (a callback
          that feeds the session) is delivered after it, exactly once,
          to the observers there were when it was stored;
        * *late observers* — an observer added inside a callback starts
          with the next run stored.
        """
        self._observers = [*self._observers, callback]

    def push(self, item: StreamItem) -> None:
        if isinstance(item, Punctuation):
            self.punctuations.append(item)
            return
        tail, source = self._tail, item.source
        if tail is None or tail[2] != source:
            self._tail = tail = ([], [], source)
            self._chunks.append(tail)
            self._starts.append(self._count)
        row, stamp = item.row, item.timestamp
        tail[0].append(row)
        tail[1].append(stamp)
        self._count += 1
        if self._observers:
            self._fan_out([row], [stamp], source)

    def push_batch(self, rows: list[Row], stamps: list[float], source: str) -> None:
        if not rows:
            return
        self._tail = tail = (list(rows), list(stamps), source)
        self._chunks.append(tail)
        self._starts.append(self._count)
        self._count += len(rows)
        if self._observers:
            self._fan_out(rows, stamps, source)

    def _fan_out(self, rows: list[Row], stamps: list[float], source: str) -> None:
        if not EDGE.open:  # no verb open: this fan-out is the edge
            return outermost(self._fan_out, rows, stamps, source)
        observers = self._observers
        if self._queued is not None:
            self._queued.append((list(rows), list(stamps), source, observers))
            return
        self._queued = queued = []
        try:
            while True:
                for callback in observers:
                    try:
                        callback(rows, stamps, source)
                    except Exception as exc:
                        park(exc)
                if not queued:
                    break
                rows, stamps, source, observers = queued.pop(0)
        finally:
            self._queued = None

    def runs(self, lo: int = 0, hi: int | None = None) -> Iterator[tuple[list[Row], list[float], str]]:
        """The stored rows ``lo`` to ``hi`` (default: the last), as
        ``(rows, stamps, source)`` runs in arrival order — a whole chunk
        as the log holds it, which the reader must not mutate, else a
        slice of one."""
        hi = self._count if hi is None else min(hi, self._count)
        if lo >= hi:
            return
        chunks, starts = self._chunks, self._starts
        index = bisect_right(starts, lo) - 1
        while index < len(chunks) and starts[index] < hi:
            rows, stamps, source = chunks[index]
            first, end = lo - starts[index], hi - starts[index]
            if first <= 0 and end >= len(rows):
                yield chunks[index]
            else:
                first = max(first, 0)
                yield rows[first:end], stamps[first:end], source
            index += 1

    @property
    def elements(self) -> list[StreamElement]:
        """The received elements, in arrival order (built on read)."""
        return [
            StreamElement(row, stamp, source)
            for rows, stamps, source in self.runs()
            for row, stamp in zip(rows, stamps)
        ]

    @property
    def rows(self) -> list[Row]:
        """The received data rows, in arrival order."""
        return [row for rows, _, _ in self.runs() for row in rows]

    def extent(self) -> tuple["CollectingConsumer", int, int, float]:
        """``(log, lo, hi, watermark)``: the results are
        ``log.runs(lo, hi)`` and ``watermark`` is the latest
        punctuation's (``-inf`` before the first) — what an incremental
        reader (``QueryHandle.latest_batch``) needs, without a copy."""
        punctuations = self.punctuations
        watermark = punctuations[-1].watermark if punctuations else float("-inf")
        return self, 0, self._count, watermark

    @property
    def received(self) -> int:
        """Rows received since this sink was made — ``clear()`` does
        not reset it (a restored query skips re-derived output by it)."""
        return self._cleared + self._count

    def clear(self) -> None:
        self._cleared += self._count
        self._chunks = []
        self._starts = []
        self._tail = None
        self._count = 0
        self.punctuations.clear()
        self.clears += 1

    def __len__(self) -> int:
        return self._count


class LogView:
    """One query's window onto a shared result log.

    A shared chain stores its results once, in one
    :class:`CollectingConsumer` (the *log*, never cleared); every query
    the engine gave a default sink on that chain reads it through a view
    with a sink's surface, which costs nothing per row:

    * the view starts at the log's length when it is made — a query
      admitted inside a subscriber callback, when the run in flight is
      already stored, starts with the next run;
    * :meth:`close` fixes its end: its results stay readable and stop
      growing, its observers leave the log, and its siblings and the log
      are untouched;
    * :meth:`clear` moves its start to the current end (its siblings
      keep theirs) and counts in its own ``clears``;
    * :meth:`observe` registers on the log (the log's fan-out rules
      hold) until the view closes.

    ``elements`` / ``punctuations`` / ``rows`` are copies of the
    view's slice; :meth:`extent` reads it without one. The log and its
    views outlive an engine failure: the restored chain writes into the
    same log again.
    """

    def __init__(self, log: CollectingConsumer) -> None:
        self.log = log
        self._start = len(log)
        self._pstart = len(log.punctuations)
        #: End offsets, fixed at close; None while open.
        self._end: int | None = None
        self._pend: int | None = None
        self.clears = 0
        self._observers: list[Observer] = []

    def _bounds(self) -> tuple[int, int]:
        """End offsets into the log's rows and punctuations."""
        if self._end is None:
            return len(self.log), len(self.log.punctuations)
        return self._end, self._pend

    @property
    def elements(self) -> list[StreamElement]:
        return [
            StreamElement(row, stamp, source)
            for rows, stamps, source in self.log.runs(self._start, self._bounds()[0])
            for row, stamp in zip(rows, stamps)
        ]

    @property
    def punctuations(self) -> list[Punctuation]:
        return self.log.punctuations[self._pstart : self._bounds()[1]]

    @property
    def rows(self) -> list[Row]:
        return [row for rows, _, _ in self.log.runs(self._start, self._bounds()[0]) for row in rows]

    def __len__(self) -> int:
        return self._bounds()[0] - self._start

    @property
    def received(self) -> int:
        """The log's :attr:`~CollectingConsumer.received`."""
        return self.log.received

    def extent(self) -> tuple[CollectingConsumer, int, int, float]:
        """As :meth:`CollectingConsumer.extent`, over the log."""
        end, pend = self._bounds()
        log = self.log
        watermark = log.punctuations[pend - 1].watermark if pend > self._pstart else float("-inf")
        return log, self._start, end, watermark

    def observe(self, callback: Observer) -> None:
        """Observe the log's runs until this view closes (a closed view
        takes no observer)."""
        if self._end is None:
            self._observers.append(callback)
            self.log.observe(callback)

    def close(self) -> None:
        """Fix the end offsets and take this view's observers off the
        log. Idempotent."""
        if self._end is not None:
            return
        self._end, self._pend = self._bounds()
        mine, log = self._observers, self.log
        log._observers = [callback for callback in log._observers if callback not in mine]
        self._observers = []

    def clear(self) -> None:
        self._start, self._pstart = self._bounds()
        self.clears += 1


class Segment:
    """Rows and their stamps buffered across runs until a punctuation —
    an aggregate's pending segment, an ORDER BY's report — with each
    run's source kept once per change, not per row. Built from runs
    (:meth:`extend`) or one element at a time (:meth:`append`); an
    operator's snapshot reads it back as elements (:meth:`elements`),
    the layout checkpoints have always held."""

    __slots__ = ("rows", "stamps", "_sources", "source")

    def __init__(self) -> None:
        self.rows: list[Row] = []
        self.stamps: list[float] = []
        #: ``(first row, source)`` wherever the source changes.
        self._sources: list[tuple[int, str]] = []
        #: The last run's source (None while empty).
        self.source: str | None = None

    def extend(self, rows: list[Row], stamps: list[float], source: str) -> None:
        if rows:
            if source != self.source:
                self._sources.append((len(self.rows), source))
                self.source = source
            self.rows += rows
            self.stamps += stamps

    def append(self, element: StreamElement) -> None:
        if element.source != self.source:
            self._sources.append((len(self.rows), element.source))
            self.source = element.source
        self.rows.append(element.row)
        self.stamps.append(element.timestamp)

    def __len__(self) -> int:
        return len(self.rows)

    def runs(self) -> Iterator[tuple[list[Row], list[float], str]]:
        """The buffered rows as same-source runs, in arrival order."""
        ends = [first for first, _ in self._sources[1:]] + [len(self.rows)]
        for (first, source), end in zip(self._sources, ends):
            yield self.rows[first:end], self.stamps[first:end], source

    def elements(self) -> list[StreamElement]:
        return [
            StreamElement(row, stamp, source)
            for rows, stamps, source in self.runs()
            for row, stamp in zip(rows, stamps)
        ]

    @classmethod
    def of(cls, elements: Iterable[StreamElement]) -> "Segment":
        """A segment holding ``elements`` (a snapshot's, restored)."""
        segment = cls()
        for element in elements:
            segment.append(element)
        return segment


def push_all(consumer: StreamConsumer, rows: list[Row], stamps: list[float], source: str) -> None:
    """Deliver a run via the optional ``push_batch`` verb.

    The single definition of the duck-typed batched dispatch: consumers
    with ``push_batch`` get the whole run in one call, push-only
    consumers one element per row, in order. Hot paths that dispatch
    to a fixed consumer may cache ``getattr(consumer, "push_batch",
    None)`` themselves (see ``Operator.emit_batch``); everything else
    should go through here so the fallback lives in one place.
    """
    batch = getattr(consumer, "push_batch", None)
    if batch is not None:
        batch(rows, stamps, source)
    else:
        push = consumer.push
        for row, stamp in zip(rows, stamps):
            push(StreamElement(row, stamp, source))


def replay(items: Iterable[StreamItem], consumer: StreamConsumer) -> None:
    """Push every item of an iterable into ``consumer`` (test/bench helper)."""
    for item in items:
        consumer.push(item)
