"""Stream elements and the push-based stream protocol.

ASPEN's stream engine is a push dataflow: sources call
:meth:`StreamConsumer.push` with :class:`StreamElement` items (a row plus
its event timestamp) and :class:`Punctuation` markers asserting that no
element with a smaller timestamp will ever arrive. Punctuations drive
window closing and allow bounded state in joins and aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, runtime_checkable

from repro.data.tuples import Row


class StreamElement:
    """One timestamped row on a stream.

    A slotted plain class rather than a dataclass: elements are created
    once per row per pipeline stage, so construction cost is hot-path
    cost. Treat instances as immutable.

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


def elements_from_columns(
    schema, source: str, values_list, timestamps
) -> list[StreamElement]:
    """Fused hot-path constructor: one element per (values, timestamp).

    Builds ``StreamElement(Row.raw(schema, values), stamp, source)`` for
    every pair, but with the ``Row.raw``/``__init__`` call frames
    flattened into direct slot assignment — at tens of thousands of
    elements per ingest batch the two frames per element are measurable.
    Same trust contract as :meth:`Row.raw`: ``values`` must already be
    tuples of the schema's arity.
    """
    new = object.__new__
    out: list[StreamElement] = []
    append = out.append
    for values, stamp in zip(values_list, timestamps):
        row = new(Row)
        row.schema = schema
        row.values = values
        row._hash = None
        element = new(StreamElement)
        element.row = row
        element.timestamp = stamp
        element.source = source
        append(element)
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
    * ``push_batch(elements)`` carries a (possibly empty)
      **punctuation-free run of StreamElements in arrival order**. A
      producer holding elements and punctuations interleaved sends each
      run by ``push_batch`` and each punctuation by ``push``; a consumer
      never scans a batch for, splits a batch at, or recovers from a
      punctuation inside one (lint rule RA902 enforces both halves).
      The list stays the producer's: a receiver **neither mutates nor
      keeps it** (it copies out what it buffers). Ingest hands one run
      to every route of a source and a shared chain's tee hands one run
      to every branch, so the next receiver reads the same list.

    **A fan-out finishes before it raises.** A producer handing one item
    or run to several consumers — the engine's routes of a source, a
    tee's branches, a pool's shards, a sink's observers — delivers
    to every one of them even when one raises, then re-raises the first
    exception. The verb still raises, and what it carried counts as
    ingested (it is in the replay log), so a caller that retries it
    duplicates it; one raising consumer never starves its siblings.

    ``push_batch`` is optional and deliberately *not* part of this
    runtime-checkable protocol — a ``push``-only consumer is still a
    StreamConsumer. Producers discover it by duck typing
    (:func:`push_all` is the one fallback: per-element ``push`` in
    order). Which verb runs is the caller's choice: a row at a time
    (``session.push``) stays on ``push`` end to end, a bulk batch
    (``session.push_many``) on ``push_batch``.
    """

    def push(self, item: StreamItem) -> None:
        """Receive one element or punctuation."""
        ...


class CallbackConsumer:
    """Adapter turning a plain callable into a :class:`StreamConsumer`."""

    def __init__(self, fn: Callable[[StreamItem], None]):
        self._fn = fn

    def push(self, item: StreamItem) -> None:
        self._fn(item)

    def push_batch(self, elements: Iterable[StreamElement]) -> None:
        fn = self._fn
        for element in elements:
            fn(element)


Observer = Callable[[list[StreamElement]], None]


class CollectingConsumer:
    """Consumer that buffers everything it receives — used by tests,
    benches, as the terminal sink of executed query plans, and as a
    shared chain's append-only result log, which each of the chain's
    queries reads through its own :class:`LogView`."""

    def __init__(self) -> None:
        self.elements: list[StreamElement] = []
        self.punctuations: list[Punctuation] = []
        #: Times clear() has run — lets incremental readers (e.g.
        #: QueryHandle.latest_batch) detect a reset even after a refill.
        self.clears = 0
        #: Rebound, never mutated: a fan-out in flight keeps its list.
        self._observers: list[Observer] = []
        #: ``(run, observers)`` stored while a fan-out is in flight;
        #: None when no fan-out is.
        self._queued: list[tuple[list[StreamElement], list[Observer]]] | None = None

    def observe(self, callback: Observer) -> None:
        """Call ``callback`` once with every run stored from now on,
        after it is stored (a Cursor's subscriptions hang off this).

        A ``push_batch`` run arrives as it was handed over and a
        ``push`` as a one-element run, so an observer has one body. The
        run is the producer's list: an observer neither mutates nor
        keeps it (the ``push_batch`` rule on :class:`StreamConsumer`).
        Empty runs and punctuations are not observed. The rules of the
        observer fan-out:

        * *a fan-out finishes before it raises* — every observer gets
          the run, then the first exception is re-raised;
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
        else:
            self.elements.append(item)
            if self._observers:
                self._fan_out([item])

    def push_batch(self, elements: list[StreamElement]) -> None:
        self.elements.extend(elements)
        if self._observers and elements:
            self._fan_out(elements)

    def _fan_out(self, run: list[StreamElement]) -> None:
        observers = self._observers
        if self._queued is not None:
            self._queued.append((list(run), observers))
            return
        self._queued = queued = []
        error = None
        try:
            while True:
                for callback in observers:
                    try:
                        callback(run)
                    except Exception as exc:  # a fan-out finishes first
                        error = error or exc
                if not queued:
                    break
                run, observers = queued.pop(0)
        finally:
            self._queued = None
        if error is not None:
            raise error

    @property
    def rows(self) -> list[Row]:
        """The received data rows, in arrival order."""
        return [e.row for e in self.elements]

    def extent(self) -> tuple[list[StreamElement], int, int, float]:
        """``(elements, lo, hi, watermark)``: the results are
        ``elements[lo:hi]`` and ``watermark`` is the latest punctuation's
        (``-inf`` before the first) — what an incremental reader
        (``QueryHandle.latest_batch``) needs, without a copy."""
        punctuations = self.punctuations
        watermark = punctuations[-1].watermark if punctuations else float("-inf")
        return self.elements, 0, len(self.elements), watermark

    def restore(self, state: dict) -> None:
        """Refill from a checkpointed ``snapshot_sink`` state."""
        self.elements[:] = state["elements"]
        self.punctuations[:] = state["punctuations"]
        self.clears = state["clears"]

    def clear(self) -> None:
        self.elements.clear()
        self.punctuations.clear()
        self.clears += 1

    def __len__(self) -> int:
        return len(self.elements)


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
    view's slice; :meth:`extent` reads it without one.
    """

    def __init__(self, log: CollectingConsumer) -> None:
        self.log = log
        self._start = len(log.elements)
        self._pstart = len(log.punctuations)
        #: End offsets, fixed at close; None while open.
        self._end: int | None = None
        self._pend: int | None = None
        self.clears = 0
        self._observers: list[Observer] = []

    def _bounds(self) -> tuple[int, int]:
        """End offsets into the log's elements and punctuations."""
        if self._end is None:
            return len(self.log.elements), len(self.log.punctuations)
        return self._end, self._pend

    @property
    def elements(self) -> list[StreamElement]:
        return self.log.elements[self._start : self._bounds()[0]]

    @property
    def punctuations(self) -> list[Punctuation]:
        return self.log.punctuations[self._pstart : self._bounds()[1]]

    @property
    def rows(self) -> list[Row]:
        return [e.row for e in self.elements]

    def __len__(self) -> int:
        return self._bounds()[0] - self._start

    def extent(self) -> tuple[list[StreamElement], int, int, float]:
        """As :meth:`CollectingConsumer.extent`, over the log's list."""
        end, pend = self._bounds()
        log = self.log
        watermark = log.punctuations[pend - 1].watermark if pend > self._pstart else float("-inf")
        return log.elements, self._start, end, watermark

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

    def restore(self, state: dict) -> None:
        """Take a checkpointed slice back. Every open view's slice is a
        suffix of its log, so the longest one refills a fresh log and
        the others start where their suffix does: restore the views of
        one log longest slice first."""
        log, elements, punctuations = self.log, state["elements"], state["punctuations"]
        if len(elements) > len(log.elements):
            log.elements[:] = elements
        if len(punctuations) > len(log.punctuations):
            log.punctuations[:] = punctuations
        self._start = len(log.elements) - len(elements)
        self._pstart = len(log.punctuations) - len(punctuations)
        self.clears = state["clears"]


def push_all(consumer: StreamConsumer, elements: list[StreamElement]) -> None:
    """Deliver a run of elements via the optional ``push_batch`` verb.

    The single definition of the duck-typed batched dispatch: consumers
    with ``push_batch`` get the whole run in one call, push-only
    consumers get per-element pushes in order. Hot paths that dispatch
    to a fixed consumer may cache ``getattr(consumer, "push_batch",
    None)`` themselves (see ``Operator.emit_batch``); everything else
    should go through here so the fallback lives in one place.
    """
    batch = getattr(consumer, "push_batch", None)
    if batch is not None:
        batch(elements)
    else:
        push = consumer.push
        for element in elements:
            push(element)


def replay(items: Iterable[StreamItem], consumer: StreamConsumer) -> None:
    """Push every item of an iterable into ``consumer`` (test/bench helper)."""
    for item in items:
        consumer.push(item)
