"""Window specifications for Stream SQL.

ASPEN's Stream SQL supports the CQL-style window clauses the paper's
queries use::

    SeatSensors [RANGE 30 SECONDS]
    Machines    [RANGE 60 SECONDS SLIDE 10 SECONDS]
    Power       [ROWS 100]
    Readings    [NOW]
    Config      [UNBOUNDED]

A :class:`WindowSpec` describes the clause. A windowed aggregate numbers
its RANGE windows: window *k* ends at ``k * hop`` and the spec's index
methods (:meth:`WindowSpec.first_index`, :meth:`~WindowSpec.indexes`,
:meth:`~WindowSpec.start`, :meth:`~WindowSpec.closed_through`) say which
windows a row belongs to and which a watermark closes.
:func:`assign_windows` maps a timestamp to its window end-times,
independently of those methods.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import SchemaError


class WindowKind(enum.Enum):
    """The flavours of window clause supported by the parser and engines."""

    RANGE = "range"          # time-based sliding window
    ROWS = "rows"            # count-based sliding window
    NOW = "now"              # degenerate zero-width window
    UNBOUNDED = "unbounded"  # the whole history (relations / static tables)


@dataclass(frozen=True)
class WindowSpec:
    """A parsed window clause.

    Attributes:
        kind: The window flavour.
        size: Window extent — seconds for RANGE, row count for ROWS.
        slide: Hop between consecutive window ends, in seconds. Only
            meaningful for RANGE windows. ``0`` (no SLIDE clause) means
            tumbling to an aggregate, which then hops by ``size`` (see
            :attr:`hop`). A join ignores the slide.
    """

    kind: WindowKind
    size: float = 0.0
    slide: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is WindowKind.RANGE and self.size <= 0:
            raise SchemaError("RANGE window size must be positive")
        if self.kind is WindowKind.ROWS and (self.size <= 0 or self.size != int(self.size)):
            raise SchemaError("ROWS window size must be a positive integer")
        if self.slide < 0:
            raise SchemaError("window slide must be non-negative")
        if self.slide and self.kind is not WindowKind.RANGE:
            raise SchemaError("SLIDE is only valid on RANGE windows")

    # Convenience constructors ------------------------------------------------
    @classmethod
    def range(cls, seconds: float, slide: float = 0.0) -> "WindowSpec":
        """Time-based window covering the last ``seconds`` seconds."""
        return cls(WindowKind.RANGE, seconds, slide)

    @classmethod
    def rows(cls, count: int) -> "WindowSpec":
        """Count-based window over the last ``count`` rows."""
        return cls(WindowKind.ROWS, count)

    @classmethod
    def now(cls) -> "WindowSpec":
        """Zero-width window: only simultaneous elements join."""
        return cls(WindowKind.NOW)

    @classmethod
    def unbounded(cls) -> "WindowSpec":
        """Unbounded window: treat the stream as a growing relation."""
        return cls(WindowKind.UNBOUNDED)

    # Semantics ---------------------------------------------------------------
    @property
    def is_tumbling(self) -> bool:
        """True for RANGE windows whose slide equals their size."""
        return self.kind is WindowKind.RANGE and self.slide == self.size

    def contains(self, element_ts: float, reference_ts: float) -> bool:
        """Would an element at ``element_ts`` still be live at ``reference_ts``?

        Implements the join-window test: for ``RANGE w`` the element is
        live while ``reference_ts - element_ts <= w``. NOW requires exact
        timestamp equality; UNBOUNDED always matches.
        """
        if self.kind is WindowKind.UNBOUNDED:
            return True
        if self.kind is WindowKind.NOW:
            return element_ts == reference_ts
        if self.kind is WindowKind.RANGE:
            return 0 <= reference_ts - element_ts <= self.size
        # ROWS windows are resolved by the operator's buffer, not by time.
        return True

    def expiry(self, element_ts: float) -> float:
        """Timestamp after which an element at ``element_ts`` can be evicted."""
        if self.kind is WindowKind.RANGE:
            return element_ts + self.size
        if self.kind is WindowKind.NOW:
            return element_ts
        return math.inf

    @property
    def evicts_by_time(self) -> bool:
        """True when :meth:`expiry` is finite (RANGE, NOW): a buffer of
        this window drops rows as watermarks pass. ROWS bounds by count
        and UNBOUNDED keeps every row."""
        return self.kind in (WindowKind.RANGE, WindowKind.NOW)

    # Window indexes (RANGE windows of an aggregate) ---------------------------
    # Window k covers (start(k), k * hop]. Ends are computed as k * hop,
    # never by repeated addition, so a fractional hop does not drift.
    @property
    def hop(self) -> float:
        """Distance between consecutive window ends: the slide, or the
        size when no SLIDE was given (a tumbling window)."""
        return self.slide or self.size

    @property
    def panes(self) -> int | None:
        """``size / hop`` when it is a whole number, else ``None``. Then a
        row belongs to exactly that many consecutive windows."""
        span = self.size / self.hop
        return int(span) if span == int(span) else None

    def first_index(self, timestamp: float) -> int:
        """The first window a row stamped ``timestamp`` can belong to:
        the smallest ``k`` with ``k * hop >= timestamp`` (ceil semantics
        — a row exactly on an end belongs to the window ending there)."""
        hop = self.hop
        index = math.ceil(timestamp / hop)
        # The quotient can round across an integer; the product decides.
        if index * hop < timestamp:
            index += 1
        elif (index - 1) * hop >= timestamp:
            index -= 1
        return index

    def start(self, index: int) -> float:
        """Exclusive lower bound of window ``index``: ``(index - panes) *
        hop`` when the size is a whole number of hops, else ``index * hop
        - size``."""
        panes = self.panes
        if panes is not None:
            return (index - panes) * self.hop
        return index * self.hop - self.size

    def indexes(self, timestamp: float) -> range:
        """The windows a row stamped ``timestamp`` belongs to (empty when
        it falls in the gap of a hop longer than the size)."""
        first = self.first_index(timestamp)
        panes = self.panes
        if panes is not None:
            return range(first, first + panes)
        end = first
        while end * self.hop - self.size < timestamp:
            end += 1
        return range(first, end)

    def closed_through(self, watermark: float) -> int | float:
        """The last window a watermark closes: the largest ``k`` with
        ``k * hop <= watermark`` (``±inf`` for an infinite watermark)."""
        if math.isinf(watermark):
            return watermark
        hop = self.hop
        index = math.floor(watermark / hop)
        if index * hop > watermark:
            index -= 1
        elif (index + 1) * hop <= watermark:
            index += 1
        return index

    def render(self) -> str:
        """Render back to Stream SQL surface syntax."""
        if self.kind is WindowKind.UNBOUNDED:
            return "[UNBOUNDED]"
        if self.kind is WindowKind.NOW:
            return "[NOW]"
        if self.kind is WindowKind.ROWS:
            return f"[ROWS {int(self.size)}]"
        if self.slide:
            return f"[RANGE {self.size:g} SECONDS SLIDE {self.slide:g} SECONDS]"
        return f"[RANGE {self.size:g} SECONDS]"



#: The window a stream scan runs under when its FROM entry declares
#: none (stored tables get UNBOUNDED; see
#: :func:`repro.plan.logical.scan_window`).
DEFAULT_STREAM_WINDOW = WindowSpec.range(60.0)


def assign_windows(timestamp: float, spec: WindowSpec) -> list[float]:
    """Window end-times that an element at ``timestamp`` contributes to.

    Only meaningful for RANGE windows with a positive slide (hopping /
    tumbling windows): returns every window end ``e`` with
    ``e - size < timestamp <= e`` and ``e`` a multiple of ``slide``
    (computed as ``k * slide``: adding the slide once per window drifts
    for a fractional slide).

    >>> assign_windows(25.0, WindowSpec.range(30.0, slide=10.0))
    [30.0, 40.0, 50.0]
    """
    if spec.kind is not WindowKind.RANGE or not spec.slide:
        raise SchemaError("assign_windows requires a RANGE window with a SLIDE")
    index = math.floor(timestamp / spec.slide)
    if index * spec.slide < timestamp:
        index += 1
    ends = []
    while index * spec.slide - spec.size < timestamp:
        ends.append(index * spec.slide)
        index += 1
        if len(ends) > 100000:  # pragma: no cover - guard against bad specs
            raise SchemaError("window assignment exploded; check size/slide")
    return ends
