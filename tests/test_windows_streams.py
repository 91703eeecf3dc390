"""Unit tests for window specs and the stream protocol helpers."""

from collections import Counter

import pytest

from repro.data import (
    CallbackConsumer,
    CollectingConsumer,
    DataType,
    Punctuation,
    Row,
    Schema,
    StreamElement,
    WindowKind,
    WindowSpec,
    assign_windows,
    replay,
)
from repro.api import StreamSource, connect
from repro.errors import SchemaError


class TestWindowSpec:
    def test_range_window(self):
        spec = WindowSpec.range(30)
        assert spec.kind is WindowKind.RANGE and spec.size == 30

    def test_range_requires_positive_size(self):
        with pytest.raises(SchemaError):
            WindowSpec.range(0)

    def test_rows_requires_integer(self):
        with pytest.raises(SchemaError):
            WindowSpec(WindowKind.ROWS, 2.5)

    def test_slide_only_on_range(self):
        with pytest.raises(SchemaError):
            WindowSpec(WindowKind.ROWS, 5, slide=2)

    def test_tumbling(self):
        assert WindowSpec.range(10, slide=10).is_tumbling
        assert not WindowSpec.range(10, slide=5).is_tumbling
        assert not WindowSpec.range(10).is_tumbling

    def test_contains_range(self):
        spec = WindowSpec.range(30)
        assert spec.contains(element_ts=70, reference_ts=100)
        assert not spec.contains(element_ts=69, reference_ts=100)
        assert not spec.contains(element_ts=110, reference_ts=100)  # future

    def test_contains_now(self):
        spec = WindowSpec.now()
        assert spec.contains(5, 5)
        assert not spec.contains(5, 5.001)

    def test_contains_unbounded(self):
        assert WindowSpec.unbounded().contains(0, 1e9)

    def test_expiry(self):
        assert WindowSpec.range(30).expiry(100) == 130
        assert WindowSpec.now().expiry(100) == 100
        assert WindowSpec.unbounded().expiry(100) == float("inf")

    def test_render_roundtrip_text(self):
        assert WindowSpec.range(30).render() == "[RANGE 30 SECONDS]"
        assert WindowSpec.range(30, 10).render() == "[RANGE 30 SECONDS SLIDE 10 SECONDS]"
        assert WindowSpec.rows(5).render() == "[ROWS 5]"
        assert WindowSpec.now().render() == "[NOW]"
        assert WindowSpec.unbounded().render() == "[UNBOUNDED]"


class TestAssignWindows:
    def test_basic(self):
        ends = assign_windows(25.0, WindowSpec.range(30, slide=10))
        assert ends == [30.0, 40.0, 50.0]

    def test_boundary_element_belongs_to_ending_window(self):
        ends = assign_windows(30.0, WindowSpec.range(30, slide=10))
        assert ends[0] == 30.0 and len(ends) == 3

    def test_tumbling_gives_single_window(self):
        ends = assign_windows(25.0, WindowSpec.range(10, slide=10))
        assert ends == [30.0]

    def test_requires_slide(self):
        with pytest.raises(SchemaError):
            assign_windows(1.0, WindowSpec.range(10))


class TestWindowIndexes:
    """Window *k* ends at ``k * hop``; the index arithmetic an aggregate
    closes windows by."""

    @pytest.mark.parametrize(
        "spec, timestamp, indexes",
        [
            (WindowSpec.range(10), 10.0, [1]),  # on an end: the window ending there
            (WindowSpec.range(10), 10.001, [2]),
            (WindowSpec.range(10), -5.0, [0]),
            (WindowSpec.range(10), -10.0, [-1]),
            (WindowSpec.range(30, slide=10), 25.0, [3, 4, 5]),
            (WindowSpec.range(25, slide=10), 12.0, [2, 3]),
            (WindowSpec.range(25, slide=10), 16.0, [2, 3, 4]),
            (WindowSpec.range(5, slide=10), 3.0, []),  # in the gap of a hop > size
            (WindowSpec.range(0.1), 0.8, [8]),
        ],
    )
    def test_indexes(self, spec, timestamp, indexes):
        assert list(spec.indexes(timestamp)) == indexes
        for index in indexes:
            assert spec.start(index) < timestamp <= index * spec.hop

    def test_hop_and_panes(self):
        assert WindowSpec.range(10).hop == 10 and WindowSpec.range(10).panes == 1
        assert WindowSpec.range(20, slide=10).panes == 2
        assert WindowSpec.range(25, slide=10).panes is None
        assert WindowSpec.range(0.3, slide=0.1).panes is None  # 2.9999999999999996

    def test_closed_through(self):
        spec = WindowSpec.range(0.1)
        assert [spec.closed_through(i / 10) for i in range(1, 3001)] == [
            i if i * 0.1 <= i / 10 else i - 1 for i in range(1, 3001)
        ]
        assert spec.closed_through(-0.05) == -1
        assert spec.closed_through(float("inf")) == float("inf")


_T = Schema.of(("k", DataType.INT))


def _run_fractional(sql: str, count: int, **options):
    """One row at each ``t = i/10`` (i = 1..count), punctuated at each t,
    then a flush: every emission as ``(timestamp, values)``."""
    session = connect(**options)
    try:
        session.attach(StreamSource("T", _T, rate=10.0))
        cursor = session.query(sql)
        got = []
        cursor.subscribe(lambda e: got.append((e.timestamp, e.row.values)), elements=True)
        for i in range(1, count + 1):
            session.push("T", {"k": i}, i / 10)
            session.punctuate(i / 10)
        session.punctuate(count / 10 + 1.0)
        return got, cursor
    finally:
        session.close()


class TestFractionalSlides:
    """Regression: window ends were computed by adding the slide once per
    window, so with ``SLIDE 0.1`` the end drifted (0.7999999999999999 by
    window 8) and rows spilled into the next window — 2,997 windows for
    3,000 rows, two of them counting 2."""

    TUMBLING = "SELECT COUNT(*) AS n FROM T t [RANGE 0.1 SECONDS SLIDE 0.1 SECONDS]"

    @pytest.mark.parametrize("shards", [None, 2], ids=["single", "pool2-exchanged"])
    def test_every_row_its_own_window(self, shards):
        got, cursor = _run_fractional(
            self.TUMBLING, 3000, **({} if shards is None else {"shards": shards})
        )
        if shards is not None:
            assert cursor._handle.exchanged  # the aggregate runs two-phase
        assert got == [(i * 0.1, (1,)) for i in range(1, 3001)]

    def test_sliding_matches_assign_windows(self):
        spec = WindowSpec.range(0.3, slide=0.1)
        got, _ = _run_fractional(
            "SELECT COUNT(*) AS n FROM T t [RANGE 0.3 SECONDS SLIDE 0.1 SECONDS]", 300
        )
        expected = Counter(
            round(end / spec.slide)
            for i in range(1, 301)
            for end in assign_windows(i / 10, spec)
        )
        assert Counter({round(ts / spec.slide): n for ts, (n,) in got}) == expected
        assert len(got) == len(expected) == 302


class TestStreamHelpers:
    def setup_method(self):
        self.schema = Schema.of(("x", DataType.INT))
        self.element = StreamElement(Row(self.schema, (1,)), 5.0)

    def test_collecting_consumer_separates_punctuation(self):
        sink = CollectingConsumer()
        sink.push(self.element)
        sink.push(Punctuation(6.0))
        assert len(sink) == 1
        assert sink.rows == [self.element.row]
        assert sink.punctuations == [Punctuation(6.0)]

    def test_collecting_consumer_clear(self):
        sink = CollectingConsumer()
        sink.push(self.element)
        sink.clear()
        assert len(sink) == 0 and not sink.punctuations

    def test_callback_consumer(self):
        got = []
        consumer = CallbackConsumer(got.append)
        consumer.push(self.element)
        assert got == [self.element]

    def test_replay(self):
        sink = CollectingConsumer()
        replay([self.element, Punctuation(9.0)], sink)
        assert len(sink) == 1 and sink.punctuations[-1].watermark == 9.0
