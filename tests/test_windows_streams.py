"""Unit tests for window specs and the stream protocol helpers."""

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
