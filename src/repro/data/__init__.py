"""ASPEN data model: types, schemas, rows, stream elements and windows."""

from repro.data.schema import EMPTY_SCHEMA, Field, Schema
from repro.data.streams import (
    CallbackConsumer,
    CollectingConsumer,
    Punctuation,
    StreamConsumer,
    StreamElement,
    StreamItem,
    replay,
)
from repro.data.tuples import Row, stable_hash
from repro.data.types import (
    NUMERIC_TYPES,
    ORDERED_TYPES,
    SENSOR_SUPPORTED_TYPES,
    DataType,
    coerce,
    common_type,
    conforms,
    infer_type,
    size_in_bytes,
)
from repro.data.windows import WindowKind, WindowSpec, assign_windows

__all__ = [
    "DataType",
    "Field",
    "Schema",
    "EMPTY_SCHEMA",
    "Row",
    "stable_hash",
    "StreamElement",
    "Punctuation",
    "StreamItem",
    "StreamConsumer",
    "CallbackConsumer",
    "CollectingConsumer",
    "replay",
    "WindowKind",
    "WindowSpec",
    "assign_windows",
    "coerce",
    "conforms",
    "common_type",
    "infer_type",
    "size_in_bytes",
    "NUMERIC_TYPES",
    "ORDERED_TYPES",
    "SENSOR_SUPPORTED_TYPES",
]
