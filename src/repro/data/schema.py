"""Relational schemas shared by every ASPEN engine.

A :class:`Schema` is an ordered list of :class:`Field` objects. Field
names may be *qualified* (``"ss.room"``) or bare (``"room"``); lookup
accepts either form and resolves bare names against qualified fields
when unambiguous, mirroring SQL name resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Iterable, Iterator

from repro.data.types import DataType, size_in_bytes
from repro.errors import SchemaError, UnknownFieldError


@dataclass(frozen=True)
class Field:
    """A single named, typed column.

    Attributes:
        name: Column name, possibly qualified as ``relation.column``.
        dtype: Logical type of the column.
        doc: Optional human-readable description (shown in catalogs).
    """

    name: str
    dtype: DataType
    doc: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("field name must be non-empty")

    @property
    def bare_name(self) -> str:
        """The column name without its relation qualifier."""
        return self.name.rsplit(".", 1)[-1]

    @property
    def qualifier(self) -> str | None:
        """The relation qualifier, or None for a bare name."""
        if "." in self.name:
            return self.name.rsplit(".", 1)[0]
        return None

    def qualified(self, relation: str) -> "Field":
        """Return a copy of this field qualified by ``relation``."""
        return Field(f"{relation}.{self.bare_name}", self.dtype, self.doc)

    def renamed(self, name: str) -> "Field":
        """Return a copy of this field with a new name."""
        return Field(name, self.dtype, self.doc)

    def __repr__(self) -> str:
        return f"{self.name}:{self.dtype.value}"


class Schema:
    """An ordered, immutable collection of :class:`Field` objects.

    Duplicate *full* names are rejected; duplicate bare names are
    permitted (they arise from joins) and make bare-name lookup
    ambiguous, which raises :class:`SchemaError` at lookup time — the
    same behaviour as SQL.
    """

    __slots__ = ("_fields", "_by_name", "_by_bare", "_hash")

    def __init__(self, fields: Iterable[Field]):
        self._fields: tuple[Field, ...] = tuple(fields)
        self._by_name: dict[str, int] = {}
        self._by_bare: dict[str, list[int]] = {}
        self._hash: int | None = None
        for index, f in enumerate(self._fields):
            if f.name in self._by_name:
                raise SchemaError(f"duplicate field name {f.name!r} in schema")
            self._by_name[f.name] = index
            self._by_bare.setdefault(f.bare_name, []).append(index)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, *pairs: tuple[str, DataType]) -> "Schema":
        """Build a schema from ``(name, dtype)`` pairs.

        >>> Schema.of(("room", DataType.STRING), ("temp", DataType.FLOAT))
        Schema(room:string, temp:float)
        """
        return cls(Field(name, dtype) for name, dtype in pairs)

    def qualified(self, relation: str) -> "Schema":
        """Return this schema with every field qualified by ``relation``."""
        return Schema(f.qualified(relation) for f in self._fields)

    def unqualified(self) -> "Schema":
        """Return this schema with all qualifiers stripped.

        Raises :class:`SchemaError` if stripping would create duplicates.
        """
        return Schema(Field(f.bare_name, f.dtype, f.doc) for f in self._fields)

    def concat(self, other: "Schema") -> "Schema":
        """Schema of the cross product / join of two inputs.

        Memoized: joins concatenate the same two schemas once per output
        row, so rebuilding the lookup dicts each time is hot-path cost.
        """
        return _concat_schemas(self, other)

    def project(self, names: Iterable[str]) -> "Schema":
        """Schema containing only the named fields, in the given order."""
        return Schema(self.field(name) for name in names)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def index_of(self, name: str) -> int:
        """Position of field ``name``, resolving bare names like SQL does.

        Resolution rules (intentional, mirroring SQL):

        * A **qualified** name (``"ss.room"``) must match a field's full
          name exactly; it is never resolved against bare names, and a
          partial qualifier match (``"ss.room"`` against a field named
          ``"SeatSensors.ss.room"``) is not supported. A miss raises
          :class:`UnknownFieldError`.
        * A **bare** name matches a unique field with that bare name;
          zero matches raise :class:`UnknownFieldError` and several raise
          :class:`SchemaError` (ambiguous, as in SQL).
        """
        index = self._by_name.get(name)
        if index is not None:
            return index
        bare = name.rsplit(".", 1)[-1]
        if bare != name:
            # Qualified lookup is exact-only (rule above).
            raise UnknownFieldError(name, self.names)
        candidates = self._by_bare.get(bare)
        if not candidates:
            raise UnknownFieldError(name, self.names)
        if len(candidates) == 1:
            return candidates[0]
        matches = [self._fields[i].name for i in candidates]
        raise SchemaError(f"ambiguous field {name!r}: matches {matches}")

    def field(self, name: str) -> Field:
        """The :class:`Field` for ``name`` (bare or qualified)."""
        return self._fields[self.index_of(name)]

    def dtype(self, name: str) -> DataType:
        """Type of the named field."""
        return self.field(name).dtype

    def has(self, name: str) -> bool:
        """True if ``name`` resolves to exactly one field."""
        try:
            self.index_of(name)
            return True
        except (UnknownFieldError, SchemaError):
            return False

    @property
    def names(self) -> list[str]:
        """Full names of all fields, in order."""
        return [f.name for f in self._fields]

    @property
    def fields(self) -> tuple[Field, ...]:
        return self._fields

    def row_size_bytes(self) -> int:
        """Estimated wire size of one row, for the sensor cost model."""
        return sum(size_in_bytes(f.dtype) for f in self._fields)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self._fields)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Schema):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        # Cached: Row.__hash__ hashes its schema per row on hot paths.
        if self._hash is None:
            self._hash = hash(self._fields)
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(repr(f) for f in self._fields)
        return f"Schema({inner})"


@lru_cache(maxsize=1024)
def _concat_schemas(a: "Schema", b: "Schema") -> "Schema":
    return Schema(a._fields + b._fields)


EMPTY_SCHEMA = Schema(())
