"""Row values flowing through ASPEN plans.

A :class:`Row` pairs a :class:`~repro.data.schema.Schema` with a tuple of
values. Rows are immutable by convention and hashable (required by the
provenance machinery of the recursive stream-view maintainer, which
counts derivations per distinct row).
"""

from __future__ import annotations

import zlib
from typing import Any, Iterable, Iterator, Mapping

from repro.data.schema import Schema
from repro.data.types import conforms
from repro.errors import SchemaError, TypeMismatchError

#: Arbitrary odd constants keeping distinct value kinds apart in
#: :func:`stable_hash` (None vs 0 vs "" must not collide trivially).
_NONE_HASH = 0x9E3779B1
_SEQ_SEED = 0x85EBCA77


def stable_hash(value: Any) -> int:
    """A deterministic, process-independent hash for partition routing.

    Python's builtin ``hash`` is salted per process for ``str`` (and
    anything built on it), so two engine processes — or two runs of the
    same test — would disagree about which shard owns ``'lab1'``. This
    hash is stable across processes and runs:

    * numbers use the builtin hash (CPython does not salt them, and
      ``hash(1) == hash(1.0)`` keeps int/float join keys co-partitioned);
    * strings/bytes hash their UTF-8 bytes with CRC-32;
    * tuples (and :class:`Row` values) mix element hashes order-sensitively;
    * anything else falls back to the CRC-32 of its ``repr``.

    The result is non-negative, so ``stable_hash(v) % shards`` is a
    valid shard index.
    """
    if type(value) is str:  # the overwhelmingly common partition key kind
        return zlib.crc32(value.encode("utf-8"))
    if value is None:
        return _NONE_HASH
    if isinstance(value, bytes):
        return zlib.crc32(value)
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8"))
    if isinstance(value, (int, float)):  # bool included (int subclass)
        return hash(value) & 0x7FFFFFFFFFFFFFFF
    if isinstance(value, tuple):
        acc = _SEQ_SEED
        for item in value:
            acc = (acc * 1000003 + stable_hash(item)) & 0x7FFFFFFFFFFFFFFF
        return acc
    if isinstance(value, Row):
        return stable_hash(value.values)
    return zlib.crc32(repr(value).encode("utf-8"))


class Row:
    """An immutable, schema-typed tuple of values.

    Values are validated against the schema's types on construction so
    that malformed data from a wrapper fails at the boundary, not deep
    inside an operator.

    ``schema`` and ``values`` are plain slots, as ``StreamElement``'s
    fields are: generated per-row loops read them without a property
    call and build rows by slot stores (``object.__new__`` plus
    assignments, the body of :meth:`raw`). Rows are immutable by
    convention — nothing assigns either slot after construction.
    """

    __slots__ = ("schema", "values", "_hash")

    def __init__(self, schema: Schema, values: Iterable[Any], *, validate: bool = True):
        self.schema = schema
        self.values = tuple(values)
        if len(self.values) != len(schema):
            raise SchemaError(
                f"row has {len(self.values)} values but schema has {len(schema)} fields"
            )
        if validate:
            for field, value in zip(schema, self.values):
                if not conforms(value, field.dtype):
                    raise TypeMismatchError(
                        f"value {value!r} does not conform to {field.name}:{field.dtype.value}"
                    )
        self._hash: int | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def raw(cls, schema: Schema, values: tuple) -> "Row":
        """Unchecked hot-path constructor.

        ``values`` must already be a tuple of the schema's arity; no
        copy, arity check or type validation happens. Operators use this
        for rows they derive from already-validated inputs — malformed
        external data must still enter through ``Row(...)`` or
        :meth:`from_mapping`.
        """
        row = object.__new__(cls)
        row.schema = schema
        row.values = values
        row._hash = None
        return row

    @classmethod
    def from_mapping(cls, schema: Schema, mapping: Mapping[str, Any]) -> "Row":
        """Build a row by looking up each schema field in ``mapping``.

        Field names are matched on their full name first, then bare name,
        so wrappers can supply plain column names for qualified schemas.
        """
        values = []
        for field in schema:
            if field.name in mapping:
                values.append(mapping[field.name])
            elif field.bare_name in mapping:
                values.append(mapping[field.bare_name])
            else:
                raise SchemaError(f"mapping is missing field {field.name!r}")
        return cls(schema, values)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __getitem__(self, key: str | int) -> Any:
        if isinstance(key, int):
            return self.values[key]
        return self.values[self.schema.index_of(key)]

    def get(self, key: str, default: Any = None) -> Any:
        """Value for ``key`` or ``default`` if the field does not exist."""
        if self.schema.has(key):
            return self[key]
        return default

    def as_dict(self) -> dict[str, Any]:
        """A name→value dict (full field names)."""
        return dict(zip(self.schema.names, self.values))

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def project(self, names: Iterable[str]) -> "Row":
        """Row restricted to ``names``, with a correspondingly projected schema."""
        names = list(names)
        schema = self.schema.project(names)
        return Row(schema, (self[name] for name in names), validate=False)

    def concat(self, other: "Row") -> "Row":
        """The join of two rows (schema and values concatenated)."""
        return Row.raw(self.schema.concat(other.schema), self.values + other.values)

    def with_schema(self, schema: Schema) -> "Row":
        """This row's values reinterpreted under an equally-long ``schema``."""
        values = self.values
        if len(values) != len(schema._fields):
            raise SchemaError(
                f"row has {len(values)} values but schema has {len(schema)} fields"
            )
        return Row.raw(schema, values)

    def replace(self, **updates: Any) -> "Row":
        """A copy of this row with the named fields replaced."""
        values = list(self.values)
        for name, value in updates.items():
            values[self.schema.index_of(name)] = value
        return Row(self.schema, values)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.schema.has(name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self.values == other.values and self.schema == other.schema

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.schema, self.values))
        return self._hash

    def __repr__(self) -> str:
        pairs = ", ".join(f"{n}={v!r}" for n, v in zip(self.schema.names, self.values))
        return f"Row({pairs})"
