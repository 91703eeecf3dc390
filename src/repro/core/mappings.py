"""Schema mappings and query reformulation.

Paper §3: "Ultimately ASPEN will also include support for schema
mappings and query reformulation, but for SmartCIS these components are
not necessary." This module implements that roadmap item as a
GAV-style (global-as-view) mapping layer:

* A **mediated relation** is a logical relation applications query
  (``Temperatures(location, celsius)``) that no engine hosts directly.
* Each mediated relation carries one or more **definitions** — Stream
  SQL queries over the real sources (a workstation-mote feed, a
  room-mote feed, a weather wrapper) whose output schemas agree.
* **Reformulation** unfolds a query over mediated relations into the
  set of executable variants: one per combination of definitions (the
  union of which is the mediated answer). Each variant reuses the view
  expansion machinery, so the federated optimizer still sees and
  pushes in-network fragments inside mapping definitions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.catalog import Catalog
from repro.data.schema import Schema
from repro.errors import AnalysisError, CatalogError
from repro.sql.analyzer import Analyzer
from repro.sql.ast import SelectQuery, TableRef
from repro.sql.parser import parse_select


@dataclass
class MediatedRelation:
    """One mediated relation and its source definitions.

    Attributes:
        name: The mediated name queries use.
        schema: Output schema (bare column names) every definition must
            produce (same arity and types, positionally).
        view_names: Catalog view names backing each definition.
    """

    name: str
    schema: Schema
    view_names: list[str] = field(default_factory=list)


class MappingRegistry:
    """Registers mediated relations and reformulates queries over them."""

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        self._analyzer = Analyzer(catalog)
        self._mediated: dict[str, MediatedRelation] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, definitions: list[str]) -> MediatedRelation:
        """Register a mediated relation from its definition queries.

        Every definition is parsed, analyzed and schema-checked against
        the first one; each becomes a hidden catalog view
        (``_map_<name>_<i>``) so reformulated queries expand through the
        normal view machinery.
        """
        if not definitions:
            raise CatalogError(f"mediated relation {name!r} needs at least one definition")
        if name.lower() in self._mediated:
            raise CatalogError(f"mediated relation {name!r} already registered")
        if self._catalog.has_source(name) or self._catalog.has_view(name):
            raise CatalogError(f"{name!r} already names a source or view")

        relation = MediatedRelation(name, Schema(()))
        reference_schema: Schema | None = None
        for index, text in enumerate(definitions):
            query = parse_select(text)
            analyzed = self._analyzer.analyze_select(query)
            bare = analyzed.output_schema.unqualified()
            if reference_schema is None:
                reference_schema = bare
            else:
                if len(bare) != len(reference_schema):
                    raise AnalysisError(
                        f"definition {index} of {name} produces {len(bare)} columns, "
                        f"expected {len(reference_schema)}"
                    )
                for got, want in zip(bare, reference_schema):
                    if got.dtype is not want.dtype:
                        raise AnalysisError(
                            f"definition {index} of {name}: column {want.name} is "
                            f"{got.dtype.value}, expected {want.dtype.value}"
                        )
            view_name = f"_map_{name}_{index}"
            self._catalog.register_view(
                view_name, query, f"mapping definition {index} of {name}"
            )
            relation.view_names.append(view_name)
        assert reference_schema is not None
        relation.schema = reference_schema
        self._mediated[name.lower()] = relation
        return relation

    def mediated(self, name: str) -> MediatedRelation:
        relation = self._mediated.get(name.lower())
        if relation is None:
            raise CatalogError(
                f"unknown mediated relation {name!r}; have {sorted(self.names())}"
            )
        return relation

    def is_mediated(self, name: str) -> bool:
        return name.lower() in self._mediated

    def names(self) -> list[str]:
        return [r.name for r in self._mediated.values()]

    # ------------------------------------------------------------------
    # Reformulation
    # ------------------------------------------------------------------
    def reformulate(self, query: SelectQuery | str) -> list[SelectQuery]:
        """Unfold mediated relations in ``query`` into executable variants.

        A query referencing mediated relations M1 (k1 definitions) and
        M2 (k2 definitions) yields k1 × k2 variants; their union is the
        mediated answer. A query with no mediated references returns
        itself unchanged.
        """
        if isinstance(query, str):
            query = parse_select(query)
        mediated_positions = [
            (index, self.mediated(ref.name))
            for index, ref in enumerate(query.tables)
            if self.is_mediated(ref.name)
        ]
        if not mediated_positions:
            return [query]

        choice_lists = [relation.view_names for _, relation in mediated_positions]
        variants: list[SelectQuery] = []
        for combination in itertools.product(*choice_lists):
            tables = list(query.tables)
            for (index, _relation), view_name in zip(mediated_positions, combination):
                original = tables[index]
                # Keep the original binding so column references resolve:
                # "Temperatures t" becomes "_map_Temperatures_0 t", and a
                # bare "Temperatures" gets itself as the alias.
                tables[index] = TableRef(
                    view_name, original.alias or original.name, original.window
                )
            variants.append(
                SelectQuery(
                    items=query.items,
                    tables=tuple(tables),
                    where=query.where,
                    group_by=query.group_by,
                    having=query.having,
                    order_by=query.order_by,
                    limit=query.limit,
                    distinct=query.distinct,
                    output=query.output,
                )
            )
        return variants

    def variant_count(self, query: SelectQuery | str) -> int:
        """How many executable variants reformulation would produce."""
        return len(self.reformulate(query))


@dataclass
class MediatedExecution:
    """Handles of every variant of a reformulated continuous query."""

    variants: list[object]  # QueryHandle or api.Cursor

    @property
    def results(self):
        """Union (concatenation) of all variants' results."""
        out = []
        for handle in self.variants:
            rows = handle.results
            # A QueryHandle exposes a property; the
            # Session API's Cursor exposes a results() method.
            out.extend(rows() if callable(rows) else rows)
        return out

    def stop(self) -> None:
        for handle in self.variants:
            # Cursors spell it close(); engine handles spell it stop().
            stop = getattr(handle, "stop", None) or getattr(handle, "close", None)
            if stop is not None:
                stop()
