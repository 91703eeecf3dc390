"""Incrementally maintained recursive stream views.

This reproduces the stream engine's headline feature (paper §3, citing
Liu et al., ICDE 2009: *Maintaining recursive stream views with
provenance*): a transitive-closure view over a churning edge relation,
kept up to date in real time so SmartCIS can answer "route me to the
nearest free Fedora machine" from the *current* building topology.

Maintenance strategies:

* :class:`RecursiveView` — **incremental**. Insertions are propagated
  differentially (only derivations touching the new tuples are
  computed, then semi-naive closure of the delta). Deletions use DRed
  (delete-and-rederive): over-delete everything with a derivation
  through a deleted tuple, then re-derive what survives from the
  remaining data. Per-row derivation counts are maintained as
  lightweight provenance and exposed for inspection.
* :func:`recompute` — from-scratch fixpoint (ablation baseline, bench E2).

The step plan must be *linear* (reference the CTE exactly once), which
covers transitive closure and the paper's path/neighbourhood queries;
a non-linear step raises :class:`ExecutionError` at construction.
"""

from __future__ import annotations

from collections import Counter

from repro.data.tuples import Row
from repro.errors import ExecutionError
from repro.plan.logical import CteRef, Recursive, Scan
from repro.stream.batch import BoundedPipeline, fixpoint


class RecursiveView:
    """A materialised recursive view maintained under inserts and deletes.

    Args:
        plan: The Recursive logical plan (fixpoint of ``base UNION step``).
        tables: Initial contents of every base relation the plan reads,
            keyed by source name. The collections are copied.
    """

    def __init__(self, plan: Recursive, tables: dict[str, list[Row]]):
        cte_refs = [n for n in plan.step.walk() if isinstance(n, CteRef)]
        if len(cte_refs) != 1:
            raise ExecutionError(
                f"RecursiveView requires a linear step (exactly one reference to "
                f"{plan.name}); found {len(cte_refs)}"
            )
        self.plan = plan
        self._base = BoundedPipeline(plan.base)
        self._step = BoundedPipeline(plan.step)
        self._tables: dict[str, list[Row]] = {k: list(v) for k, v in tables.items()}
        self._rows: set[Row] = set()
        #: Approximate derivation counts (provenance statistic; not used
        #: for deletion correctness — DRed is).
        self.support: Counter[Row] = Counter()
        #: Number of step evaluations performed, for the E2 bench.
        self.maintenance_steps = 0
        self._initialise()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def rows(self) -> set[Row]:
        """A copy of the current view contents."""
        return set(self._rows)

    def __contains__(self, row: Row) -> bool:
        return row in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def insert(self, relation: str, rows: list[Row]) -> int:
        """Insert rows into a base relation; returns view rows added.

        Cost is proportional to the derivations the new tuples create,
        not to the view size — the incremental win measured by bench E2.
        """
        key = self._resolve(relation)
        if not rows:
            return 0
        before = len(self._rows)
        delta_rows = list(rows)
        self._tables[key].extend(delta_rows)

        seed: set[Row] = set()
        # Derivations of the base query that use a new tuple.
        if self._plan_reads(self.plan.base, key):
            produced = self._base(self._with(key, delta_rows))
            seed |= self._rebase(produced)
        # Derivations of the step that use a new tuple (CTE = old view).
        if self._plan_reads(self.plan.step, key):
            step_tables = self._with(key, delta_rows)
            step_tables[self.plan.name] = list(self._rows)
            produced = self._step(step_tables)
            self.maintenance_steps += 1
            seed |= self._rebase(produced)

        for row in seed:
            self.support[row] += 1
        new_delta = seed - self._rows
        self._rows |= new_delta
        self._seminaive(new_delta)
        return len(self._rows) - before

    def delete(self, relation: str, rows: list[Row]) -> int:
        """Delete rows from a base relation; returns view rows removed.

        Implements DRed: (1) over-delete every view row with a
        derivation through a deleted tuple, transitively; (2) re-derive
        over-deleted rows still supported by the remaining data.
        """
        key = self._resolve(relation)
        if not rows:
            return 0
        before = len(self._rows)

        # Physically remove (multiset semantics; absent rows ignored).
        to_remove = Counter(rows)
        kept = []
        actually_removed: list[Row] = []
        for row in self._tables[key]:
            if to_remove.get(row, 0) > 0:
                to_remove[row] -= 1
                actually_removed.append(row)
            else:
                kept.append(row)
        self._tables[key] = kept
        if not actually_removed:
            return 0

        # Phase 1: over-deletion.
        seed: set[Row] = set()
        if self._plan_reads(self.plan.base, key):
            produced = self._base(self._with(key, actually_removed))
            seed |= self._rebase(produced)
        if self._plan_reads(self.plan.step, key):
            step_tables = self._with(key, actually_removed)
            step_tables[self.plan.name] = list(self._rows)
            produced = self._step(step_tables)
            self.maintenance_steps += 1
            seed |= self._rebase(produced)

        if not seed & self._rows:
            return 0  # nothing in the view depended on the deleted rows

        overdeleted: set[Row] = set()
        frontier = seed & self._rows
        while frontier:
            overdeleted |= frontier
            step_tables = dict(self._tables)
            step_tables[self.plan.name] = list(frontier)
            produced = self._step(step_tables)
            self.maintenance_steps += 1
            frontier = (self._rebase(produced) & self._rows) - overdeleted

        surviving = self._rows - overdeleted

        # Phase 2: re-derivation.
        rederived: set[Row] = set()
        base_now = self._rebase(self._base(self._tables))
        rederived |= base_now & overdeleted
        # One full step over the surviving view catches derivations from
        # non-deleted rows; then semi-naive closes over what came back.
        step_tables = dict(self._tables)
        step_tables[self.plan.name] = list(surviving | rederived)
        produced = self._rebase(self._step(step_tables))
        self.maintenance_steps += 1
        new_back = (produced & overdeleted) - rederived
        rederived |= new_back
        current = surviving | rederived
        delta = set(rederived)
        while delta:
            step_tables = dict(self._tables)
            step_tables[self.plan.name] = list(delta)
            produced = self._rebase(self._step(step_tables))
            self.maintenance_steps += 1
            delta = (produced & overdeleted) - current
            current |= delta

        removed_rows = self._rows - current
        for row in removed_rows:
            self.support.pop(row, None)
        self._rows = current
        return before - len(self._rows)

    def update(self, relation: str, remove: list[Row], add: list[Row]) -> None:
        """Atomic delete+insert (an edge changing weight, a door closing)."""
        self.delete(relation, remove)
        self.insert(relation, add)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _initialise(self) -> None:
        base_rows = self._base(self._tables)
        delta = self._rebase(base_rows)
        for row in delta:
            self.support[row] += 1
        self._rows = set(delta)
        self._seminaive(set(delta))

    def _seminaive(self, delta: set[Row]) -> None:
        """Close the view over ``delta`` with semi-naive iteration."""
        while delta:
            step_tables = dict(self._tables)
            step_tables[self.plan.name] = list(delta)
            produced = self._step(step_tables)
            self.maintenance_steps += 1
            rebased = self._rebase(produced)
            for row in rebased:
                self.support[row] += 1
            delta = rebased - self._rows
            self._rows |= delta

    def _rebase(self, rows) -> set[Row]:
        return {row.with_schema(self.plan.cte_schema) for row in rows}

    def _with(self, key: str, replacement: list[Row]) -> dict[str, list[Row]]:
        tables = dict(self._tables)
        tables[key] = list(replacement)
        return tables

    def _plan_reads(self, plan, key: str) -> bool:
        return any(
            isinstance(node, Scan) and node.entry.name.lower() == key.lower()
            for node in plan.walk()
        )

    def _resolve(self, relation: str) -> str:
        for key in self._tables:
            if key.lower() == relation.lower():
                return key
        raise ExecutionError(
            f"view does not read relation {relation!r}; reads {sorted(self._tables)}"
        )


def recompute(plan: Recursive, tables: dict[str, list[Row]]) -> set[Row]:
    """From-scratch fixpoint — the maintenance baseline for bench E2."""
    return set(fixpoint(plan, tables))
