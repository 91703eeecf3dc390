"""Unbounded-state detection: prove each stateful operator's memory bounded.

Reads the windows the plan nodes carry, the ones the compiler hands the
operators: ``Join.windows`` (each side's
:func:`~repro.plan.logical.side_window` — an un-windowed stream scan
runs under the default RANGE window, stored tables are UNBOUNDED but
finite) and ``Aggregate.closing_window``. From those, each stateful
operator's memory is provably bounded — or not:

* A **join** side whose inferred window is UNBOUNDED over an *infinite*
  input (a stream scan or remote feed beneath it) never evicts its
  buffer → ``RA101`` (error).
* **DISTINCT** keeps one entry per distinct row forever, whatever
  window its scans declare; over an infinite input the seen-set is
  bounded only by value cardinality → ``RA102`` (warning — SmartCIS
  value domains are small, but nothing enforces that).
* An **aggregate without a closing window** runs in running mode
  (:class:`~repro.stream.operators.AggregateOp`): groups accumulate for
  the stream's lifetime and are never cleared, and a declared ROWS or
  NOW window is not applied. With group keys or DISTINCT calls the
  state grows with key/value cardinality → ``RA103`` warning; a global
  aggregate of plain calls keeps O(1) accumulators → ``RA103`` info
  (running totals, bounded). An *explicit* ``[unbounded]`` window says
  "aggregate the whole history" over a stream that has no end →
  ``RA104`` (error).

RANGE-windowed operators evict past the window horizon and are bounded;
plans reading only stored tables are bounded by the tables themselves.
"""

from __future__ import annotations

from repro.catalog import SourceKind
from repro.data.windows import WindowKind
from repro.plan.logical import (
    Aggregate,
    Distinct,
    Join,
    LogicalOp,
    RemoteSource,
    Scan,
    scans_of,
)

from repro.analysis.diagnostics import ERROR, INFO, WARNING, Diagnostic, diag


def is_infinite(node: LogicalOp) -> bool:
    """Whether ``node``'s subtree reads at least one input that never
    ends: a stream-kind scan or a remote fragment feed."""
    for leaf in node.walk():
        if isinstance(leaf, RemoteSource):
            return True
        if isinstance(leaf, Scan) and leaf.entry.kind is SourceKind.STREAM:
            return True
    return False


def check_bounds(plan: LogicalOp) -> list[Diagnostic]:
    """Prove every stateful operator bounded; ``RA1xx`` diagnostics
    where the proof fails."""
    out: list[Diagnostic] = []
    for node in plan.walk():
        if isinstance(node, Join):
            _check_join(node, out)
        elif isinstance(node, Distinct):
            _check_distinct(node, out)
        elif isinstance(node, Aggregate):
            _check_aggregate(node, out)
    return out


def _check_join(node: Join, out: list[Diagnostic]) -> None:
    sides = zip(("left", "right"), (node.left, node.right), node.windows)
    for label, side, window in sides:
        if not is_infinite(side):
            continue  # finite side: buffer bounded by the stored rows
        if window.kind is WindowKind.UNBOUNDED:
            out.append(
                diag(
                    "RA101",
                    ERROR,
                    f"{label} join side buffers every row of an infinite "
                    "stream (UNBOUNDED window, nothing ever evicts)",
                    operator=node.describe(),
                    hint="give the stream scan a [range ...] window",
                )
            )


def _check_distinct(node: Distinct, out: list[Diagnostic]) -> None:
    if is_infinite(node.child):
        # DISTINCT takes no window: a declared one is not applied.
        windowed = any(scan.window is not None for scan in scans_of(node.child))
        out.append(
            diag(
                "RA102",
                WARNING,
                "DISTINCT over an infinite stream keeps one entry per "
                "distinct row forever; memory is bounded only by the "
                "value domain"
                + ("; the declared window is ignored" if windowed else ""),
                operator=node.describe(),
            )
        )


def _check_aggregate(node: Aggregate, out: list[Diagnostic]) -> None:
    if not is_infinite(node.child):
        return
    if node.closing_window is not None:
        return  # windowed mode evicts past the horizon: bounded
    window = node.window
    if window is not None and window.kind is WindowKind.UNBOUNDED:
        out.append(
            diag(
                "RA104",
                ERROR,
                "UNBOUNDED window aggregates the whole history of an "
                "infinite stream; the buffer never stops growing",
                operator=node.describe(),
                hint="use a [range ...] window or drop the window for "
                "punctuation-driven running totals",
            )
        )
        return
    # Running mode: groups accumulate forever (AggregateOp never clears
    # them). Growth depends on what keys the state:
    unbounded = bool(node.group_by) or any(
        item.call.distinct for item in node.aggregates
    )
    message = (
        "running-mode aggregate state grows with group-key / "
        "DISTINCT-value cardinality and is never cleared"
        if unbounded
        else "global running totals keep O(1) accumulators for the "
        "stream's lifetime"
    )
    if window is not None:
        message = (
            f"the declared {window.render()} window is not applied: running "
            f"totals are emitted at each punctuation; {message}"
        )
    out.append(
        diag("RA103", WARNING if unbounded else INFO, message, operator=node.describe())
    )
