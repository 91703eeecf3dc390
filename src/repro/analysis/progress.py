"""Progress/punctuation soundness: every blocking operator must unblock.

A blocking operator cannot emit a row the moment it arrives — it must
know no earlier-ordered input is still coming. Over an infinite stream
that knowledge never arrives by itself; the punctuation literature's
answer (and this engine's) is that something must *bound* the wait:

* a **RANGE window**: the watermark passing a window boundary closes the
  window, and the operator emits (``RA200``, info);
* a **punctuation report**: ORDER BY / LIMIT sort and budget one
  punctuation-delimited batch at a time, and running-mode aggregates
  emit their totals at each watermark (``RA201``, info).

Both are sound — the diagnostics are explanations, not defects. The one
shape nothing unblocks is a **recursive fixpoint whose working table is
fed by an infinite stream**: the iteration can never observe "no new
rows", so it never terminates (``RA203``, error). The batch router
refuses stream scans anyway; this catches the hand-built or rewritten
plan before it spins.
"""

from __future__ import annotations

from repro.plan.logical import Aggregate, Limit, LogicalOp, OrderBy, Recursive

from repro.analysis.diagnostics import ERROR, INFO, Diagnostic, diag
from repro.analysis.bounds import is_infinite


def check_progress(plan: LogicalOp) -> list[Diagnostic]:
    """Verify every blocking operator unblocks; ``RA2xx`` diagnostics."""
    out: list[Diagnostic] = []
    for node in plan.walk():
        if isinstance(node, Recursive):
            if is_infinite(node):
                out.append(
                    diag(
                        "RA203",
                        ERROR,
                        f"recursive fixpoint {node.name!r} reads an infinite "
                        "stream; the iteration can never observe a final "
                        "working table",
                        operator=node.describe(),
                        hint="recursive CTEs evaluate over stored tables only",
                    )
                )
            continue
        if isinstance(node, Aggregate) and is_infinite(node.child):
            window = node.closing_window
            if window is not None:
                out.append(
                    diag(
                        "RA200",
                        INFO,
                        "aggregate emits when the watermark closes each "
                        f"window (every {window.hop:g}s)",
                        operator=node.describe(),
                    )
                )
            else:
                out.append(
                    diag(
                        "RA201",
                        INFO,
                        "aggregate emits running totals at each punctuation; "
                        "progress requires the application to punctuate",
                        operator=node.describe(),
                    )
                )
        elif isinstance(node, OrderBy) and is_infinite(node.child):
            out.append(
                diag(
                    "RA201",
                    INFO,
                    "ORDER BY sorts one punctuation-delimited report at a "
                    "time; progress requires the application to punctuate",
                    operator=node.describe(),
                )
            )
        elif isinstance(node, Limit) and is_infinite(node.child):
            out.append(
                diag(
                    "RA201",
                    INFO,
                    "LIMIT budgets rows per punctuation-delimited report; "
                    "progress requires the application to punctuate",
                    operator=node.describe(),
                )
            )
    return out
