"""Unified eligibility explanation: why a plan fell back, declined, or absorbed.

``session.explain(sql)`` historically returned the federated
partitioning alone; every *other* eligibility decision — partition-safe
fallback under ``connect(shards=N)``, shared-subplan decline, raw
sensor collection — was a scattered boolean with no explanation. This
module funnels them all through the diagnostics framework:

* ``RA3xx`` — the :func:`~repro.stream.partition.partition_safe`
  verdict (one replica per shard vs designated-engine fallback), using
  the stable code the analysis attaches to each reason;
* ``RA4xx`` — shared-subplan eligibility
  (:attr:`~repro.plan.logical.LogicalOp.sharing`, the verdict the
  registry acts on at admission): would this plan join a multiplexed
  chain, and if not, why;
* ``RA5xx`` — the federated optimizer's decisions: which fragments were
  pushed in-network (for an aggregation: the predicate, the arguments
  the epoch record folds and the residual's combiners), which sensor
  scans are collected raw (the "absorbed into the residual" outcome: a
  pushed bare Scan), and what runs as the stream residual.

All of these are *explanations* (severity ``info``): the engine already
handles every outcome correctly; the diagnostics say which outcome was
chosen and why.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.federated import FederatedPlan
from repro.plan.logical import Aggregate, LogicalOp, Scan
from repro.stream.partition import partition_safe

from repro.analysis.diagnostics import INFO, Diagnostic, diag


def partition_diagnostic(
    plan: LogicalOp, keys: Mapping[str, str]
) -> Diagnostic:
    """The partition-safety verdict as a coded diagnostic."""
    verdict = partition_safe(plan, keys)
    if verdict.safe:
        carried = (
            f" (key columns: {', '.join(verdict.key_columns)})"
            if verdict.key_columns
            else ""
        )
        message = f"one replica per shard, results merged{carried}"
    elif verdict.exchange is not None:
        message = (
            f"repartitions mid-plan and stays on the pool: {verdict.reason}"
        )
    else:
        message = f"falls back to one designated engine: {verdict.reason}"
    return diag(verdict.code, INFO, message)


def exchange_diagnostics(
    plan: LogicalOp, keys: Mapping[str, str]
) -> list[Diagnostic]:
    """The exchange planner's decision as coded diagnostics (``RA32x``).

    Empty for partition-safe plans (nothing to repartition) and for
    designated-engine-by-design verdicts (replicated-only or
    unpartitioned plans, where a shuffle would add transport for no
    parallelism). ``RA324`` marks the genuine misses: unsafe shapes no
    exchange strategy covers, which still run on the fallback engine.
    """
    verdict = partition_safe(plan, keys)
    if verdict.safe or verdict.code in ("RA304", "RA305"):
        return []
    recipe = verdict.exchange
    if recipe is None:
        return [
            diag(
                "RA324",
                INFO,
                f"no exchange strategy applies; the plan runs on the "
                f"fallback engine ({verdict.reason})",
            )
        ]
    out = [diag(recipe.code, INFO, recipe.note)]
    for name in recipe.broadcasts:
        out.append(
            diag(
                "RA323",
                INFO,
                f"replicated table {name!r} reaches every shard by broadcast",
            )
        )
    for name in recipe.round_robin:
        out.append(
            diag(
                "RA325",
                INFO,
                f"stream {name!r} carries no declared key; stage 1 ingests "
                "it round-robin ahead of the shuffle",
            )
        )
    return out


def sharing_diagnostic(plan: LogicalOp) -> Diagnostic:
    """The shared-subplan eligibility verdict as a coded diagnostic."""
    shareable, code, reason = plan.sharing
    prefix = "joins a shared chain" if shareable else "runs a private pipeline"
    return diag(code, INFO, f"{prefix}: {reason}")


def federated_diagnostics(federated: FederatedPlan) -> list[Diagnostic]:
    """The chosen federated partitioning as coded diagnostics: RA502
    for a sensor scan collected raw (a pushed bare Scan), RA501 for
    every other pushed fragment."""
    out: list[Diagnostic] = []
    for fragment in federated.pushed:
        deployment, pushed = fragment.deployment, fragment.fragment
        if isinstance(pushed, Scan) and deployment.kind == "collection":
            out.append(
                diag(
                    "RA502",
                    INFO,
                    f"sensor scan {pushed.entry.name!r} was not pushed; every sample "
                    f"ships to the basestation unfiltered as {fragment.name}",
                    operator=pushed.describe(),
                )
            )
            continue
        detail = ""
        if deployment.kind == "aggregation":
            finish = next(
                node
                for node in federated.stream_plan.walk()
                if isinstance(node, Aggregate)
                and getattr(node.child, "name", None) == fragment.name
            )
            folded = ", ".join("*" if a is None else a.render() for a in deployment.arguments)
            where = "TRUE" if deployment.predicate is None else deployment.predicate.render()
            detail = (
                f"; the motes fold ({folded}) where {where} into one epoch record, which "
                f"the residual finishes with {', '.join(i.call.render() for i in finish.aggregates)}"
            )
        out.append(
            diag(
                "RA501",
                INFO,
                f"fragment {fragment.name}: {deployment.kind} over "
                f"{', '.join(deployment.relations)} "
                f"({fragment.cost.messages_per_epoch:.2f} msgs/epoch, "
                f"{fragment.result_rate:g} rows/s at the base){detail}",
            )
        )
    if not federated.pushed:
        out.append(
            diag(
                "RA500",
                INFO,
                "no sensor-executable fragments; the whole plan runs on "
                "the stream engine",
            )
        )
    out.append(
        diag(
            "RA503",
            INFO,
            f"stream residual: {federated.stream_plan.describe()} "
            f"(normalized cost {federated.cost.total:.6f}, "
            f"{len(federated.alternatives)} alternatives considered)",
        )
    )
    return out


def explain_diagnostics(
    plan: LogicalOp,
    federated: FederatedPlan,
    *,
    shard_keys: Mapping[str, str] | None = None,
) -> list[Diagnostic]:
    """Every eligibility explanation for one plan, in report order.

    ``shard_keys`` enables the partition-safety section (pass the
    sharded engine's declared keys; None on unsharded sessions, where a
    shard-fallback explanation would be noise).
    """
    out: list[Diagnostic] = []
    if shard_keys is not None:
        out.append(partition_diagnostic(plan, shard_keys))
        out.extend(exchange_diagnostics(plan, shard_keys))
    # Sharing is judged on the stream residual — that is the plan the
    # stream engine actually admits (a pushed fragment leaves a
    # RemoteSource behind, which no chain can absorb).
    out.append(sharing_diagnostic(federated.stream_plan))
    out.extend(federated_diagnostics(federated))
    return out
