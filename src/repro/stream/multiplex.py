"""Standing-query multiplexing: shared subplans and the compiled-plan cache.

Thousands of concurrent standing queries drawn from a few templates
(the SIGNAL workload shape) make two costs dominate: the front end
(lex/parse/analyze/plan per statement) and the back end (one full
operator pipeline per query). This module removes both:

* :class:`PlanCache` memoizes compiled statements keyed on normalized
  SQL text (:func:`repro.sql.normalize.normalize_sql`) plus the
  catalog's schema epoch, so a hot statement skips the whole front end.
  Prepared statements ride the same cache.

* :class:`SubplanRegistry` (one per :class:`~repro.stream.engine
  .StreamEngine`) detects structurally identical plans and common
  scan/filter/fused-chain/window prefixes across live queries by
  structural fingerprint and runs *one* operator chain per distinct
  structure, fanned out to its distinct consumers via :class:`TeeOp`
  with reference-counted teardown.

A fingerprint (:attr:`~repro.plan.logical.LogicalOp.fingerprint`) and a
plan's sharing verdict (:attr:`~repro.plan.logical.LogicalOp.sharing`)
live on the plan node, computed the first time they are read and never
again: the plan cache hands every admission of a statement the same
plan object, so a warm admission reads both without walking the tree
or rendering an expression.

Chain model
-----------
Every shared-eligible query reads a *whole-plan* chain — through a
:class:`~repro.data.streams.LogView` of the chain's one result log, or,
with a custom sink, as a tee branch of its own; whole-plan chains stack
on narrower *cut* chains — a Select/Project run over a stream scan,
optionally capped by the Aggregate directly above. Chains therefore
form a refcounted DAG: two identical templates share everything; two
different templates over the same filtered scan share the scan+filter
prefix. Closing a cursor releases exactly its view or branch; a chain
tears down (and releases its parents) only when its last reference
drops.

**A cut is made where it is shared.** A chain that will hold state —
its root is an Aggregate, Distinct, Join, OrderBy or Limit — always
cuts the Select/Project run (or Aggregate-capped run) below itself into
a chain of its own, except the run a Distinct takes: the run directly
below a Distinct is never cut, and lowers inside the Distinct's own
operator, which tests each row against its seen set before it builds
one. Either way a stateful chain's operator list, fingerprint and
multiplicity depend on its subtree alone, never on what was admitted
before it (checkpoints rely on that), and a Distinct never splits a
sibling's inlined prefix. A chain that *is* a pure
Select/Project run holds no state, and lowers a prefix of the run
inside itself while it is that prefix's only consumer: the compiler
sees the run whole and fuses it into one generated loop over the source
rows. The
registry records which chains inlined which prefix; the moment a second
distinct consumer asks for one (another projection, a DISTINCT, an
aggregate over the same filter), the prefix becomes a chain and each
inliner is *re-lowered* onto it, into the tee it already has. That is
safe warm because only stateless chains ever inline: there is no state
to move, and its branches never notice.

There is no merge-back. When the second consumer leaves, the prefix
chain keeps feeding its one remaining consumer until the last reference
drops: re-fusing would recompile a live chain for a saving that the
next admission of the same template takes back. The stateless part of
the DAG is therefore history-dependent, which is why checkpoints record
stateful chains only (:meth:`SubplanRegistry.snapshot_chains`).

Correctness gates (``LogicalOp.sharing``): a query shares only if its
plan has no Output, RemoteSource or CteRef nodes and reads only stream
sources (stored tables are replayed at execute time, which a late tee
attach cannot reproduce). A *stateless* chain (Filter/Project/Fused only) accepts
attaches at any time — a new branch sees exactly the future elements a
fresh pipeline would. A *stateful* chain (aggregate/join/window state)
accepts attaches only while cold (no ingest or punctuation since it was
built); otherwise the query declines sharing at that level and falls
back to narrower stateless prefixes or a private pipeline, keeping
shared emissions bit-identical to unshared runs.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.catalog import SourceKind
from repro.data.streams import EDGE, CollectingConsumer, LogView, outermost, park, push_all
from repro.errors import ExecutionError
from repro.plan.logical import (
    Aggregate,
    Distinct,
    LogicalOp,
    Project,
    RemoteSource,
    Scan,
    Select,
    replace_child,
)
from repro.stream.checkpoint import restore_operators
from repro.stream.operators import StageOp

__all__ = [
    "PlanCache",
    "SharedFeed",
    "SharedChain",
    "SubplanRegistry",
    "TeeOp",
]


# Chain ids are negative so they can share the engine's routing index
# (keyed by query id) without ever colliding with a query.
_chain_ids = itertools.count(1)


def _next_chain_id() -> int:
    return -next(_chain_ids)


class TeeOp:
    """Fan one element stream out to a chain's distinct consumers.

    The terminal consumer of every shared chain. Branches are the
    chain's result log, custom query sinks and, for a cut chain, the
    operators of the chains stacked on it — nothing sits in between but
    a hand-built query's exit label (:func:`~repro.stream.compiler
    .result_sink`), so every branch is handed the same run and
    the same elements (the ``push_batch`` contract: a receiver neither
    mutates nor keeps the list). Add and
    remove never disturb sibling branches, even from inside a delivery
    (a subscriber callback that closes or opens a cursor): a removal
    rebinds ``branches`` so the fan-out in flight finishes over the list
    it started with, and an addition appends in place — the engine's
    route list behaves the same way on both counts, so either reads
    like the private pipelines would. A raising branch does not starve
    the ones after it (the hand-off rule on ``StreamConsumer``).
    """

    def __init__(self) -> None:
        self.branches: list[Any] = []

    def add_branch(self, consumer: Any) -> None:
        self.branches.append(consumer)

    def remove_branch(self, consumer: Any) -> bool:
        """Detach one branch; returns whether it was attached."""
        branches = self.branches
        try:
            index = branches.index(consumer)
        except ValueError:
            return False
        self.branches = branches[:index] + branches[index + 1 :]
        return True

    @property
    def fan_out(self) -> int:
        return len(self.branches)

    def push(self, item: Any) -> None:
        if not EDGE.open:  # no verb open: this fan-out is the edge
            return outermost(self.push, item)
        for branch in self.branches:
            try:
                branch.push(item)
            except Exception as exc:
                park(exc)

    def push_batch(self, elements: list[Any]) -> None:
        if not EDGE.open:
            return outermost(self.push_batch, elements)
        for branch in self.branches:
            try:
                push_all(branch, elements)
            except Exception as exc:
                park(exc)


class SharedFeed(RemoteSource):
    """Pseudo-leaf standing in for a subtree executed by a shared chain.

    Lowers to the operator above it (no port), which the registry
    attaches to that chain's tee as a branch (``CompiledPlan.feeds``).
    That operator is compiled against ``wrapped.schema`` and reads the
    producing chain's rows by position, whatever schema they carry — a
    filter-only chain forwards source rows under their catalog schema.

    ``walk`` yields the *wrapped* subtree's nodes rather than the feed
    itself, so :func:`~repro.plan.logical.side_window` (a join over the
    cut keeps the window its scans declared), infinite-input checks and
    relation discovery all see the real scans beneath the cut; the
    inherited ``window`` field is never read. Its ``fingerprint`` is the
    wrapped subtree's, so a chain over the cut keys as the subtree would.
    """

    def __init__(self, wrapped: LogicalOp, chain_id: int):
        super().__init__(f"#shared:{chain_id}", wrapped.schema)
        self.wrapped = wrapped
        self.chain_id = chain_id

    @property
    def fingerprint(self) -> tuple | None:
        return self.wrapped.fingerprint

    def walk(self) -> Iterator[LogicalOp]:
        yield from self.wrapped.walk()

    def describe(self) -> str:
        return f"SharedFeed(chain={self.chain_id}, {self.wrapped.describe()})"


# ----------------------------------------------------------------------
# Shared chains
# ----------------------------------------------------------------------
@dataclass
class SharedChain:
    """One live shared operator chain (a node of the sharing DAG).

    Attributes:
        chain_id: Unique id; also names the chain's routing entries.
        fingerprint: Structural identity of ``subtree``.
        subtree: The original subtree this chain computes — what a
            re-lowering compiles again.
        plan: The compiled plan — ``subtree`` with the cuts below it
            replaced by :class:`SharedFeed` leaves. A chain that builds
            rows (a projection, an aggregate, a join) emits them under
            ``plan.schema``; one that only forwards (a filter-only cut,
            a DISTINCT over a filter-only run) emits source rows under their catalog
            schema, read by position by the chains stacked on it and
            labelled per query by a hand-built query's exit label.
        compiled: The chain's pipeline; its ports are scan ports, its
            feeds hang on the parent chains' tees.
        tee: Terminal fan-out to branches (the log, query sinks, nested
            chains). Survives a re-lowering, so branches never notice one.
        log: The result log ``views`` queries read; tee branch ``log_branch``.
        stateless: True when every chain operator is Filter/Project/
            Fused — attachable at any time.
        ingest_mark: ``engine.elements_ingested`` when built.
        punct_mark: ``engine.punctuations_seen`` when built.
        refs: Live references (views, query branches, child chains).
        parents: ``(parent chain, branch)`` attachments this chain
            holds on narrower chains it consumes from; the branch is
            the operator of this chain that the parent's tee feeds.
        inlined: Fingerprints of the run prefixes lowered inside this
            chain (it is their only consumer); always empty for a chain
            that is not a pure Select/Project run.
    """

    chain_id: int
    fingerprint: tuple
    subtree: LogicalOp
    plan: LogicalOp
    compiled: Any
    tee: TeeOp
    stateless: bool
    ingest_mark: int
    punct_mark: int
    refs: int = 0
    parents: list[tuple["SharedChain", Any]] = field(default_factory=list)
    inlined: list[tuple] = field(default_factory=list)
    log: CollectingConsumer | None = None
    log_branch: Any = None
    views: int = 0


class SubplanRegistry:
    """Per-engine registry of shared chains, keyed by fingerprint.

    The engine consults :meth:`admit` on execute (when sharing is on)
    and :meth:`release` on stop; :meth:`snapshot_chains` and
    :meth:`restore_chains` integrate with punctuation-aligned
    checkpoints so a shared chain snapshots once and restores once.
    """

    def __init__(self, engine: Any):
        from repro.stream.compiler import result_sink  # the compiler imports this module

        self._engine = engine
        self._result_sink = result_sink
        #: fingerprint -> live chains (usually one; a warm stateful
        #: chain that declined an attach grows a sibling).
        self._chains: dict[tuple, list[SharedChain]] = {}
        self._by_id: dict[int, SharedChain] = {}
        #: fingerprint of a run prefix -> the chains that lowered it
        #: inside themselves (``SharedChain.inlined`` is the reverse
        #: index). An inlined prefix never has a live attachable chain
        #: emitting the schema its inliner was planned against.
        self._inliners: dict[tuple, list[SharedChain]] = {}
        self.created = 0
        self.attached = 0
        self.detached = 0
        self.torn_down = 0
        self.declined = 0
        #: ``(code, reason)`` of the most recent admission decline.
        self.last_decline: tuple[str, str] | None = None

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(
        self, plan: LogicalOp, sink: Any | None, terminal: Any | None = None
    ) -> tuple[SharedChain, Any] | None:
        """Run ``plan`` as a reader of its whole-plan chain.

        ``sink`` None: the reader is a new :class:`LogView` of the
        chain's result log (hung on the tee by the first view); a
        :class:`LogView` (a restore re-admitting a query that kept its
        view) reads again and the regrown chain writes into the view's
        log; a custom sink is a tee branch of its own. ``terminal`` (a
        restore's feed) stands between the tee and the log or the
        custom sink. Returns ``(chain, reader)`` — the one reference the
        caller releases on stop — or None when the plan is ineligible or
        cannot be fingerprinted (``last_decline`` then carries the coded
        reason), in which case the engine compiles it privately.
        """
        shareable, code, reason = plan.sharing
        if not shareable:
            self.declined += 1
            self.last_decline = (code, reason)
            return None
        chain = self._acquire(plan, sink.log if isinstance(sink, LogView) else None)
        if sink is not None and not isinstance(sink, LogView):
            reader = self._result_sink(plan, terminal or sink)
            chain.tee.add_branch(reader)
            return chain, reader
        if chain.log is None:
            chain.log = CollectingConsumer() if sink is None else sink.log
            chain.log_branch = self._result_sink(plan, terminal or chain.log)
            chain.tee.add_branch(chain.log_branch)
        chain.views += 1
        return chain, LogView(chain.log) if sink is None else sink

    def release(self, chain: SharedChain, reader: Any) -> None:
        """Drop one reference; tear the chain down at zero.

        Refcounted teardown is what makes cursor lifecycle idempotent
        under sharing: closing one cursor closes exactly its view (the
        last view takes the log off the tee) or detaches its branch, and
        siblings and upstream routing are untouched until the last
        reference goes.
        """
        if isinstance(reader, LogView):
            reader.close()
            chain.views -= 1
            if not chain.views:
                chain.tee.remove_branch(chain.log_branch)
                chain.log = chain.log_branch = None
        else:
            chain.tee.remove_branch(reader)
        chain.refs -= 1
        self.detached += 1
        if chain.refs <= 0:
            self._teardown(chain)

    def clear(self) -> None:
        """Forget every chain (engine crash; routes die with the engine)."""
        self._chains.clear()
        self._by_id.clear()
        self._inliners.clear()

    # ------------------------------------------------------------------
    def _acquire(self, subtree: LogicalOp, log: CollectingConsumer | None = None) -> SharedChain:
        """One reference on the chain computing ``subtree``.

        A live attachable chain is joined. Otherwise the chain is
        created — and if other chains had lowered this very subtree
        inside themselves, this is the second consumer they were
        waiting for: the *split*. Each inliner is re-lowered onto the
        new chain (see :meth:`_relower`).

        ``log`` is a restored view's: it names the chain the view read
        before the failure. The live chain writing it is joined however
        warm it reads now, and one writing another log never is — the
        view was not its reader, whatever a regrown chain's coldness
        says (a restore regrows every chain cold).
        """
        fingerprint = subtree.fingerprint
        assert fingerprint is not None
        chain = self._live(fingerprint, subtree.schema, log)
        if chain is not None:
            chain.refs += 1
            self.attached += 1
            return chain
        inliners = list(self._inliners.get(fingerprint, ()))
        for inliner in inliners:
            # Every record, the deeper ones too: left in place, the new
            # chain's own lowering would split those off as chains with
            # one consumer.
            self._forget(inliner)
            # Off its feeders before the new chain goes onto them. Both
            # removals rebind the list they edit, so a run in flight
            # (this admission came from a subscriber callback) finishes
            # on the old pipeline over the old lists and never reaches
            # the new chain, which would hand it to the inliner again.
            self._engine._drop_routes(inliner.chain_id)
            for parent, branch in inliner.parents:
                parent.tee.remove_branch(branch)
        chain = self._create(subtree, fingerprint)
        for inliner in inliners:
            self._relower(inliner)
        return chain

    def _live(
        self, fingerprint: tuple, schema: Any, log: CollectingConsumer | None = None
    ) -> SharedChain | None:
        """The attachable chain under ``fingerprint`` emitting ``schema``.

        Nothing relabels rows between a tee and its branches, and a
        chain that builds rows builds them under its own
        ``plan.schema``, so that schema must equal the one the new
        consumer was planned against — names, types and docs, which the
        fingerprint does not carry; a chain that does not match gets a
        sibling. It is read off ``subtree``, which ``plan`` was
        rewritten from below its root and whose schema it keeps: a warm
        plan-cache hit hands back that very node, so the comparison is
        an identity check. With a restored view's ``log``, the chain
        writing that log, else an attachable one writing none.
        """
        group = self._chains.get(fingerprint, ())
        if log is not None:
            for chain in group:
                if chain.log is log:
                    return chain
        for chain in group:
            if (
                chain.subtree.schema == schema
                and self._attachable(chain)
                and (log is None or chain.log is None)
            ):
                return chain
        return None

    def _attachable(self, chain: SharedChain) -> bool:
        """A new branch sees exactly what a fresh pipeline would see.

        Stateless chains qualify always; stateful ones only while cold.
        The check is transitive — a warm aggregate feeding a stateless
        projection taints the projection's output too.
        """
        if not chain.stateless:
            engine = self._engine
            if (
                engine.elements_ingested != chain.ingest_mark
                or engine.punctuations_seen != chain.punct_mark
            ):
                return False
        return all(self._attachable(parent) for parent, _ in chain.parents)

    def _create(self, subtree: LogicalOp, fingerprint: tuple) -> SharedChain:
        engine = self._engine
        tee = TeeOp()
        plan, compiled, inlined = self._lower(subtree, tee)
        chain = SharedChain(
            chain_id=_next_chain_id(),
            fingerprint=fingerprint,
            subtree=subtree,
            plan=plan,
            compiled=compiled,
            tee=tee,
            # Select/Project runs hold no cross-element state: safe to tee into at any time.
            stateless=all(isinstance(op, StageOp) for op in compiled.operators),
            ingest_mark=engine.elements_ingested,
            punct_mark=engine.punctuations_seen,
            refs=1,
        )
        self._by_id[chain.chain_id] = chain
        self._chains.setdefault(fingerprint, []).append(chain)
        self._wire(chain, inlined)
        self.created += 1
        return chain

    def _relower(self, chain: SharedChain) -> None:
        """Compile a stateless chain's subtree again, into the same tee.

        Called on each chain that had inlined a prefix which just became
        a chain (:meth:`_acquire` has forgotten its records and taken
        its old pipeline off routes and parent tees). Branches, refs, id
        and fingerprint survive; the operators are new, so their
        ``rows_in`` / ``rows_out`` restart at zero. The new parents are
        acquired before the references on the old ones are released, so
        a warm stateful chain further down is never torn down in
        passing.
        """
        old_parents = chain.parents
        chain.plan, chain.compiled, inlined = self._lower(chain.subtree, chain.tee)
        chain.parents = []
        self._wire(chain, inlined)
        for parent, branch in old_parents:
            self.release(parent, branch)

    def _lower(self, subtree: LogicalOp, tee: TeeOp) -> tuple[LogicalOp, Any, list[tuple]]:
        """``(plan, compiled, inlined fingerprints)`` of a chain over
        ``subtree`` ending in ``tee``; holds one reference on each chain
        the plan's :class:`SharedFeed` leaves name."""
        inlined: list[tuple] | None = [] if self._is_run(subtree) else None
        plan = self._rewrite(subtree, inlined)
        return plan, self._engine._compiler.compile(plan, tee), inlined or []

    def _wire(self, chain: SharedChain, inlined: list[tuple]) -> None:
        """Hang ``chain.compiled`` on its parents' tees and the engine's
        routes, and record what it inlined."""
        for feed, branch in chain.compiled.feeds:
            parent = self._by_id[feed.chain_id]
            parent.tee.add_branch(branch)
            chain.parents.append((parent, branch))
        chain.inlined = inlined
        for fingerprint in inlined:
            self._inliners.setdefault(fingerprint, []).append(chain)
        self._engine._register_chain_routes(chain)

    def _forget(self, chain: SharedChain) -> None:
        """Drop every inliner record ``chain`` holds."""
        for fingerprint in chain.inlined:
            group = self._inliners[fingerprint]
            group.remove(chain)
            if not group:
                del self._inliners[fingerprint]
        chain.inlined = []

    def _rewrite(self, node: LogicalOp, inlined: list[tuple] | None) -> LogicalOp:
        """Replace the cuts below ``node`` with SharedFeed leaves.

        Top-down, so each replacement is the *maximal* cut at its
        position; the node itself is never cut (it is the chain).

        ``inlined`` is None for a chain that will hold state (or reads
        anything but one stream scan through a Select/Project run): it
        cuts below itself unconditionally. A pure run passes a list:
        it cuts a prefix only where somebody else wants it — a live
        chain to feed from, or another chain that inlined the same
        prefix, which :meth:`_acquire` then splits — and otherwise
        descends, noting the prefix's fingerprint in ``inlined``, so
        the compiler is shown the run whole.

        The run directly below a :class:`Distinct` is never cut, nor
        any prefix of it: the compiler lowers it into the DISTINCT's
        own operator (:class:`~repro.stream.operators.DistinctOp`), so
        a duplicate never leaves the loop that found it.
        """
        for child in node.children:
            if isinstance(node, Distinct) and self._is_run(child):
                continue  # the DISTINCT's own input stages (see above)
            if self._is_cut(child):
                if inlined is None or self._wanted(child):
                    inner = self._acquire(child)
                    node = replace_child(node, child, SharedFeed(child, inner.chain_id))
                    continue
                inlined.append(child.fingerprint)
            rewritten = self._rewrite(child, inlined)
            if rewritten is not child:
                node = replace_child(node, child, rewritten)
        return node

    def _wanted(self, prefix: LogicalOp) -> bool:
        """Does anybody besides the chain being lowered want ``prefix``?"""
        fingerprint = prefix.fingerprint
        return (
            fingerprint in self._inliners
            or self._live(fingerprint, prefix.schema) is not None
        )

    @staticmethod
    def _is_cut(node: LogicalOp) -> bool:
        """A shareable prefix: [Aggregate] over a Select/Project run
        over a stream Scan. Bare scans are excluded — a pure fan-out
        chain saves no compute but adds a tee hop. Whether a shareable
        prefix *is* cut is its consumer's call (:meth:`_rewrite`):
        always below a chain that holds state (never directly below a
        Distinct), only once shared below a pure run."""
        inner = node
        if isinstance(inner, Aggregate):
            inner = inner.child
        elif not isinstance(inner, (Select, Project)):
            return False
        while isinstance(inner, (Select, Project)):
            inner = inner.child
        return (
            inner is not node
            and isinstance(inner, Scan)
            and inner.entry.kind is SourceKind.STREAM
        )

    @classmethod
    def _is_run(cls, node: LogicalOp) -> bool:
        """A pure Select/Project run over a stream Scan: the one chain
        shape that is stateless by construction and may inline."""
        return isinstance(node, (Select, Project)) and cls._is_cut(node)

    def _teardown(self, chain: SharedChain) -> None:
        self._by_id.pop(chain.chain_id, None)
        group = self._chains.get(chain.fingerprint)
        if group is not None:
            if chain in group:
                group.remove(chain)
            if not group:
                del self._chains[chain.fingerprint]
        self._forget(chain)
        self._engine._drop_routes(chain.chain_id)
        self.torn_down += 1
        for parent, branch in chain.parents:
            self.release(parent, branch)

    # ------------------------------------------------------------------
    # Introspection / checkpointing
    # ------------------------------------------------------------------
    @property
    def live_chains(self) -> list[SharedChain]:
        return list(self._by_id.values())

    def stats(self) -> dict[str, int]:
        return {
            "chains": len(self._by_id),
            "fan_out": sum(chain.tee.fan_out for chain in self._by_id.values()),
            "created": self.created,
            "attached": self.attached,
            "detached": self.detached,
            "torn_down": self.torn_down,
            "declined": self.declined,
        }

    def snapshot_chains(self) -> dict[tuple, list[list[dict]]]:
        """Operator state of every live chain that holds any, grouped by
        fingerprint.

        One snapshot per chain regardless of fan-out — the whole point:
        N branches over one chain checkpoint one copy of its state.
        Stateless chains are left out: they hold nothing but their
        ``rows_in`` / ``rows_out`` counters (which therefore restart at
        zero after a restore, as they do after a re-lowering), and where
        their cuts fall depends on admission history — a restore regrows
        them from the queries alone, maybe fused where the barrier saw
        them split — while a stateful chain is the same chain whatever
        was admitted around it.
        """
        return {
            fingerprint: [
                [op.state_snapshot() for op in chain.compiled.operators]
                for chain in group
            ]
            for fingerprint, group in self._chains.items()
            if not group[0].stateless  # one fingerprint, one operator list
        }

    def restore_chains(self, snapshot: dict[tuple, list[list[dict]]]) -> None:
        """Load checkpointed chain state into the recreated chains.

        Callers re-admit every checkpointed query first (admission is
        deterministic, so the chain DAG regrows with the snapshot's
        shape); this then pours the state back by fingerprint and
        position. A chain no re-admitted query reads (its queries were
        stopped since the barrier) is not regrown and its state is
        dropped. A re-admitted view finds its chain by its log, so a
        sibling grown by a warm decline comes back a sibling; a
        multiplicity mismatch means the admission decisions still
        diverged from the barrier (a warm decline of a query whose
        custom sink names no log) and is refused rather than silently
        mis-restored.
        """
        for fingerprint, states in snapshot.items():
            group = self._chains.get(fingerprint, [])
            if group and len(group) != len(states):  # none: no restored query reads it
                raise ExecutionError(
                    "checkpointed shared-chain multiplicity does not match "
                    "the recreated sharing structure"
                )
            for chain, operator_states in zip(group, states):
                restore_operators(chain, operator_states)


# ----------------------------------------------------------------------
# Compiled-plan cache
# ----------------------------------------------------------------------
@dataclass
class CachedStatement:
    """One memoized front-end result (immutable once stored).

    ``statement``/``analyzed``/``plan`` are shared across hits: plans
    are immutable and the continuous path re-binds parameters by
    building bound copies, so reuse is safe. ``analysis`` carries the
    static-analysis verdict (an
    :class:`~repro.analysis.diagnostics.AnalysisReport`, or None when
    analysis was off at compile time) so warm admissions never
    re-analyze.
    """

    statement: Any
    analyzed: Any
    plan: Any
    route: str
    parameters: tuple[str, ...]
    epoch: int
    analysis: Any = None


class PlanCache:
    """LRU cache of compiled statements keyed on normalized SQL text.

    Entries carry the catalog schema epoch they were compiled under; a
    hit whose epoch is stale (CREATE VIEW, attach/detach, drop_table
    since) is evicted and recompiled, so a stale plan never runs
    against a changed catalog.
    """

    #: Entries a session's cache holds before evicting the least
    #: recently used.
    CAPACITY = 256

    def __init__(self, capacity: int = CAPACITY):
        self._capacity = max(1, capacity)
        self._entries: OrderedDict[str, CachedStatement] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def lookup(self, key: str, epoch: int) -> CachedStatement | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.epoch != epoch:
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def store(self, key: str, entry: CachedStatement) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
