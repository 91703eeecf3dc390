"""Schema-bound expression compilation: the engine's hot-path evaluator.

The interpreted path (:meth:`Expr.eval`) resolves every column reference
by name — a ``Schema.index_of`` dictionary walk per column access of
every row — and re-dispatches on node type at each tree level. For a
continuous query that touches millions of elements this interpretation
overhead dominates per-tuple cost. This module compiles an expression
tree *once* against the operator's input schema into a single Python
function over the row's value tuple:

* **Column references** are resolved to positional indexes at compile
  time (``v[3]`` instead of two dict lookups per access).
* **Constant subtrees** (no column references, no aggregates) are folded
  to their value at compile time.
* **The whole tree is lowered to generated Python source** — one
  ``def`` per expression, with temps and branches implementing exactly
  the interpreter's SQL semantics (three-valued AND/OR with the same
  short-circuiting, NULL propagation through comparisons and
  arithmetic, division/modulo by zero yielding NULL, ``TypeError``
  surfaced as :class:`~repro.errors.ExecutionError`) — and compiled
  with ``exec``. Evaluating a predicate then costs one Python call
  instead of one per tree node.
* **LIKE patterns** that are compile-time constants get their regex
  compiled once and a bounded memo of its verdicts, keyed by exact
  ``str`` value (:meth:`_CodeGen.gen_like_memo`): the regex decides each
  distinct value once, IGNORECASE's Unicode folds included. Dynamic
  patterns go through the one bounded regex cache the interpreter also
  uses (``_like_regex_cached``).
* **Scalar functions** are resolved to their implementation once.

Two rungs: generated code, else the interpreter
-----------------------------------------------
``compile_expr(expr, schema)`` returns a callable ``f`` such that for
every row ``r`` with ``r.schema == schema``::

    f(r.values)  ==  expr.eval(r)          # same value, or
    f(r.values)  raises the same exception type as expr.eval(r)

There are exactly two evaluators behind that contract, and nothing
hand-written in between:

1. **Generated code.** A *node* code generation does not cover —
   :class:`AggregateCall` (whose per-row evaluation is intentionally an
   error; aggregates fold through :func:`compile_accumulate`) and any
   future exotic node — becomes one call, inside the generated
   function, to a closure that rehydrates a :class:`Row` via
   :meth:`Row.raw` and delegates to ``expr.eval``
   (:meth:`_CodeGen.gen_fallback`). Malformed nodes the parser cannot
   produce (an unknown operator or function name) generate a ``raise``
   of the interpreter's own :class:`~repro.errors.ExecutionError`.
2. **The interpreter.** When a generator cannot produce a *whole
   function* (:func:`_generate` is the one ``except``), the caller gets
   :meth:`Expr.eval` over a rehydrated row behind the generated
   function's own signature, so no operator knows which rung it runs
   on: :func:`compile_expr` and :func:`compile_projection` return
   :func:`_fallback` / :func:`_fallback_projection`,
   :func:`compile_accumulate` an interpreter-backed ``(fold,
   finalize)`` over :class:`~repro.sql.expressions.Accumulator` state
   and :func:`compile_partial` an interpreter-backed ``(fold, take)``
   over ``_PartialItem`` state.
   A column the schema cannot resolve is such a failure, so the
   row-time error is the interpreter's.

Five generators have no interpreter twin because what they generate is
a *loop around* an evaluator, not an evaluator, and return ``None``
instead: without :func:`compile_fused_batch` an operator loops its
per-element body over the run, without :func:`compile_fused` the plan
compiler lowers the chain one operator per node, without
:func:`compile_join_probe` a join side loops its per-element body,
without :func:`compile_distinct_batch` a DISTINCT does, and without
:func:`compile_fused_ingest` the engine runs ingest and the operator's
batch loop one after the other. Each is one test at one site and none
selects a different evaluator.

This module is the only place the choice is made. Nothing outside it
takes a switch for it and nothing outside ``repro.sql`` calls
``Expr.eval`` (lint rule RA906); the identity corpora reach the second
rung the way production does, by making the generators decline
(``tests/conftest.py``: ``interpreted`` / ``unfused``). Every fallback
is counted, once, at admission (:func:`compile_counts`;
``session.stats()["compile"]``), never per row, and reads 0 across the
ledger workloads and the corpora's default arms.

Every evaluation site compiles once and keeps the closure: operators
compile at construction, bounded evaluations included (they run the
same pipelines, :mod:`repro.stream.batch`), and the motes' predicates
and arguments and the basestation's fragment projection at deploy
(:mod:`repro.sensor.engine`, :mod:`repro.core.executor`). :func:`compile_projection`
lowers a whole projection list into one generated function returning
the output value tuple — one call per row instead of one per column.

Operator fusion builds on the same code generator:
:func:`compile_fused` lowers a whole Filter/Project *chain* — every
predicate and every projection list, in dataflow order — into one
generated function over the input value tuple (filters become early
returns, projections rebind the tuple), and :func:`compile_fused_batch`
wraps that chain in a generated loop over a run — a list of rows and
one of their stamps — so a whole ingest batch clears an N-stage chain
with a single Python call.
:func:`compile_accumulate` does the same for a grouped-aggregation fold
(and :func:`compile_partial` for stage 1 of an exchanged one)
and :func:`compile_join_probe` for one side of a windowed symmetric
hash join (key, bucket append, window test, residual predicate and the
Select/Project run above the join in one generated loop per run; a side
whose own window is ROWS has no kernel by design, which is not a
fallback and is not counted) — or for both sides at once, over one
exchange delivery's interleaved runs — and
:func:`compile_distinct_batch` for a
DISTINCT with the Select/Project run below it (the run, then the seen
set's membership test, then — for a first occurrence only — the output
row and its stamp). :func:`compile_ingest` generates the
loop rows enter an engine or a pool through, once per catalog schema:
a Row under that schema passes through, a ``dict`` is read field by
field with its exact types checked inline, and anything else goes to
the engine's own coercion, which is also the loop's interpreter twin.
:func:`compile_fused_ingest` runs it and the Filter/Project run a
source's one port feeds as one loop.

**One loop template.** Every one of these is :func:`_codegen_loop`
composing three pieces (produce/consume, after Neumann, VLDB 2011): a
*source* that emits the prelude and the loop head binding the value
tuple ``v``, the *stages* — a Filter/Project :class:`Chain`, a filter
skipping the row — and a *sink* saying what a survivor becomes. A
join's residual predicate is its probe chain's first filter. ::

    loop            source (its head)                 sink
    _fused          one value tuple, no loop          return v
    _fused_batch    a run (_emit_run)                 append a row and its stamp (_append)
    _distinct       a run (_emit_run)                 a first occurrence joins `seen`,
                                                      then appends a row and stamp (_dedup)
    _fold           a run, or each row's open         fold into group slots
                    windows (_emit_run)               (_fold_into)
    _probe          a join's live pairs (_emit_pairs) append a joined row and stamp (_append)
    _deliver        a delivery's runs, per row its    the same
                    side's live pairs (_emit_pairs)
    _ingest         a caller's rows (_emit_rows)      append a row (_append)
    _fused_ingest   the same, with their stamps       append a row and its stamp (_append)

A run enters as ``for r, _t in zip(rows, stamps)``: ``r`` the Row,
``_t`` its stamp, ``v`` its values; a survivor leaves as a Row — ``r``
itself when the chain does not project — appended to ``out`` and its
stamp to ``out_stamps``. No loop builds a ``StreamElement``.

A new loop — a Select run folded inside an aggregate — is a new
composition of these pieces; ``_distinct`` is
``_fused_batch``'s source, stages and sink with the membership test in
front of the sink.

**An operator lowers its chain once.** The operator holds its stages
as one :class:`Chain`, and the first function generated over it runs
:func:`_emit_stages` once, at indent 0 with a placeholder reject: the
lines, the bindings, and the schema, column locals and non-NULL facts
the chain leaves. Every function generated over that chain — a
FusedOp's ``_fused`` and ``_batch_fn``, the engine's fused-ingest loop
over the operator (:meth:`StreamEngine._fuse_ingest
<repro.stream.engine.StreamEngine._fuse_ingest>`), a DISTINCT's
``_fused`` and dedup loop, a join's two probe kernels — splices those
lines re-indented, with its own ``continue`` or ``return None``, so
each generated text is what lowering the chain in place would give.
Its functions share a constant LIKE's verdict memo, and each binds its
own globals as ``_G``.

**A pool generates each kernel once** (:func:`kernel_scope`). A pool
lowers a query's replicas on every shard inside one scope, and there
:func:`_generate` hands back the function it already made when the same
generator runs again over the same argument *objects* — loopback shards
compile the pool's own plan objects — so the shards' operators hold one
function, its bindings (a LIKE verdict memo, ``_G``) included, and
their own state, which every kernel takes as arguments. The key is
identity, never expression equality (``Literal(1) == Literal(1.0)``, and
two distinct ``Parameter`` slots may compare equal), and the scope holds
the arguments, so no id it keys on is reused while it is open.

**A predicate in filter position lowers as a filter**, not as a boolean
expression (:func:`_emit_filter`). Its AND tree, of any shape, flattens
to conjuncts in evaluation order — under three-valued AND conjunct *i*
evaluates iff none before it was FALSE, whatever the shape — and each
gets an early exit: FALSE rejects the row; NULL dooms it, so the
remaining conjuncts still evaluate (stopping at a FALSE, raising what
the interpreter raises) before it is rejected; anything else passes, as
AND lets it. A lone conjunct must be exactly TRUE, and so must a WHERE
of more than :data:`_FLAT_CONJUNCTS` conjuncts, lowered as one
value-producing AND: a doomed row's path repeats every conjunct after
the one that doomed it, so flat text grows with the square of the
chain's length. A stage reads each column of ``v`` into a local once,
and past a conjunct that passed, every column under its comparisons,
arithmetic, LIKE, NOT, unary minus or IS NOT NULL is known non-NULL (:meth:`_CodeGen.prove`): later
conjuncts and projections drop its ``is None`` test, until ``v`` is
rebound — a projected local keeps what was proven of it. An arithmetic
*result* is never known non-NULL (an operand's ``__mul__`` may return
``None``). A doomed row's path knows only what held when the filter
began, so each conjunct's code there is generated once and placed
wherever it runs; it is inline, and the common path makes no call it
did not make before.

**Call-free per-row bodies.** On its common path a generated loop
makes no Python-level call per row: it reads ``row.values``
and the row's ``schema`` as plain slots, builds an output Row
by ``object.__new__`` plus slot stores (:func:`_emit_row`,
:func:`_append` — :meth:`Row.raw`'s body without its frame),
lowers COALESCE to a conditional chain over its already-evaluated
arguments and a constant LIKE to one ``dict.get`` on its verdict memo
for a value seen before. Rows are immutable by convention,
so nothing needs the constructor's frame to guard them.
What stays a call is the uncommon path — a scalar function, a dynamic
LIKE pattern, a constant pattern's bound ``match`` on a value its memo
does not hold (``str(a)`` only for what is not an exact ``str``), a row
the ingest loop hands to the engine's coercion, an interpreter fallback
node — and every NULL check and ``TypeError`` handler stays inline
(``tests/test_call_free.py`` pins the rule and the memo).

Generated text becomes a code object in exactly one place,
:func:`_code_object`, memoized on the text: replicas that generate the
same source outside one scope (a worker process, a failover, a later
admission) compile it once and ``exec`` it into each closure's own
namespace (lint rule RA905 keeps that the only ``compile`` call).
"""

from __future__ import annotations

import keyword as _keyword
import math as _math
import operator as _operator
from collections import deque as _deque
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache
from typing import Any, Callable, Sequence

from repro.data.schema import Schema
from repro.data.streams import park as _park
from repro.data.tuples import Row
from repro.data.types import DataType
from repro.data.windows import WindowKind, WindowSpec
from repro.errors import ExecutionError
from repro.sql.expressions import (
    _SCALAR_FUNCTIONS,
    _like_regex_cached,
    _like_to_regex,
    _PartialItem,
    AGGREGATE_NAMES,
    Accumulator,
    AggregateCall,
    BinaryOp,
    ColumnRef,
    Expr,
    FunctionCall,
    Literal,
    Parameter,
    UnaryOp,
    split_conjuncts,
)

#: A compiled evaluator: row value tuple -> result.
CompiledExpr = Callable[[tuple], Any]

#: One stage of a fused Filter/Project chain, in dataflow order:
#: ``("filter", predicate)`` or ``("project", exprs, output_schema)``.
FusedStage = tuple


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------
_counts = {"generated": 0, "fallbacks": 0}


def compile_counts() -> dict[str, int]:
    """Process-wide totals of the two rungs: whole functions
    ``generated``, and whole-function ``fallbacks`` to the interpreter.
    Monotonic; :class:`~repro.stream.compiler.PlanCompiler` attributes
    the delta across one plan's lowering to its engine."""
    return dict(_counts)


#: Inside a :func:`kernel_scope`: generator call key -> (arguments, function).
_kernels: ContextVar[dict | None] = ContextVar("kernels", default=None)


@contextmanager
def kernel_scope():
    """Within this block :func:`_generate` runs each generator once per
    argument objects and hands the function back to every later call
    over the same objects: a pool's one admission on all its shards
    (:meth:`ShardedStreamEngine.execute
    <repro.stream.sharded.ShardedStreamEngine.execute>`). Nothing
    outlives the block, and another thread's compiles never see it."""
    token = _kernels.set({})
    try:
        yield
    finally:
        _kernels.reset(token)


def _identity(arg: Any) -> Any:
    """``arg``'s part of a kernel key: its id — a tuple or list its
    items', a :class:`Chain` its schema's and stages', made once."""
    cls = arg.__class__
    if cls is Chain:
        if arg._key is None:
            arg._key = (id(arg.schema), _identity(arg.stages))
        return arg._key
    if cls is tuple or cls is list:
        return tuple(map(_identity, arg))
    return id(arg)


def _generate(codegen: Callable, *args: Any) -> Callable | None:
    """The ladder's one step down: the function ``codegen`` generates,
    or ``None`` — counted — when it cannot produce one. Every public
    compiler goes through here, so no fallback is silent and nothing
    hand-written sits between generated code and the interpreter.
    Inside a :func:`kernel_scope`, a call over the same argument objects
    as an earlier one returns that call's function, uncounted: only
    generation counts."""
    memo = _kernels.get()
    if memo is not None:
        key = (codegen, *map(_identity, args))
        made = memo.get(key)
        if made is not None:
            return made[1]
    try:
        fn = codegen(*args)
    except Exception:
        _counts["fallbacks"] += 1
        return None
    _counts["generated"] += 1
    if memo is not None:
        memo[key] = (args, fn)  # holds every object the key names alive
    return fn


def compile_expr(expr: Expr, schema: Schema) -> CompiledExpr:
    """Compile ``expr`` against ``schema`` into a value-tuple function.

    See the module docstring for the two-rung contract.
    """
    folded, value = _fold_constant(expr)
    if folded:
        return lambda values, _v=value: _v
    return _generate(_codegen, [expr], schema, True) or _fallback(expr, schema)


def compile_projection(exprs: Sequence[Expr], schema: Schema) -> Callable[[tuple], tuple]:
    """Compile a projection list to one values-tuple -> values-tuple call.

    The generated function computes every output expression and returns
    them as a tuple — a single Python call per row.
    """
    exprs = tuple(exprs)
    if exprs and all(isinstance(e, ColumnRef) for e in exprs):
        # Pure column projection: C-level itemgetter beats generated code.
        indexes = [schema.index_of(e.name) for e in exprs]
        if len(indexes) == 1:
            return lambda values, _i=indexes[0]: (values[_i],)
        return _operator.itemgetter(*indexes)
    return _generate(_codegen, list(exprs), schema, False) or _fallback_projection(
        exprs, schema
    )


class Chain:
    """A Filter/Project chain: ``stages`` in dataflow order, read
    against ``schema``, and their lowering, made once.

    Each stage is either

    * ``("filter", predicate)`` — drop the row unless the predicate is
      exactly TRUE (SQL three-valued logic: NULL does not pass), or
    * ``("project", exprs, output_schema)`` — replace the value tuple
      with the computed output columns; subsequent stages resolve column
      references against ``output_schema``.

    The first generator that splices the chain runs :func:`_emit_stages`
    once, at indent 0 with a placeholder reject, into a
    :class:`_CodeGen` (:meth:`lowered`): its lines, its bindings, and the
    schema, column locals and non-NULL facts the chain leaves. Every
    function generated over the chain — an operator's per-element
    function and batch loop, a DISTINCT's dedup loop, a join's two probe
    kernels, the engine's fused-ingest loop — splices those lines,
    re-indented, with its own ``continue`` or ``return None``
    (:func:`_codegen_loop`). An operator holds its chain, and inside a
    :func:`kernel_scope` another operator's chain over the same stage
    and schema objects gets the functions generated over this one, so
    one lowering serves a pool's shards; a lowering that failed fails
    each generator that splices it, each counted as its own fallback.
    """

    __slots__ = ("stages", "schema", "projects", "_lowered", "_key")

    def __init__(self, stages: Sequence[FusedStage], schema: Schema):
        self.stages = tuple(stages)
        self.schema = schema
        self.projects = any(stage[0] == "project" for stage in self.stages)
        self._lowered: _CodeGen | Exception | None = None
        self._key: tuple | None = None  # its kernel key (_identity)

    def lowered(self) -> "_CodeGen":
        """The chain's one lowering, made on the first call; raises what
        made it fail on every call."""
        if self._lowered is None:
            try:
                gen = _CodeGen(self.schema)
                _emit_stages(gen, self.stages, 0, _REJECT)
                self._lowered = gen
            except Exception as exc:
                self._lowered = exc
        if isinstance(self._lowered, Exception):
            raise self._lowered
        return self._lowered


#: The placeholder a lowering's reject lines hold until a loop splices it.
_REJECT = "<reject>"


def compile_fused(chain: Chain) -> Callable[[tuple], tuple | None] | None:
    """Compile a Filter/Project :class:`Chain` into one generated
    function, or ``None`` when code generation fails (the plan compiler
    then lowers the chain one operator per node).

    The returned function maps the input value tuple to the final value
    tuple, or ``None`` when any filter stage rejected the row. The whole
    chain runs as one Python call: filters lower to early returns and
    projections to a tuple rebind, so no intermediate
    :class:`~repro.data.tuples.Row` or ``StreamElement`` is ever
    allocated between fused stages. Per-stage semantics are exactly
    those of :func:`compile_expr` / :func:`compile_projection`.
    """
    return _generate(_codegen_fused, chain)


def compile_fused_batch(chain: Chain, output_schema: Schema) -> Callable[[list, list, list, list], None] | None:
    """Compile a Filter/Project chain into one generated *batch*
    function, or ``None`` when code generation fails (the operator then
    loops its per-element body over the run).

    The returned function has signature ``fn(rows, stamps, out,
    out_stamps)``: it runs the whole fused chain over a run inside a
    single generated loop, appending each survivor's Row to ``out`` and
    its stamp to ``out_stamps``. Compared with calling the
    :func:`compile_fused` closure per row this removes the remaining
    per-row Python dispatch — the call itself and the appends all live
    inside the generated code. Chains with a projection stage build the
    output Row (over ``output_schema``) in generated code; pure filter
    chains append the input Row itself, preserving row identity.

    Semantics per element are identical to :func:`compile_fused`.
    """
    return _generate(_codegen_fused_batch, chain, output_schema)


def compile_distinct_batch(
    chain: Chain, output_schema: Schema | None
) -> Callable[[list, list, set, list, list], None] | None:
    """Compile a DISTINCT over a Filter/Project chain into one generated
    *batch* function, or ``None`` when code generation fails (the
    operator then loops its per-element body over the run).

    The returned function has signature ``fn(rows, stamps, seen, out,
    out_stamps)``: per row, in order, the chain runs as in
    :func:`compile_fused_batch`; a survivor whose value tuple ``seen``
    holds is dropped, and a first occurrence joins ``seen`` and is
    appended to ``out`` with its stamp — the Row itself when the chain
    does not project (it may be empty), else a new Row under
    ``output_schema``, built only after the membership test. ``seen`` is an argument, so the caller
    may replace its set (a checkpoint restore) without recompiling.
    """
    return _generate(_codegen_distinct, chain, output_schema)


def _emit_stages(
    gen: _CodeGen, stages: Sequence[FusedStage], indent: int, reject: str
) -> None:
    """Lower a Filter/Project chain over the value tuple ``v``: a filter
    runs ``reject`` unless its predicate is exactly TRUE
    (:func:`_emit_filter`), a projection rebinds ``v``, and later stages
    resolve columns against the projection's output schema. Each column
    is read into a local once per binding of ``v``, at the top of the
    stage that first reads it; an output already in a local stays there,
    with what was proven of it."""
    for stage in stages:
        top, gen.reads = len(gen.lines), []
        if stage[0] == "filter":
            _emit_filter(gen, stage[1], indent, reject)
        else:
            _, exprs, out_schema = stage
            # A bare column is a subscript in the tuple unless a local
            # already holds it: a read would only add a store.
            results = [None if isinstance(e, ColumnRef) else gen.gen(e, indent) for e in exprs]
            for index, expr in enumerate(exprs):
                if results[index] is None:
                    position = gen.schema.index_of(expr.name)
                    results[index] = gen.columns.get(position) or f"v[{position}]"
            trailing = "," if len(results) == 1 else ""
            gen.emit(indent, f"v = ({', '.join(results)}{trailing})")
        if gen.reads:
            gen.lines[top:top] = ["    " * indent + line for line in gen.reads]
        if stage[0] == "project":
            gen.schema = out_schema
            gen.columns = {
                position: atom
                for position, atom in enumerate(results)
                if atom.isidentifier() and not _keyword.iskeyword(atom)
            }
    gen.reads = None


def _emit_filter(gen: _CodeGen, predicate: Expr, indent: int, reject: str) -> None:
    """A filter stage: its AND tree, of any shape, as conjuncts in
    evaluation order, each with an early exit. A FALSE conjunct runs
    ``reject``; a NULL one dooms the row, which still evaluates the rest
    before it is rejected; anything else passes, as under AND. A single
    conjunct must be exactly TRUE, and so must a chain longer than
    :data:`_FLAT_CONJUNCTS`, lowered as one value-producing AND: its
    doomed paths would grow quadratically. Past each conjunct, the
    columns it proves non-NULL (:meth:`_CodeGen.prove`) lose their
    ``is None`` tests."""
    conjuncts = split_conjuncts(predicate)
    if not 1 < len(conjuncts) <= _FLAT_CONJUNCTS:
        atom = gen.as_var(gen.gen(predicate, indent), indent)
        gen.emit(indent, f"if {atom} is not True:")
        gen.emit(indent + 1, reject)
        gen.prove(predicate)
        return
    entry = set(gen.non_null)
    # Each conjunct's statements, knowing what those before it proved,
    # and whether they know no more than the filter's entry did.
    lowered = []
    for conjunct in conjuncts:
        gen.used = set()
        lines, atom = gen.apart(conjunct)
        lowered.append((lines, atom, not (gen.used & gen.non_null) - entry))
        gen.prove(conjunct)
    # The path of a row each conjunct dooms: the rest still evaluate,
    # each while none before it was FALSE — what AND evaluates, so they
    # raise what the interpreter raises — and then it is rejected. It
    # knows only what held at the filter's entry; built from the last
    # conjunct back, each one's test is generated at most once.
    inner = "    " * (indent + 2)
    path = [inner + reject]
    paths = [path]
    for position in range(len(conjuncts) - 1, 0, -1):
        lines, atom, plain = lowered[position]
        if not plain:
            known, gen.non_null = gen.non_null, set(entry)
            lines, atom = gen.apart(conjuncts[position])
            gen.non_null = known
        test = [inner + line for line in lines]
        path = [*test, f"{inner}if {atom} is False:", f"{inner}    {reject}", *path]
        paths.append(path)
    for (lines, atom, _), path in zip(lowered, reversed(paths)):
        gen.lines += ["    " * indent + line for line in lines]
        gen.emit(indent, f"if {atom} is not True:")
        gen.emit(indent + 1, f"if {atom} is False:")
        gen.emit(indent + 2, reject)
        gen.emit(indent + 1, f"if {atom} is None:")
        gen.lines += path


def _emit_row(gen: _CodeGen, indent: int, schema: str, values: str) -> None:
    """Build ``_r``, a Row of ``values`` under the bound ``schema``, by
    slot stores — :meth:`Row.raw`'s body with no call frame."""
    gen.env["_new"], gen.env["_Row"] = object.__new__, Row
    gen.emit(indent, "_r = _new(_Row)")
    gen.emit(indent, f"_r.schema = {schema}")
    gen.emit(indent, f"_r.values = {values}")
    gen.emit(indent, "_r._hash = None")


def _codegen_loop(source: tuple, chain: Chain, sink: tuple) -> Callable:
    """The one template of every generated loop: ``def _{name}(...)``
    composed of three pieces, in dataflow order.

    * ``source`` is ``(name, signature, head)``. ``head(gen)`` emits the
      prelude and the loop head that binds the value tuple ``v``, and
      returns the body's indent: 1 for a source with no loop, where a
      rejected row returns ``None`` instead of taking the next. A head
      with several loop heads (the two sides of a join delivery) is a
      generator: it yields each body's indent where that body goes,
      and what it emits after its last yield closes the function.
    * ``chain`` is the Filter/Project :class:`Chain` over ``v``: its one
      lowering, spliced at the body's indent with this loop's reject.
      The function starts from what the lowering bound, named and
      proved, and binds its own globals as ``_G``.
    * ``sink`` is ``(prelude, body, epilogue)``. ``body(gen, indent)``
      emits what a survivor becomes; the prelude lines open the function
      and the epilogue lines close it (:func:`_append`'s output list).

    The module docstring tables each loop's source and sink.
    """
    (name, signature, head), (prelude, body, epilogue) = source, sink
    lowered = chain.lowered()
    gen = _CodeGen(lowered.schema)
    gen.env.update(lowered.env)
    if "_G" in gen.env:
        gen.env["_G"] = gen.env
    gen.counter, gen.columns, gen.non_null = lowered.counter, dict(lowered.columns), set(lowered.non_null)
    for line in prelude:
        gen.emit(1, line)
    indents = head(gen)
    for indent in (indents,) if isinstance(indents, int) else indents:
        pad, reject = "    " * indent, "continue" if indent > 1 else "return None"
        gen.lines += [
            pad + (line[: -len(_REJECT)] + reject if line.endswith(_REJECT) else line)
            for line in lowered.lines
        ]
        body(gen, indent)
    for line in epilogue:
        gen.emit(1, line)
    text = f"def _{name}({signature}):\n" + "\n".join(gen.lines) + "\n"
    return _define(f"_{name}", text, f"<repro.sql.compiled.{name}>", gen.env)


def _append(row: Schema | str, stamp: str | None = None, fresh: bool = False) -> tuple:
    """The sink that appends each survivor to ``out``, bound as
    ``append``, and with a ``stamp`` that stamp to ``out_stamps``, bound
    as ``append_t``: new lists the function returns when ``fresh``, else
    its arguments. The survivor is ``_r``, a Row of ``v`` under ``row``
    when that is a schema, else the variable ``row`` names, as it
    came."""

    def body(gen: _CodeGen, indent: int) -> None:
        survivor = row
        if isinstance(row, Schema):
            _emit_row(gen, indent, gen.bind(row, "os"), "v")
            survivor = "_r"
        gen.emit(indent, f"append({survivor})")
        if stamp is not None:
            gen.emit(indent, f"append_t({stamp})")

    prelude = ("append = out.append",) + (() if stamp is None else ("append_t = out_stamps.append",))
    if not fresh:
        return prelude, body, ()
    lists = ("out = []",) + (() if stamp is None else ("out_stamps = []",))
    return lists + prelude, body, ("return out" if stamp is None else "return out, out_stamps",)


def _emit_run(gen: _CodeGen, window: WindowSpec | None = None, stamped: bool = False) -> int:
    """A run's loop head: each Row ``r``, and ``_t`` its stamp when
    ``stamped`` or windowed, then ``v``. With a ``window`` (a fold's) it
    first finds the open windows the row belongs to (the arithmetic of
    :meth:`WindowSpec.indexes`), or ``continue``s when there are none: a
    tumbling window binds one group dict ``g`` and its ``get``, other
    shapes a list ``gs``.

    A row's window set depends only on its first window when the size
    is a whole number of hops, so it is cached for the slide interval
    ``(_lo, _hi]`` that first window owns; other shapes resolve per row.
    """
    if window is None:
        gen.emit(1, "for r, _t in zip(rows, stamps):" if stamped else "for r in rows:")
        gen.emit(2, "v = r.values")
        return 2
    hop, size, panes = gen.atom(window.hop), gen.atom(window.size), window.panes

    def first_index(indent: int) -> None:  # WindowSpec.first_index, inlined
        gen.emit(indent, f"_i = {gen.bind(_math.ceil, 'ceil')}(_t / {hop})")
        gen.emit(indent, f"if _i * {hop} < _t:")
        gen.emit(indent + 1, "_i += 1")
        gen.emit(indent, f"elif (_i - 1) * {hop} >= _t:")
        gen.emit(indent + 1, "_i -= 1")

    def open_window(indent: int, index: str) -> None:
        gen.emit(indent, f"g = windows.get({index})")
        gen.emit(indent, "if g is None:")
        gen.emit(indent + 1, f"g = windows[{index}] = {{}}")

    if panes is None:
        gen.emit(1, "for r, _t in zip(rows, stamps):")
        first_index(2)
        gen.emit(2, "gs = []")
        gen.emit(2, f"while _i * {hop} - {size} < _t:")
        gen.emit(3, "if _i > closed:")
        open_window(4, "_i")
        gen.emit(4, "gs.append(g)")
        gen.emit(3, "_i += 1")
    else:
        gen.emit(1, "get = None" if panes == 1 else "gs = ()")
        gen.emit(1, "_lo = _hi = 0")  # an empty interval: the first row misses
        gen.emit(1, "for r, _t in zip(rows, stamps):")
        gen.emit(2, "if not _lo < _t <= _hi:")
        first_index(3)
        gen.emit(3, f"_lo = (_i - 1) * {hop}")
        gen.emit(3, f"_hi = _i * {hop}")
        if panes == 1:
            gen.emit(3, "if _i <= closed:")
            gen.emit(4, "get = None")
            gen.emit(3, "else:")
            open_window(4, "_i")
            gen.emit(4, "get = g.get")
        else:
            gen.emit(3, "gs = []")
            gen.emit(3, f"for _j in range(_i, _i + {panes}):")
            gen.emit(4, "if _j > closed:")
            open_window(5, "_j")
            gen.emit(5, "gs.append(g)")
    gen.emit(2, "if get is None:" if panes == 1 else "if not gs:")
    gen.emit(3, "continue")
    gen.emit(2, "v = r.values")
    return 2


def _stamped_run(gen: _CodeGen) -> int:
    return _emit_run(gen, stamped=True)


def _codegen_fused_batch(chain: Chain, output_schema: Schema) -> Callable:
    source = ("fused_batch", "rows, stamps, out, out_stamps", _stamped_run)
    return _codegen_loop(source, chain, _survivor(chain, output_schema))


def _survivor(chain: Chain, output_schema: Schema | None) -> tuple:
    """The sink appending a survivor of a run's ``chain`` and its stamp:
    the Row ``r`` itself when the chain does not project, else a new one
    under ``output_schema``."""
    return _append(output_schema if chain.projects else "r", "_t")


def _codegen_distinct(chain: Chain, output_schema: Schema | None) -> Callable:
    sink = _dedup(_survivor(chain, output_schema))
    return _codegen_loop(("distinct", "rows, stamps, seen, out, out_stamps", _stamped_run), chain, sink)


def _dedup(survivor: tuple) -> tuple:
    """The DISTINCT sink: a value tuple ``seen`` holds is skipped, a
    first occurrence is added to it and then becomes what ``survivor``
    appends — so a duplicate builds nothing."""
    prelude, append, epilogue = survivor

    def body(gen: _CodeGen, indent: int) -> None:
        gen.emit(indent, "if v in seen:")
        gen.emit(indent + 1, "continue")
        gen.emit(indent, "add(v)")
        append(gen, indent)

    return (*prelude, "add = seen.add"), body, epilogue


def compile_accumulate(
    group_exprs: Sequence[Expr],
    calls: Sequence[AggregateCall],
    schema: Schema,
    window: WindowSpec | None = None,
) -> tuple[Callable, Callable]:
    """Compile a grouped-aggregation fold into one generated loop.

    Returns ``(fold, finalize)`` — generated for every call the
    analyzer admits, else the interpreter's pair with the same
    signatures (:func:`_fallback_accumulate`). The fold has one of two
    signatures:

    * ``fold(rows, stamps, groups)`` without a window (running
      aggregates): every row updates ``groups[key]``.
    * ``fold(rows, stamps, windows, closed)`` for a RANGE ``window``:
      every row updates ``windows[k][key]`` for each window ``k`` it
      belongs to (:meth:`WindowSpec.indexes`) with ``k > closed``; a row
      whose windows have all closed is folded nowhere. A tumbling window
      binds one group dict per slide interval, a size that is a whole
      number of hops one list of them, so a run in time order resolves
      its windows once per interval; other shapes resolve them per row.

    Group-key extraction, NULL-skipping and every accumulator update
    live inside the generated loop, so a whole run costs one Python call
    instead of several per row, and each window's groups fold their
    rows in arrival order (float SUM/AVG associate as a scan of the run
    would). DISTINCT aggregates fold too: each gets a per-group seen-set
    in the generated state — per window, since every window owns its
    groups — and only first occurrences update the running totals
    (values must be hashable — exactly the interpreter's ``set``
    requirement). ``finalize(state)`` returns the aggregate result
    values in call order with the interpreter's semantics (COUNT of
    nothing is 0; SUM/AVG/MIN/MAX of nothing — or of only NULLs — is
    NULL).

    A group's state is one list, one or two slots per call in call
    order; :func:`compile_partial` folds the same loop into the
    *partial* layout, where ``pairs`` lists ``(timestamp, value)`` in
    arrival order::

        call                      this layout       partial layout
        COUNT                     [count]           [count]
        MIN / MAX                 [best-or-None]    [best-or-None]
        SUM / AVG                 [count, total]    [pairs]
        COUNT/MIN/MAX DISTINCT    [seen-set]        [seen-set, pairs]
        SUM / AVG DISTINCT        [seen-set, total] [seen-set, pairs]
    """
    group_exprs, calls = tuple(group_exprs), tuple(calls)
    return _generate(
        _codegen_accumulate, group_exprs, calls, schema, window, False
    ) or _fallback_accumulate(group_exprs, calls, schema, window)


def compile_partial(
    group_exprs: Sequence[Expr],
    calls: Sequence[AggregateCall],
    schema: Schema,
    window: WindowSpec | None = None,
) -> tuple[Callable, Callable]:
    """Compile stage 1 of a two-phase (exchanged) aggregation: the
    :func:`compile_accumulate` loop — the same window lookup, key
    extraction and NULL skipping — over the partial slot layout, which
    keeps what a merge shard needs to reproduce the single engine bit
    for bit. Float addition commutes but does not associate, so SUM/AVG
    and DISTINCT calls keep ``(timestamp, value)`` pairs the merge
    re-adds in global arrival order; COUNT keeps a count and MIN/MAX an
    extreme.

    Returns ``(fold, take)`` — generated, else the interpreter's pair
    over ``_PartialItem`` state (:func:`_fallback_partial`). A windowed
    fold has :func:`compile_accumulate`'s signature. The running one is
    ``fold(rows, stamps, groups, touched)``: ``groups`` holds every group's
    state, and ``touched`` gains each group folded into, in first-touch
    order, bound to the same state list. ``take(state)`` encodes a
    group as one tagged payload per call — ``("c", count)``, ``("m",
    extreme-or-None)``, ``("s", pairs)``, ``("d", pairs)`` — and resets
    it for the next delta; a DISTINCT seen-set persists, so a running
    aggregate ships a value at most once.
    """
    group_exprs, calls = tuple(group_exprs), tuple(calls)
    return _generate(
        _codegen_accumulate, group_exprs, calls, schema, window, True
    ) or _fallback_partial(group_exprs, calls, schema, window)


def merge_partials(
    calls: Sequence[AggregateCall],
) -> tuple[Callable[[], list], Callable[[list, list], None], Callable[[list], list]]:
    """Stage 2 of a two-phase aggregation: the merge of the payloads
    :func:`compile_partial`'s ``take`` ships.

    Returns ``(start, fold, finalize)`` over one group's merge state, a
    list of :class:`~repro.sql.expressions.Accumulator` (``copy()`` each
    for a checkpoint): ``start()`` is a fresh state, ``fold(state,
    contributions)`` folds one payload tuple per arriving partial row,
    and ``finalize(state)`` returns the results in call order with the
    interpreter's semantics. Timestamped payloads ("s"/"d") from
    different shards are re-sorted into global arrival order before
    folding, so float sums reproduce the single engine bit for bit;
    dedup and extremes commute on their own. A SUM/AVG run is added in
    one local loop — the float sequence ``Accumulator.add_value`` would
    produce, without a call per value.
    """
    calls = tuple(calls)
    return (
        lambda: [Accumulator(call) for call in calls],
        _merge_fold,
        lambda state: [accumulator.result() for accumulator in state],
    )


def _merge_fold(accumulators: list[Accumulator], contributions: list) -> None:
    for index, accumulator in enumerate(accumulators):
        pairs: list[tuple[float, Any]] = []
        for parts in contributions:
            tag, payload = parts[index]
            if tag == "c":
                accumulator.count += payload
            elif tag == "m":
                if payload is not None:
                    accumulator.values.append(payload)
                    accumulator.count += 1
            else:  # "s" / "d": one shard's (ts, value) run
                pairs.extend(payload)
        if not pairs:
            continue
        pairs.sort(key=_first)
        if accumulator.call.distinct:  # dedup again, across shards
            add_value = accumulator.add_value
            for _, value in pairs:
                add_value(value)
        else:  # SUM / AVG: stage 1 shipped no NULLs
            total = accumulator.total
            for _, value in pairs:
                total += value
            accumulator.total = total
            accumulator.count += len(pairs)


_first = _operator.itemgetter(0)


def _codegen_accumulate(
    group_exprs: tuple[Expr, ...],
    calls: tuple[AggregateCall, ...],
    schema: Schema,
    window: WindowSpec | None,
    partial: bool,
) -> tuple[Callable, Callable]:
    # State layout: compile_accumulate's table, one column per `partial`.
    slots: list[tuple[str, int, bool]] = []  # (kind, first slot, distinct)
    init: list[str] = []
    for call in calls:
        kind = call.name.upper()
        if kind not in AGGREGATE_NAMES or (call.distinct and call.argument is None):
            # Nothing the analyzer admits: a hand-built plan folds
            # through the interpreter's accumulators.
            raise ExecutionError(f"no generated fold for {call.render()}")
        slots.append((kind, len(init), call.distinct))
        if call.distinct:
            init.append("set()")
            if partial:
                init.append("[]")
            elif kind in ("SUM", "AVG"):
                init.append("0")
        elif kind in ("SUM", "AVG"):
            init.extend(("[]",) if partial else ("0", "0"))
        elif kind == "COUNT":
            init.append("0")
        else:  # MIN / MAX
            init.append("None")
    running = "rows, stamps, groups, touched" if partial else "rows, stamps, groups"
    fold = _codegen_loop(
        (
            "fold",
            running if window is None else "rows, stamps, windows, closed",
            lambda gen: _emit_run(gen, window, partial),
        ),
        Chain((), schema),
        _fold_into(group_exprs, calls, slots, f"[{', '.join(init)}]", window, partial),
    )
    return fold, (_define_take if partial else _define_finalize)(slots)


def _fold_into(
    group_exprs: tuple, calls: tuple, slots: list, init: str, window: WindowSpec | None, partial: bool
) -> tuple:
    """The fold's sink: a survivor's group key, then each call's update
    of its slots in the group state — created as ``init`` — of every
    group dict :func:`_emit_run` found for it, or of the one
    dict a running fold's ``get`` looks up (``touched``'s for a
    ``partial``: it binds the same state lists as ``groups``)."""

    def body(gen: _CodeGen, indent: int) -> None:
        key_atoms = [gen.gen(expr, indent) for expr in group_exprs]
        trailing = "," if len(key_atoms) == 1 else ""
        gen.emit(indent, f"_k = ({', '.join(key_atoms)}{trailing})")
        # Arguments evaluate once per row, however many windows it updates.
        atoms = [
            None if call.argument is None else gen.as_var(gen.gen(call.argument, indent), indent)
            for call in calls
        ]
        if window is not None and window.panes != 1:  # `gs` lists the group dicts
            gen.emit(indent, "for g in gs:")
            indent += 1
            gen.emit(indent, "_s = g.get(_k)")
        else:
            gen.emit(indent, "_s = get(_k)")
        gen.emit(indent, "if _s is None:")
        if partial and window is None:  # new to this delta, maybe not to `groups`
            gen.emit(indent + 1, "_s = groups.get(_k)")
            gen.emit(indent + 1, "if _s is None:")
            gen.emit(indent + 2, f"_s = groups[_k] = {init}")
            gen.emit(indent + 1, "touched[_k] = _s")
        else:
            gen.emit(indent + 1, f"_s = {'groups' if window is None else 'g'}[_k] = {init}")
        for atom, (kind, base, distinct) in zip(atoms, slots):
            if atom is None:  # COUNT(*)
                gen.emit(indent, f"_s[{base}] += 1")
                continue
            gen.emit(indent, f"if {atom} is not None:")
            update = indent + 1
            if distinct:
                # Per-group seen-set: only the first occurrence of a value
                # touches the running state, matching the interpreter's
                # dedup (including its arrival-order float addition).
                seen = gen.name("d")
                gen.emit(update, f"{seen} = _s[{base}]")
                gen.emit(update, f"if {atom} not in {seen}:")
                gen.emit(update + 1, f"{seen}.add({atom})")
                if partial:
                    gen.emit(update + 1, f"_s[{base + 1}].append((_t, {atom}))")
                elif kind in ("SUM", "AVG"):
                    gen.emit(update + 1, f"_s[{base + 1}] += {atom}")
            elif kind == "COUNT":
                gen.emit(update, f"_s[{base}] += 1")
            elif kind in ("SUM", "AVG"):
                if partial:
                    gen.emit(update, f"_s[{base}].append((_t, {atom}))")
                else:
                    gen.emit(update, f"_s[{base}] += 1")
                    gen.emit(update, f"_s[{base + 1}] += {atom}")
            else:
                best = gen.name("t")
                op = "<" if kind == "MIN" else ">"
                gen.emit(update, f"{best} = _s[{base}]")
                gen.emit(update, f"if {best} is None or {atom} {op} {best}:")
                gen.emit(update + 1, f"_s[{base}] = {atom}")

    lookup = (f"get = {'touched' if partial else 'groups'}.get",) if window is None else ()
    return lookup, body, ()


def _define_finalize(slots: list[tuple[str, int, bool]]) -> Callable:
    """The accumulate layout's ``finalize``: each call's result, with
    the interpreter's empty and all-NULL values."""
    parts: list[str] = []
    for kind, base, distinct in slots:
        if distinct:
            # state[base] is the seen-set; empty set -> NULL (COUNT: 0).
            if kind == "COUNT":
                parts.append(f"len(state[{base}])")
            elif kind == "SUM":
                parts.append(f"state[{base + 1}] if state[{base}] else None")
            elif kind == "AVG":
                parts.append(
                    f"(state[{base + 1}] / len(state[{base}])) "
                    f"if state[{base}] else None"
                )
            else:
                fn = "min" if kind == "MIN" else "max"
                parts.append(f"{fn}(state[{base}]) if state[{base}] else None")
        elif kind == "COUNT":
            parts.append(f"state[{base}]")
        elif kind in ("SUM", "AVG"):
            value = f"state[{base + 1}]"
            if kind == "AVG":
                value = f"{value} / state[{base}]"
            parts.append(f"({value}) if state[{base}] else None")
        else:
            parts.append(f"state[{base}]")
    source = f"def _finalize(state):\n    return [{', '.join(parts)}]\n"
    return _define("_finalize", source, "<repro.sql.compiled.finalize>", {})


def _define_take(slots: list[tuple[str, int, bool]]) -> Callable:
    """The partial layout's ``take``: one tagged payload per call, then
    the slot reset to empty (a seen-set stays)."""
    payloads: list[str] = []
    resets: list[str] = []
    for kind, base, distinct in slots:
        if distinct:
            tag, slot, empty = "d", base + 1, "[]"
        elif kind in ("SUM", "AVG"):
            tag, slot, empty = "s", base, "[]"
        elif kind == "COUNT":
            tag, slot, empty = "c", base, "0"
        else:
            tag, slot, empty = "m", base, "None"
        payloads.append(f"({tag!r}, state[{slot}])")
        resets.append(f"    state[{slot}] = {empty}\n")
    source = (
        f"def _take(state):\n    out = [{', '.join(payloads)}]\n"
        + "".join(resets)
        + "    return out\n"
    )
    return _define("_take", source, "<repro.sql.compiled.take>", {})


def compile_join_probe(
    left_schema: Schema,
    right_schema: Schema,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    left_window: WindowSpec,
    right_window: WindowSpec,
    chain: Chain,
    left: bool | None,
    output_schema: Schema,
) -> Callable | None:
    """Compile one side of a windowed symmetric hash join into a
    generated *batch probe* function, or ``None`` when that side has no
    batch body (then the caller keeps its per-element loop).

    ``probe(rows, stamps, own, other, out, out_stamps, unsorted)``
    takes a punctuation-free run arriving on one side (the ``left``
    one, or the right), the two per-key bucket dicts — each bucket a
    deque of ``(stamp, values)`` — the output lists and the own side's
    set of out-of-order bucket keys. Per row, in arrival order: extract
    the equi-key positionally; skip the row when a key component is
    NULL (it can match nothing, so it is neither buffered nor probed);
    append ``(stamp, values)`` to its own bucket — adding the key to
    ``unsorted`` when it lands behind the bucket's tail on a side that
    evicts by time (RANGE, NOW); walk the opposite bucket in bucket
    order and append one Row per live, predicate-passing pair to
    ``out``, and to ``out_stamps`` the later of the two timestamps. The
    opposite buffer does not change while one side's run is probed, so
    the pairs and their order are exactly those of per-element delivery.

    With ``left`` None it compiles both sides' probes into one
    *delivery* function, ``deliver(runs, left, right, out, out_stamps,
    left_unsorted, right_unsorted)``, or ``None`` when either side has
    no kernel. ``runs`` is one exchange delivery's runs for this join in
    delivery order, each ``(is_left, values, stamps, source)``: per row
    it runs that side's probe over the value tuple, every run's pairs
    into the one ``out``. A run that raises has its pairs removed from
    ``out`` and ``out_stamps`` and the rest of its rows skipped, its
    exception goes to :func:`~repro.data.streams.park`, and the next
    run goes on; the function returns the rows of the runs that
    completed. Runs on alternate sides see each other exactly as per-run
    probes would.

    ``chain`` is the residual predicate as a filter, then the
    Select/Project run above the join, over the joined tuple — one
    :class:`Chain` every kernel of the join splices: a filter skips the
    pair, a projection rebinds the tuple, and each surviving pair
    appends one ``Row.raw(output_schema, v)`` — no joined row is built
    first. Without stages ``output_schema`` is the concatenated schema.

    The liveness test is the two-sided window test inlined as arithmetic
    on the two timestamps: an opposite row *later* than the arriving one
    must have it inside the arriving side's window, an earlier one must
    itself be inside the opposite side's window (RANGE compares the
    distance with the size, NOW demands equality, UNBOUNDED — and a ROWS
    window on the opposite side, which bounds by count at its own
    ingest — always passes).

    A side whose *own* window is ROWS has no kernel: every arrival there
    also evicts by count, a per-element state change.
    """
    windows = (left_window, right_window)
    sides = (True, False) if left is None else (left,)
    if any(windows[0 if side else 1].kind is WindowKind.ROWS for side in sides):
        return None
    return _generate(
        _codegen_join_probe,
        (left_schema, right_schema),
        (tuple(left_keys), tuple(right_keys)),
        windows,
        chain,
        sides,
        output_schema,
    )


def _codegen_join_probe(
    schemas: tuple[Schema, Schema],
    keys: tuple[tuple[str, ...], tuple[str, ...]],
    windows: tuple[WindowSpec, WindowSpec],
    chain: Chain,
    sides: tuple[bool, ...],
    output_schema: Schema,
) -> Callable:
    positions = [[schema.index_of(name) for name in names] for schema, names in zip(schemas, keys)]
    if len(sides) == 1:

        def probe(gen: _CodeGen) -> int:
            gen.emit(1, "own_get = own.get")
            gen.emit(1, "other_get = other.get")
            gen.emit(1, "for r, _t in zip(rows, stamps):")
            gen.emit(2, "_w = r.values")
            return _emit_pairs(gen, positions, windows, sides[0], 2, ("own", "other"))

        source = ("probe", "rows, stamps, own, other, out, out_stamps, own_unsorted", probe)
    else:

        def deliver(gen: _CodeGen):
            gen.emit(1, "left_get = left.get")
            gen.emit(1, "right_get = right.get")
            gen.emit(1, "rows = 0")
            gen.emit(1, "for _s, _vs, _ts, _src in runs:")
            gen.emit(2, "_mark = len(out)")
            gen.emit(2, "try:")
            for left, names in ((True, ("left", "right")), (False, ("right", "left"))):
                gen.emit(3, "if _s:" if left else "else:")
                gen.emit(4, "for _w, _t in zip(_vs, _ts):")
                yield _emit_pairs(gen, positions, windows, left, 5, names)
            gen.emit(2, "except Exception as _exc:")
            gen.emit(3, "del out[_mark:]")
            gen.emit(3, "del out_stamps[_mark:]")
            gen.emit(3, f"{gen.bind(_park, 'park')}(_exc)")
            gen.emit(2, "else:")
            gen.emit(3, "rows += len(_vs)")
            gen.emit(1, "return rows")

        source = ("deliver", "runs, left, right, out, out_stamps, left_unsorted, right_unsorted", deliver)
    return _codegen_loop(source, chain, _append(output_schema, "_m"))


def _emit_pairs(
    gen: _CodeGen,
    keys: list[list[int]],
    windows: tuple[WindowSpec, WindowSpec],
    left: bool,
    indent: int,
    names: tuple[str, str],
) -> int:
    """One row arriving on the ``left`` side (or the right), at
    ``indent`` inside its loop, with its value tuple ``_w`` and stamp
    ``_t`` bound: its key (at its side's positions in ``keys``, left
    first, as ``windows``), its ``(_t, _w)`` appended to the bucket dict
    named ``names[0]``, then per live ``(_o, _y)`` of the key's bucket
    in ``names[1]`` ``v``, the concatenated value tuple, and ``_m``, the
    pair's stamp. Returns the body's indent."""
    own, other = names
    own_window, other_window = windows if left else windows[::-1]
    key_atoms = [f"_w[{position}]" for position in keys[0 if left else 1]]
    # Same key convention as the per-element body: a single column
    # hashes the bare value, several a tuple, none the empty tuple.
    if len(key_atoms) == 1:
        gen.emit(indent, f"_k = {key_atoms[0]}")
        gen.emit(indent, "if _k is None:")
        gen.emit(indent + 1, "continue")
    else:
        if key_atoms:
            gen.emit(indent, f"if {' or '.join(f'{a} is None' for a in key_atoms)}:")
            gen.emit(indent + 1, "continue")
        gen.emit(indent, f"_k = ({', '.join(key_atoms)})")
    gen.emit(indent, f"_b = {own}_get(_k)")
    gen.emit(indent, "if _b is None:")
    gen.emit(indent + 1, f"_b = {own}[_k] = {gen.bind(_deque, 'dq')}()")
    if own_window.evicts_by_time:
        # Buckets hold at least one row; eviction rescans marked ones.
        gen.emit(indent, "elif _t < _b[-1][0]:")
        gen.emit(indent + 1, f"{own}_unsorted.add(_k)")
    gen.emit(indent, "_b.append((_t, _w))")
    gen.emit(indent, f"_c = {other}_get(_k)")
    gen.emit(indent, "if _c is None:")
    gen.emit(indent + 1, "continue")
    body = indent + 1
    gen.emit(indent, "for _o, _y in _c:")
    gen.emit(body, "if _o > _t:")
    if own_window.kind is WindowKind.NOW:
        gen.emit(body + 1, "continue")
    else:
        if own_window.kind is WindowKind.RANGE:
            gen.emit(body + 1, f"if _o - _t > {gen.atom(own_window.size)}:")
            gen.emit(body + 2, "continue")
        gen.emit(body + 1, "_m = _o")
    gen.emit(body, "else:")
    if other_window.kind is WindowKind.RANGE:
        gen.emit(body + 1, f"if _o != _t and not (_t - _o <= {gen.atom(other_window.size)}):")
        gen.emit(body + 2, "continue")
    elif other_window.kind is WindowKind.NOW:
        gen.emit(body + 1, "if _o != _t:")
        gen.emit(body + 2, "continue")
    gen.emit(body + 1, "_m = _t")
    gen.emit(body, "v = _w + _y" if left else "v = _y + _w")
    return body


def _codegen_fused(chain: Chain) -> Callable[[tuple], tuple | None]:
    returns = ((), lambda gen, indent: gen.emit(indent, "return v"), ())
    return _codegen_loop(("fused", "v", lambda gen: 1), chain, returns)


def compile_ingest(schema: Schema, coerce: Callable) -> Callable:
    """Compile the ingest loop of one catalog ``schema``: rows as a
    caller hands them in, out as Rows under ``schema`` — generated, else
    ``coerce`` over every row (:func:`fallback_ingest`).

    The loop is ``ingest(rows)`` and returns the Rows, in order (an
    engine's, whose stamps go along beside them, and a pool's, which
    routes them). Per row, in order:

    * a :class:`Row` under ``schema`` itself passes through;
    * a ``dict`` is looked up field by field — full name first, then
      bare name, as :meth:`Row.from_mapping` does — with each value's
      exact type checked inline (``conforms``: ``int`` in FLOAT is kept
      as an int, a ``bool`` is no INT), and becomes a Row by slot stores;
    * anything else, and any dict that misses a field or fails a check,
      goes to ``coerce(schema, row)`` — ``StreamEngine._coerce_row`` —
      so what it accepts and the error it raises are the interpreter's.
    """
    return _generate(_codegen_ingest, schema, coerce, Chain((), schema), None) or fallback_ingest(schema, coerce)


def compile_fused_ingest(
    schema: Schema, coerce: Callable, chain: Chain, output_schema: Schema
) -> Callable[[list, list], tuple[list, list]] | None:
    """:func:`compile_ingest` and an operator's :func:`compile_fused_batch`
    loop as one, ``fused(rows, stamps)``, that returns the survivors'
    Rows and their stamps, or ``None`` (run the two): it splices the
    operator's own ``chain``, lowered once."""
    return _generate(_codegen_ingest, schema, coerce, chain, output_schema)


#: Exact-type tests per column type, over a value known not to be NULL:
#: the common cases of ``repro.data.types.conforms``, which the slow
#: path applies in full (a subclass passes there, not here).
_EXACT_TYPE = {
    DataType.INT: "{x}.__class__ is int",
    DataType.FLOAT: "{x}.__class__ is float or {x}.__class__ is int",
    DataType.TIMESTAMP: "{x}.__class__ is float or {x}.__class__ is int",
    DataType.STRING: "{x}.__class__ is str",
    DataType.BOOL: "{x} is True or {x} is False",
}

#: Marks a mapping's missing key inside generated ingest loops.
_MISSING = object()


def _codegen_ingest(
    schema: Schema, coerce: Callable, chain: Chain, output_schema: Schema | None
) -> Callable:
    fused = bool(chain.stages)
    return _codegen_loop(
        (
            "fused_ingest" if fused else "ingest",
            "rows, stamps" if fused else "rows",
            lambda gen: _emit_rows(gen, schema, coerce, fused),
        ),
        chain,
        _append(output_schema if chain.projects else "r", "_t" if fused else None, fresh=True),
    )


def _emit_rows(gen: _CodeGen, schema: Schema, coerce: Callable, fused: bool) -> int:
    """The ingest loop's head: each row as :func:`compile_ingest` checks
    it, bound as ``r`` — a Row under ``schema`` as itself — and, when
    ``fused`` stages read them, its stamp as ``_t`` and its values as
    ``v``."""
    gen.env.update(_S=schema, _Row=Row, _coerce=coerce, _M=_MISSING)
    checks = ["r.__class__ is dict"]
    for position, field in enumerate(schema):
        x = f"a{position}"
        full, bare = repr(field.name), repr(field.bare_name)
        if full == bare:  # a membership test and a subscript beat dict.get
            checks.append(f"{full} in r")
            value = f"({x} := r[{full}])"
        else:
            lookup = f"r[{full}] if {full} in r else r.get({bare}, _M)"
            checks.append(f"({x} := ({lookup})) is not _M")
            value = x
        exact = _EXACT_TYPE.get(field.dtype)
        checks.append(f"({value} is None or {exact.format(x=x)})" if exact else f"{value} is None")
    atoms = ", ".join(f"a{position}" for position in range(len(schema)))
    gen.emit(1, "for r, _t in zip(rows, stamps):" if fused else "for r in rows:")
    gen.emit(2, "if r.__class__ is not _Row or r.schema is not _S:")
    gen.emit(3, "if (")
    for position, check in enumerate(checks):
        gen.emit(4, f"{'and ' if position else ''}{check}")
    gen.emit(3, "):")
    _emit_row(gen, 4, "_S", f"({atoms}{',' if len(schema) == 1 else ''})")
    gen.emit(4, "r = _r")
    gen.emit(3, "else:")
    gen.emit(4, "r = _coerce(_S, r)")
    if fused:
        gen.emit(2, "v = r.values")
    return 2


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------
def _fold_constant(expr: Expr) -> tuple[bool, Any]:
    """Evaluate a column-free, aggregate-free subtree once at compile time.

    Returns ``(True, value)`` when folded. Subtrees whose evaluation
    raises are *not* folded — they compile structurally so the error
    surfaces (with its original type) on each evaluation, matching the
    interpreter.
    """
    for node in expr.walk():
        # Parameters are runtime-bound slots: folding one would bake the
        # current binding into the compiled closure forever.
        if isinstance(node, (ColumnRef, AggregateCall, Parameter)):
            return False, None
    try:
        # Column-free evaluation never touches the row argument.
        return True, expr.eval(None)
    except Exception:
        return False, None


@lru_cache(maxsize=512)
def _code_object(source: str, filename: str):
    """The one call to builtin ``compile`` for generated source (lint
    rule RA905 keeps it the only one).

    Many functions share one text — a shard recovering a replica,
    plans that differ only in bound constants — so the code object is
    memoized on it. Code objects are immutable and
    carry no bindings: each caller still ``exec``s into its own ``env``,
    so closures from one source share bytecode, never constants or
    bound objects.
    """
    return compile(source, filename, "exec")


def _define(name: str, source: str, filename: str, env: dict[str, Any]) -> Callable:
    """Run generated ``source`` in ``env`` and return the function
    ``name`` it defines, its text attached for introspection."""
    exec(_code_object(source, filename), env)
    fn = env[name]
    fn.__compiled_source__ = source
    return fn


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------
_CMP_SOURCE = {"=": "==", "!=": "!=", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ARITH_SOURCE = {"+": "+", "-": "-", "*": "*", "/": "/", "%": "%"}
_INLINE_CONSTS = (bool, int, float, str, type(None))
#: Binary operators whose result is NULL when an operand is: a non-NULL
#: result proves every column under a chain of them non-NULL.
_STRICT = frozenset(_CMP_SOURCE) | frozenset(_ARITH_SOURCE) | {"LIKE", "NOT LIKE"}
#: The most conjuncts a filter lowers flat: each one's doomed path
#: repeats those after it, so the text grows with the square of this.
_FLAT_CONJUNCTS = 8
#: The most values a constant LIKE's verdict memo holds
#: (:meth:`_CodeGen.gen_like_memo`); past it the kernel stops probing.
_LIKE_MEMO = 1024


class _CodeGen:
    """Lowers expression trees to the body of one generated function.

    Every node becomes a handful of statements assigning its result to a
    fresh temp; AND/OR lower to branches so short-circuit evaluation and
    three-valued logic match the interpreter statement for statement.
    Constants that round-trip through ``repr`` are inlined; everything
    else (regexes, function objects, fallback closures) is bound in the
    generated function's global namespace.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self.lines: list[str] = []
        self.env: dict[str, Any] = {"ExecutionError": ExecutionError}
        self.counter = 0
        # Atoms statically known non-NULL (inlined/bound constants, and
        # columns a passed filter conjunct proved): their `is None`
        # checks are elided from generated code.
        self.non_null: set[str] = set()
        # Positions of `v` held in locals since `v` was last bound; in a
        # stage, the reads of the ones it adds (else columns are `v[i]`),
        # and the locals lowering has named.
        self.columns: dict[int, str] = {}
        self.reads: list[str] | None = None
        self.used: set[str] = set()

    def name(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def bind(self, value: Any, prefix: str = "g") -> str:
        name = self.name(prefix)
        self.env[name] = value
        return name

    def emit(self, indent: int, line: str) -> None:
        self.lines.append("    " * indent + line)

    def apart(self, expr: Expr) -> tuple[list[str], str]:
        """``expr``'s statements at indent 0, kept apart to be placed
        where they run, and the variable holding its value."""
        lines, self.lines = self.lines, []
        atom = self.as_var(self.gen(expr, 0), 0)
        out, self.lines = self.lines, lines
        return out, atom

    def prove(self, predicate: Expr) -> None:
        """Past a filter predicate that passed, each of its conjuncts did
        too — neither FALSE nor NULL — so every column under their
        comparisons, arithmetic, LIKE, NOT and unary minus (each NULL
        when an operand is), or under an IS NOT NULL, is known non-NULL.
        An arithmetic *result* never is: an operand's ``__mul__`` may
        return ``None``."""
        nodes = [
            node.operand if isinstance(node, UnaryOp) and node.op == "IS NOT NULL" else node
            for node in split_conjuncts(predicate)
        ]
        while nodes:
            node = nodes.pop()
            if isinstance(node, ColumnRef):
                atom = self.columns.get(self.schema.index_of(node.name))
                if atom is not None:
                    self.non_null.add(atom)
            elif isinstance(node, BinaryOp) and node.op in _STRICT:
                nodes += (node.left, node.right)
            elif isinstance(node, UnaryOp) and node.op in ("NOT", "-"):
                nodes.append(node.operand)

    # -- node lowering -------------------------------------------------
    def gen(self, expr: Expr, indent: int) -> str:
        """Emit statements computing ``expr``; returns the temp/atom."""
        if isinstance(expr, ColumnRef):
            position = self.schema.index_of(expr.name)
            local = self.columns.get(position)
            if local is None:
                if self.reads is None:
                    return f"v[{position}]"
                local = self.columns[position] = self.name("x")
                self.reads.append(f"{local} = v[{position}]")
            self.used.add(local)
            return local
        if isinstance(expr, Literal):
            return self.atom(expr.value)
        folded, value = _fold_constant(expr)
        if folded:
            return self.atom(value)
        if isinstance(expr, Parameter):
            # Compiled once, re-bound per execution: the generated code
            # reads the parameter's current slot on every call.
            slot = self.bind(expr, "p")
            out = self.name("t")
            self.emit(indent, f"{out} = {slot}.value()")
            return out
        if isinstance(expr, BinaryOp):
            return self.gen_binary(expr, indent)
        if isinstance(expr, UnaryOp):
            return self.gen_unary(expr, indent)
        if isinstance(expr, FunctionCall):
            return self.gen_function(expr, indent)
        # AggregateCall and anything exotic: delegate to the interpreter.
        return self.gen_fallback(expr, indent)

    def atom(self, value: Any) -> str:
        if isinstance(value, _INLINE_CONSTS) and not (
            isinstance(value, float) and not _math.isfinite(value)
        ):
            # repr round-trips these as source literals; non-finite
            # floats repr as bare `inf`/`nan` names and must be bound.
            text = repr(value)
        else:
            text = self.bind(value, "c")
        if value is not None:
            self.non_null.add(text)
        return text

    def as_var(self, atom: str, indent: int) -> str:
        """Bind literal atoms to a temp so identity tests read a variable
        (``0.5 is False`` is a SyntaxWarning; ``t1 is False`` is not)."""
        return atom if atom.startswith("v[") else self.local(atom, indent)

    def local(self, atom: str, indent: int) -> str:
        """``atom`` in a variable, a subscript of ``v`` included, so a
        value read several times is read once."""
        if atom.isidentifier():
            return atom
        tmp = self.name("t")
        self.emit(indent, f"{tmp} = {atom}")
        if atom in self.non_null:
            self.non_null.add(tmp)
        return tmp

    def null_check(self, *atoms: str) -> str:
        """``a is None or b is None`` with known-non-NULL atoms elided."""
        return " or ".join(f"{a} is None" for a in atoms if a not in self.non_null)

    @staticmethod
    def raise_unknown(message: str) -> str:
        """A ``raise`` statement carrying ``message`` (the interpreter's
        own text) as one repr'd literal, whatever quotes it holds."""
        return f"raise ExecutionError({message!r})"

    def gen_fallback(self, expr: Expr, indent: int) -> str:
        fallback = self.bind(_fallback(expr, self.schema), "fb")
        out = self.name("t")
        self.emit(indent, f"{out} = {fallback}(v)")
        return out

    def gen_binary(self, expr: BinaryOp, indent: int) -> str:
        op = expr.op
        out = self.name("t")
        if op in ("AND", "OR"):
            # Exactly the interpreter's short-circuit order: the right
            # side only evaluates when the left is not decisive.
            decisive, exhausted = ("False", "True") if op == "AND" else ("True", "False")
            a = self.as_var(self.gen(expr.left, indent), indent)
            self.emit(indent, f"if {a} is {decisive}:")
            self.emit(indent + 1, f"{out} = {decisive}")
            self.emit(indent, "else:")
            b = self.as_var(self.gen(expr.right, indent + 1), indent + 1)
            self.emit(indent + 1, f"if {b} is {decisive}:")
            self.emit(indent + 2, f"{out} = {decisive}")
            self.emit(indent + 1, f"elif {a} is None or {b} is None:")
            self.emit(indent + 2, f"{out} = None")
            self.emit(indent + 1, "else:")
            self.emit(indent + 2, f"{out} = {exhausted}")
            return out

        a = self.gen(expr.left, indent)
        b = self.gen(expr.right, indent)
        if op in _CMP_SOURCE or op in _ARITH_SOURCE:
            symbol = _CMP_SOURCE.get(op) or _ARITH_SOURCE[op]
            # A literal divisor is tested once, here: zero folds to NULL
            # whatever the dividend, anything else needs no test per row.
            divides = op in ("/", "%")
            literal, divisor = _fold_constant(expr.right) if divides else (False, None)
            if literal and divisor is not None and divisor == 0:
                self.emit(indent, f"{out} = None  # SQL: division by zero is NULL")
                return out
            checks = self.null_check(a, b)
            body = indent
            if checks:
                self.emit(indent, f"if {checks}:")
                self.emit(indent + 1, f"{out} = None")
            if divides and not literal:
                self.emit(indent, f"{'elif' if checks else 'if'} {b} == 0:")
                self.emit(indent + 1, f"{out} = None  # SQL: division by zero is NULL")
                checks = True
            if checks:
                self.emit(indent, "else:")
                body = indent + 1
            self.emit(body, "try:")
            self.emit(body + 1, f"{out} = {a} {symbol} {b}")
            self.emit(body, "except TypeError as exc:")
            self.emit(
                body + 1,
                "raise ExecutionError("
                f"f\"cannot apply {op} to {{{a}!r}} and {{{b}!r}}\") from exc",
            )
            return out
        if op in ("LIKE", "NOT LIKE"):
            test = "is None" if op == "NOT LIKE" else "is not None"
            pattern_const, pattern = _fold_constant(expr.right)
            if not (pattern_const and pattern is not None):
                like = self.bind(_like_regex_cached, "lk")
                checks = self.null_check(a, b)
                body = self.emit_null(indent, checks, out)
                self.emit(body, f"{out} = {like}(str({b})).match(str({a})) {test}")
                return out
            self.gen_like_memo(self.local(a, indent), pattern, test, out, indent)
            return out
        # Unknown operator: operands evaluate first, as in the interpreter.
        body = self.emit_null(indent, self.null_check(a, b), out)
        self.emit(body, self.raise_unknown(f"unknown binary operator {op!r}"))
        self.non_null.discard(out)
        return out

    def emit_null(self, indent: int, checks: str, out: str) -> int:
        """``out = None`` under ``checks`` (when there are any) and an
        ``else:`` opened for the rest; returns the rest's indent."""
        if not checks:
            return indent
        self.emit(indent, f"if {checks}:")
        self.emit(indent + 1, f"{out} = None")
        self.emit(indent, "else:")
        return indent + 1

    def gen_like_memo(self, a: str, pattern: Any, test: str, out: str, indent: int) -> None:
        """A constant LIKE pattern: ``out = match(a) {test}`` answered
        from a memo of the regex's own verdicts.

        The pattern's regex is compiled here and its bound ``match``
        decides each value the first time it is seen, through ``str()``
        unless the value is an exact ``str`` (a subclass may override
        ``__str__``, as the interpreter sees). Only an exact ``str`` keys
        the memo — a subclass may hash and compare equal to a memoised
        key — so on the common path a repeated value costs one class
        test and one ``dict.get``. The memo holds at most
        :data:`_LIKE_MEMO` values; the miss that finds it full rebinds
        its key class to ``None``, which no value's class is, so from
        then on no row probes it: each takes the branch a value that is
        not an exact ``str`` takes, the regex alone."""
        match = self.bind(_like_to_regex(str(pattern)).match, "m")
        memo = {}
        probe, key = self.bind(memo.get, "lm"), self.bind(str, "lc")
        store = self.bind(memo, "lv")
        self.env["_G"] = self.env  # the generated function's own globals
        body = self.emit_null(indent, self.null_check(a), out)
        self.emit(body, f"if {a}.__class__ is {key}:")
        self.emit(body + 1, f"{out} = {probe}({a})")
        self.emit(body + 1, f"if {out} is None:")
        self.emit(body + 2, f"{out} = {match}({a}) {test}")
        self.emit(body + 2, f"if len({store}) < {_LIKE_MEMO}:")
        self.emit(body + 3, f"{store}[{a}] = {out}")
        self.emit(body + 2, "else:")
        self.emit(body + 3, f"_G[{key!r}] = None  # full: stop probing")
        self.emit(body, "else:")
        self.emit(body + 1, f"{out} = {match}({a} if {a}.__class__ is str else str({a})) {test}")

    def gen_unary(self, expr: UnaryOp, indent: int) -> str:
        op = expr.op
        a = self.as_var(self.gen(expr.operand, indent), indent)
        out = self.name("t")
        if op == "NOT":
            if a in self.non_null:
                self.emit(indent, f"{out} = not {a}")
            else:
                self.emit(indent, f"{out} = None if {a} is None else (not {a})")
        elif op == "-":
            if a in self.non_null:
                self.emit(indent, f"{out} = -{a}")
            else:
                self.emit(indent, f"{out} = None if {a} is None else (-{a})")
        elif op == "IS NULL":
            self.emit(indent, f"{out} = {a} is None")
        elif op == "IS NOT NULL":
            self.emit(indent, f"{out} = {a} is not None")
        else:
            self.emit(indent, self.raise_unknown(f"unknown unary operator {op!r}"))
            return "None"
        return out

    def gen_function(self, expr: FunctionCall, indent: int) -> str:
        upper = expr.name.upper()
        out = self.name("t")
        if upper not in _SCALAR_FUNCTIONS:
            # The interpreter raises before evaluating arguments.
            self.emit(indent, self.raise_unknown(f"unknown function {expr.name!r}"))
            return "None"
        args = [self.gen(a, indent) for a in expr.args]
        if upper == "COALESCE":
            return self.gen_coalesce(args, out, indent)
        impl, _ = _SCALAR_FUNCTIONS[upper]
        call = f"{self.bind(impl, 'fn')}({', '.join(args)})"
        if not args:
            self.emit(indent, f"{out} = {call}")
            return out
        checks = self.null_check(*args)
        if checks:
            self.emit(indent, f"if {checks}:")
            self.emit(indent + 1, f"{out} = None")
            self.emit(indent, "else:")
            self.emit(indent + 1, f"{out} = {call}")
        else:
            self.emit(indent, f"{out} = {call}")
        return out

    def gen_coalesce(self, args: list[str], out: str, indent: int) -> str:
        """COALESCE over its already-evaluated arguments (every one was
        evaluated, as in the interpreter): a conditional chain that
        stops at the first argument known non-NULL and skips NULL
        literals."""
        chain = "None"
        for atom in reversed(args):
            if atom == "None":
                continue
            if atom in self.non_null:
                chain = atom
            else:
                atom = self.as_var(atom, indent)
                chain = f"{atom} if {atom} is not None else {chain}"
        self.emit(indent, f"{out} = {chain}")
        if chain in self.non_null:
            self.non_null.add(out)
        return out


def _codegen(exprs: list[Expr], schema: Schema, single: bool) -> Callable:
    gen = _CodeGen(schema)
    results = [gen.gen(e, 1) for e in exprs]
    if single:
        gen.emit(1, f"return {results[0]}")
    else:
        gen.emit(1, f"return ({', '.join(results)}{',' if len(results) == 1 else ''})")
    source = "def _compiled(v):\n" + "\n".join(gen.lines) + "\n"
    return _define("_compiled", source, "<repro.sql.compiled>", gen.env)


# ---------------------------------------------------------------------------
# The second rung: the interpreter, over a rehydrated Row
# ---------------------------------------------------------------------------
def _fallback(expr: Expr, schema: Schema) -> CompiledExpr:
    def run(values: tuple, _e=expr, _s=schema) -> Any:
        return _e.eval(Row.raw(_s, values))

    return run


def _fallback_projection(
    exprs: tuple[Expr, ...], schema: Schema
) -> Callable[[tuple], tuple]:
    def run(values: tuple, _exprs=exprs, _s=schema) -> tuple:
        row = Row.raw(_s, values)
        return tuple(e.eval(row) for e in _exprs)

    return run


def fallback_ingest(schema: Schema, coerce: Callable) -> Callable:
    """:func:`compile_ingest`'s interpreter twin: ``coerce`` over every
    row, with the same signature and the same results."""

    def ingest(rows) -> list:
        return [coerce(schema, row) for row in rows]

    return ingest


def _fallback_fold(
    group_exprs: tuple[Expr, ...],
    schema: Schema,
    window: WindowSpec | None,
    new_state: Callable[[], list],
    add: Callable[[list, Row, float], None],
) -> Callable:
    """The interpreter's fold behind the generated folds' signatures:
    ``new_state()`` builds a group's state and ``add(state, row,
    timestamp)`` folds one row into it."""

    def group(groups: dict, key: tuple) -> list:
        state = groups.get(key)
        if state is None:
            state = groups[key] = new_state()
        return state

    def running_fold(rows, stamps, groups: dict, touched: dict | None = None) -> None:
        for row, stamp in zip(rows, stamps):
            row = Row.raw(schema, row.values)
            key = tuple(e.eval(row) for e in group_exprs)
            state = group(groups, key)
            if touched is not None:  # compile_partial's running signature
                touched[key] = state
            add(state, row, stamp)

    def windowed_fold(rows, stamps, windows: dict, closed: float) -> None:
        for row, stamp in zip(rows, stamps):
            indexes = [k for k in window.indexes(stamp) if k > closed]
            if not indexes:
                continue
            row = Row.raw(schema, row.values)
            key = tuple(e.eval(row) for e in group_exprs)
            for index in indexes:
                groups = windows.get(index)
                if groups is None:
                    groups = windows[index] = {}
                add(group(groups, key), row, stamp)

    return running_fold if window is None else windowed_fold


def _fallback_accumulate(
    group_exprs: tuple[Expr, ...],
    calls: tuple[AggregateCall, ...],
    schema: Schema,
    window: WindowSpec | None,
) -> tuple[Callable, Callable]:
    def add(state: list, row: Row, timestamp: float) -> None:
        for accumulator in state:
            accumulator.add(row)

    fold = _fallback_fold(
        group_exprs, schema, window, lambda: [Accumulator(call) for call in calls], add
    )
    return fold, lambda state: [accumulator.result() for accumulator in state]


def _fallback_partial(
    group_exprs: tuple[Expr, ...],
    calls: tuple[AggregateCall, ...],
    schema: Schema,
    window: WindowSpec | None,
) -> tuple[Callable, Callable]:
    def add(state: list, row: Row, timestamp: float) -> None:
        for item in state:
            item.add(row, timestamp)

    fold = _fallback_fold(
        group_exprs, schema, window, lambda: [_PartialItem(call) for call in calls], add
    )
    return fold, lambda state: [item.take() for item in state]
