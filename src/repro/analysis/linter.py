"""Engine-invariant linter: AST checks over ``src/repro`` itself.

The runtime rests on a few conventions no type checker enforces; this
linter makes them mechanical (``python -m repro.analysis --self``, run
by ``make lint`` / ``make check``):

* **RA901 — checkpoint pairing.** The checkpoint/restore spine
  (:mod:`repro.stream.checkpoint`) snapshots every operator via
  ``state_snapshot`` and restores via ``state_restore``. An Operator
  subclass defining one without the other has state that either never
  survives a failover or silently restores stale defaults.

* **RA902 — a batch is a run of rows and their stamps.** ``push_batch``
  receives a punctuation-free run, ``(rows, stamps, source)``; every
  punctuation travels by ``push``, and no ``StreamElement`` is built
  for a run (the contract on
  :class:`~repro.data.streams.StreamConsumer`). Any ``push_batch`` /
  ``receive_batch`` body — on an operator or any other consumer — that
  names ``Punctuation`` or catches ``AttributeError`` is splitting,
  scanning for or recovering from a case the contract rules out, and
  one that names ``StreamElement`` builds (or reads) the per-row object
  the run exists to avoid; either taxes the hot batch path. One body is
  exempt from the second half: ``Operator.push_batch`` in
  ``stream/operators.py``, the per-element fallback of an operator with
  no batch body of its own (or whose generated loop declined), which
  hands its ``on_element`` one element per row.

* **RA903 — layering.** Packages import strictly downward through the
  architecture (``errors → data → catalog → sql → plan → stream/sensor
  → wrappers/core → building/analysis → api → smartcis``), *at module
  top level*. Lazy in-function imports are the sanctioned escape hatch
  (the api layer reaches sensor internals only lazily, keeping the
  sensor substrate optional); a new top-level edge outside the
  whitelist is a layering break.

* **RA904 — the one frame boundary.** Shard worker processes are
  reached through exactly one transport
  (:class:`~repro.stream.procshard.FramedChannel`); everything above it
  is transport-agnostic. Three statically checkable invariants keep
  that boundary single and sound: at most **one** module under
  ``src/repro`` imports ``multiprocessing``; every frame that module
  puts on a queue is a **plain tuple** (a tuple literal at the call
  site, or a name bound to one — never a lambda, a bound
  method/attribute or any other expression: closures are unpicklable
  or, worse, drag a parent engine across the boundary); and modules on
  the worker import path (the layers a worker transitively imports)
  must not construct engine/session singletons at module top level —
  each process would duplicate them, and fork/spawn would disagree.

* **RA905 — one compile call.** Generated source becomes a code object
  in exactly one place, ``sql/compiled.py::_code_object``, which
  memoizes on the text: every replica of a plan on every shard
  generates the same source, and admission should pay for compiling it
  once. A bare-name call to builtin ``compile`` anywhere else under
  ``src/repro`` is a generator bypassing the memo (``re.compile`` and
  ``PlanCompiler.compile`` are attribute calls and not this rule's
  business).

* **RA906 — one road to the interpreter.** Every evaluation site —
  an operator, a mote, the basestation — has one body, written against
  the value-tuple callables of ``sql/compiled.py``; whether one of
  those is generated code or ``Expr.eval`` behind the same signature
  is decided there and counted. An ``.eval(`` call anywhere outside
  ``sql/`` is a second, by-name body growing back beside the first,
  and so is an ``Accumulator(...)`` constructed there: its ``add``
  evaluates the call's argument by name, uncounted.

* **RA907 — an error is handed to the edge.** A hand-off that raises
  under an open verb is parked, and the outermost verb raises it (the
  rule on :class:`~repro.data.streams.StreamConsumer`). Under
  ``stream/`` and ``data/``, an ``except Exception as NAME`` handler
  that does not re-raise must pass ``NAME`` to ``park``: one holding
  on to it instead is a per-site error protocol growing back. Bare
  ``except Exception:`` handlers keep nothing and are not this rule's
  business.

* **RA908 — plan nodes are write-once.** A logical plan node caches
  what it derives from its subtree on itself (a join's shape, the
  structural fingerprint, the sharing verdict) and the plan cache hands
  one plan object to every admission of a statement, so both rest on
  "operators are immutable; rewrites build new trees"
  (:mod:`repro.plan.logical`). A ``LogicalOp`` class — the base or any
  subclass — assigns or deletes an attribute of ``self`` (by
  ``self.name = ...``, ``setattr``, ``object.__setattr__`` or
  ``self.__dict__[...]``) in its own ``__init__`` only. The writes
  ``functools.cached_property`` makes on first read happen inside the
  library, not in the class body, and are not this rule's business.
  Outside the plan classes the rule reads every module: a write into
  another object's ``__dict__`` by subscript (``node.__dict__[key] =
  ...`` or ``del``) is flagged anywhere under ``src/repro`` — a memo of
  a node belongs in a mapping keyed by the node, not on it — except
  ``self.__dict__[...]`` inside its own class's ``__init__``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.diagnostics import ERROR, Diagnostic, diag

#: package (or top-level module) -> packages it may import at module
#: top level. Importing within the same package is always allowed.
#: This table *is* the layering contract: extend it deliberately, in
#: review, when an edge is genuinely architectural.
LAYERS: dict[str, frozenset[str]] = {
    "errors": frozenset(),
    "data": frozenset({"errors"}),
    "runtime": frozenset({"errors"}),
    "catalog": frozenset({"data", "errors"}),
    "sql": frozenset({"catalog", "data", "errors"}),
    "plan": frozenset({"catalog", "data", "errors", "sql"}),
    "stream": frozenset({"catalog", "data", "errors", "plan", "runtime", "sql"}),
    "sensor": frozenset({"catalog", "data", "errors", "plan", "runtime", "sql"}),
    "wrappers": frozenset({"catalog", "data", "errors", "runtime", "stream"}),
    "core": frozenset(
        {"catalog", "data", "errors", "plan", "sensor", "sql", "stream"}
    ),
    "building": frozenset({"data", "errors", "runtime", "sensor", "wrappers"}),
    "analysis": frozenset(
        {"catalog", "core", "data", "errors", "plan", "sql", "stream"}
    ),
    "api": frozenset(
        {
            "analysis",
            "catalog",
            "data",
            "errors",
            "plan",
            "runtime",
            "sql",
            "stream",
            "wrappers",
        }
    ),
    "smartcis": frozenset(
        {
            "building",
            "catalog",
            "core",
            "data",
            "errors",
            "plan",
            "runtime",
            "sensor",
            "sql",
            "stream",
            "wrappers",
        }
    ),
}

@dataclass
class _ClassInfo:
    name: str
    module: str  # repo-relative path
    lineno: int
    bases: tuple[str, ...]
    methods: frozenset[str]
    node: ast.ClassDef


def repro_root() -> Path:
    """The ``src/repro`` directory of the running installation."""
    import repro

    return Path(repro.__file__).resolve().parent


def lint_engine(root: Path | None = None) -> list[Diagnostic]:
    """Run every engine-invariant check over the package source."""
    root = root if root is not None else repro_root()
    modules: dict[str, ast.Module] = {}
    for path in sorted(root.rglob("*.py")):
        rel = str(path.relative_to(root))
        modules[rel] = ast.parse(path.read_text(), filename=rel)
    classes = _collect_classes(modules)
    operator_classes = _subclasses_of("Operator", classes)
    plan_classes = [info for info in classes if info.name == "LogicalOp"]
    plan_classes += _subclasses_of("LogicalOp", classes)
    out: list[Diagnostic] = []
    _check_snapshot_pairs(operator_classes, out)
    _check_push_batch(modules, out)
    _check_layering(modules, out)
    _check_worker_boundary(modules, out)
    _check_compile_calls(modules, out)
    _check_eval_calls(modules, out)
    _check_parked_errors(modules, out)
    _check_plan_writes(plan_classes, out)
    _check_dict_writes(modules, out)
    return out


# ----------------------------------------------------------------------
# Class discovery
# ----------------------------------------------------------------------
def _collect_classes(modules: dict[str, ast.Module]) -> list[_ClassInfo]:
    out: list[_ClassInfo] = []
    for rel, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = []
            for base in node.bases:
                if isinstance(base, ast.Name):
                    bases.append(base.id)
                elif isinstance(base, ast.Attribute):
                    bases.append(base.attr)
            methods = frozenset(
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
            out.append(
                _ClassInfo(node.name, rel, node.lineno, tuple(bases), methods, node)
            )
    return out


def _subclasses_of(base: str, classes: list[_ClassInfo]) -> list[_ClassInfo]:
    """Transitive subclasses by name (class names are unique enough in
    this codebase; a false merge would only widen the check)."""
    names = {base}
    grew = True
    while grew:
        grew = False
        for info in classes:
            if info.name not in names and names.intersection(info.bases):
                names.add(info.name)
                grew = True
    return [info for info in classes if info.name in names and info.name != base]


# ----------------------------------------------------------------------
# RA901: state_snapshot / state_restore pairing
# ----------------------------------------------------------------------
def _check_snapshot_pairs(
    operators: list[_ClassInfo], out: list[Diagnostic]
) -> None:
    for info in operators:
        has_snapshot = "state_snapshot" in info.methods
        has_restore = "state_restore" in info.methods
        if has_snapshot != has_restore:
            missing = "state_restore" if has_snapshot else "state_snapshot"
            out.append(
                diag(
                    "RA901",
                    ERROR,
                    f"operator {info.name} defines "
                    f"{'state_snapshot' if has_snapshot else 'state_restore'} "
                    f"without {missing}; its state cannot round-trip a "
                    "checkpoint",
                    operator=f"{info.module}:{info.lineno}",
                )
            )


# ----------------------------------------------------------------------
# RA902: push_batch receives a punctuation-free run
# ----------------------------------------------------------------------
_BATCH_VERBS = ("push_batch", "receive_batch")


#: ``(module, class)`` whose ``push_batch`` may name StreamElement: the
#: operators' per-element fallback (see the module docstring).
_ELEMENT_EXEMPT = {("stream/operators.py", "Operator")}


def _check_push_batch(modules: dict[str, ast.Module], out: list[Diagnostic]) -> None:
    for rel, tree in modules.items():
        for owner, fn in _methods(tree):
            if fn.name not in _BATCH_VERBS:
                continue
            exempt = (Path(rel).as_posix(), owner) in _ELEMENT_EXEMPT
            what = _batch_violation(fn, exempt)
            if what is not None:
                out.append(
                    diag(
                        "RA902",
                        ERROR,
                        f"{fn.name} {what}: a batch is a punctuation-free "
                        "run of rows and their stamps, punctuation travels "
                        "by push and no element is built for a run, so the "
                        "body must neither look for one nor build one",
                        operator=f"{rel}:{fn.lineno}",
                    )
                )


def _methods(tree: ast.AST, owner: str | None = None):
    """Every function in ``tree`` with the name of the class directly
    holding it (None for a module-level or nested function)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield owner, node
            yield from _methods(node, None)
        elif isinstance(node, ast.ClassDef):
            yield from _methods(node, node.name)
        else:
            yield from _methods(node, owner)


def _batch_violation(fn: ast.AST, element_exempt: bool) -> str | None:
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and node.id == "Punctuation":
            return "names Punctuation"
        if isinstance(node, ast.Name) and node.id == "StreamElement" and not element_exempt:
            return "names StreamElement"
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = ast.walk(node.type)
            if any(isinstance(n, ast.Name) and n.id == "AttributeError" for n in caught):
                return "catches AttributeError"
    return None


# ----------------------------------------------------------------------
# RA903: top-level import layering
# ----------------------------------------------------------------------
def _module_layer(rel: str) -> str | None:
    parts = Path(rel).parts
    if len(parts) == 1:
        stem = Path(parts[0]).stem
        return stem if stem in LAYERS else None  # repro/__init__.py: exempt
    return parts[0]


def _top_level_imports(tree: ast.Module):
    """(lineno, imported repro subpackage) for every module-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    yield node.lineno, parts[1]
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue
            parts = node.module.split(".")
            if parts[0] != "repro":
                continue
            if len(parts) > 1:
                yield node.lineno, parts[1]
            else:  # from repro import <subpackage or name>
                for alias in node.names:
                    yield node.lineno, alias.name


def _check_layering(modules: dict[str, ast.Module], out: list[Diagnostic]) -> None:
    for rel, tree in modules.items():
        layer = _module_layer(rel)
        if layer is None or layer not in LAYERS:
            continue
        allowed = LAYERS[layer]
        for lineno, target in _top_level_imports(tree):
            if target == layer or target in allowed:
                continue
            if target in LAYERS or Path(target).stem in LAYERS:
                out.append(
                    diag(
                        "RA903",
                        ERROR,
                        f"{layer!r} imports {target!r} at module top level; "
                        "the layering contract allows only "
                        f"{{{', '.join(sorted(allowed)) or 'nothing'}}} "
                        "(use a lazy in-function import for optional edges)",
                        operator=f"{rel}:{lineno}",
                    )
                )


# ----------------------------------------------------------------------
# RA904: pickle-safe worker boundary
# ----------------------------------------------------------------------
#: Layers a shard worker process transitively imports (procshard's
#: worker main builds a Catalog, PlanBuilder and ShardHost): a
#: module-level engine singleton here would be duplicated per process.
WORKER_IMPORT_LAYERS = frozenset(
    {"catalog", "data", "errors", "plan", "runtime", "sql", "stream"}
)

#: Constructors that embody per-process runtime state. Calling one in a
#: module-level assignment captures an engine at import time.
_ENGINE_SINGLETON_CALLS = frozenset(
    {
        "StreamEngine",
        "ShardedStreamEngine",
        "ProcessShardEngine",
        "SensorEngine",
        "Session",
        "CheckpointCoordinator",
        "connect",
    }
)


def _check_worker_boundary(
    modules: dict[str, ast.Module], out: list[Diagnostic]
) -> None:
    transports = [rel for rel, tree in modules.items() if _imports_multiprocessing(tree)]
    for rel in transports[1:]:
        out.append(
            diag(
                "RA904",
                ERROR,
                f"{rel} imports multiprocessing, but {transports[0]} already "
                "is the frame boundary; a second transport belongs behind "
                "the same ShardChannel verbs in that one module",
                operator=f"{rel}:1",
            )
        )
    for rel, tree in modules.items():
        if _module_layer(rel) in WORKER_IMPORT_LAYERS:
            for node in tree.body:
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                value = node.value
                if value is None:
                    continue
                name = _engine_singleton_call(value)
                if name is not None:
                    out.append(
                        diag(
                            "RA904",
                            ERROR,
                            f"module-level {name}(...) captures an engine "
                            "singleton at import time; worker processes "
                            "import this module fresh and would each build "
                            "their own copy",
                            operator=f"{rel}:{node.lineno}",
                        )
                    )
        if rel not in transports:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in ("put", "put_nowait")
            ):
                continue
            for arg in node.args[:1]:  # the frame being enqueued
                if isinstance(arg, (ast.Tuple, ast.Name)):
                    continue
                if isinstance(arg, ast.Lambda):
                    what = "lambda"
                elif isinstance(arg, ast.Attribute):
                    what = "bound attribute"
                else:
                    what = "non-tuple expression"
                out.append(
                    diag(
                        "RA904",
                        ERROR,
                        f"queue frame is a {what}; frames crossing the "
                        "worker boundary must be plain tuples of "
                        "picklable values",
                        operator=f"{rel}:{node.lineno}",
                    )
                )


def _imports_multiprocessing(tree: ast.Module) -> bool:
    for node in tree.body:
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "multiprocessing" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == "multiprocessing":
                return True
    return False


def _engine_singleton_call(value: ast.AST) -> str | None:
    """The engine-singleton constructor name called anywhere inside a
    module-level assignment's value, or None."""
    for node in ast.walk(value):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in _ENGINE_SINGLETON_CALLS:
            return name
    return None


# ----------------------------------------------------------------------
# RA905: generated source is compiled in one memoized place
# ----------------------------------------------------------------------
#: (module, function) of the one sanctioned ``compile(...)`` call site.
_CODE_OBJECT_HELPER = ("sql/compiled.py", "_code_object")


def _check_compile_calls(modules: dict[str, ast.Module], out: list[Diagnostic]) -> None:
    helper_module, helper_name = _CODE_OBJECT_HELPER
    for rel, tree in modules.items():
        sanctioned: set[ast.Call] = set()
        if Path(rel).as_posix() == helper_module:
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef) and fn.name == helper_name:
                    sanctioned.update(_bare_compile_calls(fn))
        for call in _bare_compile_calls(tree):
            if call in sanctioned:
                continue
            out.append(
                diag(
                    "RA905",
                    ERROR,
                    "bare compile(...) outside "
                    f"{helper_module}::{helper_name}; generated source "
                    "must go through that memoized helper so each "
                    "distinct text is compiled once",
                    operator=f"{rel}:{call.lineno}",
                )
            )


def _bare_compile_calls(tree: ast.AST) -> list[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "compile"
    ]


# ----------------------------------------------------------------------
# RA906: everything outside sql/ reaches the interpreter only through
# sql.compiled's fallback closures
# ----------------------------------------------------------------------
def _check_eval_calls(modules: dict[str, ast.Module], out: list[Diagnostic]) -> None:
    for rel, tree in modules.items():
        if Path(rel).parts[0] == "sql":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if isinstance(func, ast.Attribute) and name == "eval":
                what = ".eval(...)"
            elif name == "Accumulator":
                what = "Accumulator(...)"
            else:
                continue
            out.append(
                diag(
                    "RA906",
                    ERROR,
                    f"{what} outside sql/: evaluate and fold through the "
                    "schema-bound callables of sql.compiled, which "
                    "fall back to the interpreter themselves (counted)",
                    operator=f"{rel}:{node.lineno}",
                )
            )


# ----------------------------------------------------------------------
# RA907: an error is handed to the edge
# ----------------------------------------------------------------------
def _check_parked_errors(modules: dict[str, ast.Module], out: list[Diagnostic]) -> None:
    for rel, tree in modules.items():
        if Path(rel).parts[0] not in ("stream", "data"):
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ExceptHandler)
                and isinstance(node.type, ast.Name)
                and node.type.id == "Exception"
                and node.name is not None
                and not any(_hands_on(inner, node.name) for inner in ast.walk(node))
            ):
                out.append(
                    diag(
                        "RA907",
                        ERROR,
                        f"'except Exception as {node.name}' neither re-raises "
                        f"nor parks {node.name}: pass it to park(), and the "
                        "outermost verb raises it",
                        operator=f"{rel}:{node.lineno}",
                    )
                )


def _hands_on(node: ast.AST, name: str) -> bool:
    """Whether ``node`` raises, or calls ``park`` with ``name``."""
    return isinstance(node, ast.Raise) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "park"
        and any(isinstance(arg, ast.Name) and arg.id == name for arg in node.args)
    )


# ----------------------------------------------------------------------
# RA908: plan nodes are write-once
# ----------------------------------------------------------------------
def _check_plan_writes(plan_classes: list[_ClassInfo], out: list[Diagnostic]) -> None:
    for info in plan_classes:
        for method in info.node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__" or not method.args.args:
                continue
            if any(
                isinstance(d, ast.Name) and d.id in ("staticmethod", "classmethod")
                for d in method.decorator_list
            ):
                continue
            self_name = method.args.args[0].arg
            for node in ast.walk(method):
                if _writes_self(node, self_name):
                    out.append(
                        diag(
                            "RA908",
                            ERROR,
                            f"{info.name}.{method.name} writes an attribute of "
                            f"{self_name}: plan nodes are write-once, assigned in "
                            "__init__ only (rewrites build new trees; a node's "
                            "cached fingerprint and sharing verdict describe the "
                            "tree it was built as)",
                            operator=f"{info.module}:{node.lineno}",
                        )
                    )


def _check_dict_writes(modules: dict[str, ast.Module], out: list[Diagnostic]) -> None:
    """Every ``<expr>.__dict__[...]`` store or delete, bar ``self`` in
    its own class's ``__init__`` and the plan-class writes flagged
    already."""
    flagged = {d.operator for d in out if d.code == "RA908"}
    for rel, tree in modules.items():
        inits = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
        allowed = {
            id(n) for f in inits if f.args.args for n in ast.walk(f) if _dict_write(n, f.args.args[0].arg)
        }
        for node in ast.walk(tree):
            where = f"{rel}:{getattr(node, 'lineno', 0)}"
            if _dict_write(node) and id(node) not in allowed and where not in flagged:
                message = "writes into another object's __dict__: memoize in a mapping keyed by it"
                out.append(diag("RA908", ERROR, message, operator=where))


def _dict_write(node: ast.AST, owner: str | None = None) -> bool:
    """Whether ``node`` stores into or deletes from ``X.__dict__[...]``
    (with ``owner``: only where ``X`` is that name)."""
    target = getattr(node, "value", None)
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.ctx, (ast.Store, ast.Del))
        and isinstance(target, ast.Attribute)
        and target.attr == "__dict__"
        and (owner is None or isinstance(target.value, ast.Name) and target.value.id == owner)
    )


def _writes_self(node: ast.AST, self_name: str) -> bool:
    """Whether ``node`` assigns or deletes an attribute of ``self_name``."""

    def is_self(expr: ast.AST) -> bool:
        return isinstance(expr, ast.Name) and expr.id == self_name

    if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return is_self(node.value)
    if _dict_write(node, self_name):
        return True
    if isinstance(node, ast.Call) and node.args and is_self(node.args[0]):
        func = node.func
        return (isinstance(func, ast.Name) and func.id in ("setattr", "delattr")) or (
            isinstance(func, ast.Attribute)
            and func.attr in ("__setattr__", "__delattr__")
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
        )
    return False
