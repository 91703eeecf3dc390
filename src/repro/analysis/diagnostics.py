"""The diagnostics framework: stable ``RA###`` codes over every verdict.

Every static verdict the engine produces — type errors, unbounded-state
proofs, progress/punctuation soundness, partition-safety fallbacks,
sharing declines, federated partitioning decisions, engine-invariant
lint findings — is a :class:`Diagnostic` with a stable code from
:data:`CODES`. Codes are API: tests pin them, ``session.explain``
surfaces them, and tooling greps for them, so a code is never renumbered
or reused once released.

Code ranges:

* ``RA0xx`` — typed-plan inference (:mod:`repro.analysis.typing`)
* ``RA1xx`` — unbounded-state detection (:mod:`repro.analysis.bounds`)
* ``RA2xx`` — progress/punctuation soundness (:mod:`repro.analysis.progress`)
* ``RA3xx`` — partition-safety verdicts (:mod:`repro.stream.partition`)
* ``RA4xx`` — shared-subplan eligibility (:mod:`repro.stream.multiplex`)
* ``RA5xx`` — federated partitioning decisions
* ``RA9xx`` — engine-invariant linter (:mod:`repro.analysis.linter`)

Severities: ``error`` (the plan will fail or never emit — strict mode
turns these into :class:`~repro.errors.QueryError`), ``warning`` (runs,
but state or progress depends on runtime conditions the analysis cannot
bound), ``info`` (an explanation of a decision, not a defect).
"""

from __future__ import annotations

from dataclasses import dataclass, field

ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITIES = (ERROR, WARNING, INFO)

#: Stable code -> one-line title. The registry is closed: emitting a
#: code absent from this table is a bug (``diag`` raises), and removing
#: or renumbering an entry is a compatibility break.
CODES: dict[str, str] = {
    # -- RA0xx: typed-plan inference -----------------------------------
    "RA001": "ill-typed expression",
    "RA002": "predicate is not boolean",
    "RA003": "invalid aggregate argument type",
    "RA004": "ill-typed projection or group key",
    "RA005": "recursive CTE column type mismatch",
    "RA006": "ORDER BY key is not orderable",
    # -- RA1xx: unbounded-state detection ------------------------------
    "RA101": "join buffers an unbounded window over an infinite stream",
    "RA102": "DISTINCT state grows with distinct-row count",
    "RA103": "running-mode aggregate state never clears",
    "RA104": "UNBOUNDED window aggregate over an infinite stream",
    # -- RA2xx: progress / punctuation soundness -----------------------
    "RA200": "blocking operator unblocked by window close",
    "RA201": "blocking operator unblocked by punctuation",
    "RA203": "recursive fixpoint over an infinite stream",
    # -- RA3xx: partition-safety verdicts ------------------------------
    "RA300": "plan is partition-aligned",
    "RA301": "ORDER BY needs a global total order",
    "RA302": "LIMIT budgets rows globally",
    "RA303": "ROWS window counts global arrivals",
    "RA304": "plan reads only replicated tables",
    "RA305": "plan reads no partitioned stream",
    "RA306": "DISTINCT without the partition key",
    "RA307": "aggregate over replicated tables",
    "RA308": "aggregate input does not carry the partition key",
    "RA309": "GROUP BY keys do not cover the partition key",
    "RA310": "join predicate does not align partition keys",
    "RA311": "partition key is not a column of the source",
    "RA312": "operator not recognized as partition-safe",
    "RA313": "process workers unavailable; the pool runs in-process",
    # -- RA32x: exchange (mid-plan repartitioning) decisions -----------
    "RA320": "join inputs hash-shuffled on the equi-key",
    "RA321": "aggregate split into per-shard partials merged by shuffle",
    "RA322": "DISTINCT deduplicated per shard, survivors shuffled by row hash",
    "RA323": "table side broadcast to every shard",
    "RA324": "no exchange strategy applies; plan runs on the fallback engine",
    "RA325": "unkeyed stream ingested round-robin before the shuffle",
    # -- RA4xx: shared-subplan eligibility -----------------------------
    "RA400": "plan is shareable",
    "RA401": "OUTPUT TO DISPLAY must fire once per query",
    "RA402": "remote feeds are delivered per engine, not per chain",
    "RA403": "recursive CTE references are never shared",
    "RA404": "stored-table scans are replayed per query",
    "RA405": "plan has no structural fingerprint",
    # -- RA5xx: federated partitioning decisions -----------------------
    "RA500": "no sensor-executable fragments; plan runs whole on the stream engine",
    "RA501": "fragment pushed in-network",
    "RA502": "sensor scan collected raw to the basestation",
    "RA503": "residual runs on the stream engine",
    # -- RA9xx: engine-invariant linter --------------------------------
    "RA901": "state_snapshot/state_restore must be defined in pairs",
    "RA902": (
        "push_batch receives a punctuation-free run of rows and their stamps; "
        "punctuation travels by push and no StreamElement is built for a run"
    ),
    "RA903": "import crosses a layering boundary",
    "RA904": "worker boundary must stay pickle-safe",
    "RA905": "generated source is compiled only by the one memoized helper",
    "RA906": "nothing outside sql/ reaches the interpreter but through sql.compiled",
    "RA907": "an error is handed to the edge",
    "RA908": "plan nodes are write-once; nothing writes into another object's __dict__",
}


class PlanAnalysisWarning(UserWarning):
    """Python warning category carrying plan-analysis diagnostics
    (``connect(analysis="warn")`` routes error-severity findings here
    instead of raising)."""


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding with a stable code.

    Attributes:
        code: Stable ``RA###`` identifier from :data:`CODES`.
        severity: ``"error"``, ``"warning"`` or ``"info"``.
        message: Human-readable explanation specific to this finding.
        operator: The plan node (``describe()``) or source location the
            finding anchors to; empty when plan-wide.
        hint: Optional remediation hint.
    """

    code: str
    severity: str
    message: str
    operator: str = ""
    hint: str = ""

    def render(self) -> str:
        where = f" at {self.operator}" if self.operator else ""
        hint = f" (hint: {self.hint})" if self.hint else ""
        return f"[{self.code}] {self.severity}: {self.message}{where}{hint}"


def diag(
    code: str,
    severity: str,
    message: str,
    *,
    operator: str = "",
    hint: str = "",
) -> Diagnostic:
    """Build a :class:`Diagnostic`, validating against the registry."""
    if code not in CODES:
        raise ValueError(f"unregistered diagnostic code {code!r}")
    if severity not in _SEVERITIES:
        raise ValueError(f"unknown severity {severity!r}")
    return Diagnostic(code, severity, message, operator, hint)


@dataclass(frozen=True)
class AnalysisReport:
    """The verdict of one analysis run over one plan.

    Cached alongside the compiled plan (see
    :class:`~repro.stream.multiplex.CachedStatement`), so a warm
    admission never re-analyzes. Immutable: reports are shared across
    cache hits exactly like the plans they describe.
    """

    diagnostics: tuple[Diagnostic, ...] = field(default_factory=tuple)

    @classmethod
    def of(cls, diagnostics) -> "AnalysisReport":
        return cls(tuple(diagnostics))

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic was produced."""
        return not self.errors

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == WARNING)

    @property
    def infos(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == INFO)

    def codes(self) -> tuple[str, ...]:
        return tuple(d.code for d in self.diagnostics)

    def has_code(self, code: str) -> bool:
        return any(d.code == code for d in self.diagnostics)

    def __getitem__(self, code: str) -> Diagnostic:
        for d in self.diagnostics:
            if d.code == code:
                return d
        raise KeyError(code)

    def render(self) -> str:
        if not self.diagnostics:
            return "no diagnostics"
        return "\n".join(d.render() for d in self.diagnostics)
