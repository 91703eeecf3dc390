"""Exception hierarchy for the ASPEN / SmartCIS reproduction.

All library errors derive from :class:`AspenError` so applications can
catch everything raised by this package with a single ``except`` clause.
Subsystems raise the most specific subclass available; error messages
include enough context (names, positions, values) to debug a failing
query without a stack trace.
"""

from __future__ import annotations


class AspenError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(AspenError):
    """A schema is malformed or two schemas are incompatible."""


class TypeMismatchError(SchemaError):
    """A value does not conform to its declared :class:`~repro.data.types.DataType`."""


class UnknownFieldError(SchemaError):
    """A field name was referenced that does not exist in a schema."""

    def __init__(self, name: str, available: list[str] | None = None):
        self.name = name
        self.available = list(available or [])
        hint = f"; available: {', '.join(self.available)}" if self.available else ""
        super().__init__(f"unknown field {name!r}{hint}")


class ParseError(AspenError):
    """Stream SQL text could not be tokenized or parsed.

    Attributes:
        line: 1-based line of the offending token.
        column: 1-based column of the offending token.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")


class AnalysisError(AspenError):
    """A parsed query failed semantic analysis (binding, typing, scoping)."""


class CatalogError(AspenError):
    """A catalog lookup failed or a registration conflicts with an existing entry."""


class PlanError(AspenError):
    """A logical or physical plan is malformed or cannot be constructed."""


class OptimizerError(AspenError):
    """An optimizer could not produce a plan (e.g. no engine can execute a fragment)."""


class UnsupportedQueryError(OptimizerError):
    """A query (fragment) is outside the capabilities of every available engine."""


class ExecutionError(AspenError):
    """A runtime failure while executing a physical plan."""


class RecoveryError(ExecutionError):
    """A pool host died again during each attempt to recover it.

    Attributes:
        host: The host's index in the pool (``"fb"`` for the
            designated fallback engine).
    """

    def __init__(self, host, attempts: int):
        self.host = host
        name = f"shard {host}" if isinstance(host, int) else "the fallback engine"
        super().__init__(f"{name} died during each of its {attempts} recovery attempts")


class SensorNetworkError(AspenError):
    """A failure inside the simulated sensor network substrate."""


class RadioError(SensorNetworkError):
    """A radio-level failure (e.g. transmitting from a dead node)."""


class EnergyExhaustedError(SensorNetworkError):
    """A mote attempted an operation with a depleted battery."""


class WrapperError(AspenError):
    """A source wrapper failed to produce or translate data."""


class BuildingModelError(AspenError):
    """The building model is inconsistent (unknown room, disconnected graph, ...)."""


class RoutingError(BuildingModelError):
    """No route exists between the requested endpoints."""


class SimulationError(AspenError):
    """The discrete-event simulator was misused (e.g. scheduling in the past)."""


# ---------------------------------------------------------------------------
# Session API (repro.api): every failure a Session surfaces is one of these
# (or another AspenError subclass raised by the layer that failed).
# ---------------------------------------------------------------------------
class QueryError(AspenError):
    """A SQL statement failed to compile or route (lex/parse/analyze/plan).

    Attributes:
        line: 1-based source line of the failure (0 when unknown).
        column: 1-based source column of the failure (0 when unknown).
        sql: The statement text that failed.
    """

    def __init__(self, message: str, *, line: int = 0, column: int = 0, sql: str = ""):
        self.line = line
        self.column = column
        self.sql = sql
        super().__init__(message)


class SourceError(AspenError):
    """Attaching, detaching or feeding a session source failed."""


class SessionClosedError(AspenError):
    """An operation was attempted on a closed :class:`repro.api.Session`."""
