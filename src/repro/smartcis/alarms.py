"""Alarm notifications.

Paper §2: "We can trigger alarm notifications if machines exceed a
temperature or load factor."

An alarm rule is a continuous filter query over a monitoring stream,
executed by the stream engine. Every passing element becomes an
:class:`AlarmEvent` with trigger latency recorded (event time of the
offending tuple vs delivery time at the alarm sink) — the E4 bench's
metric. Rules de-duplicate: a condition must clear before the same key
re-fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.data.streams import StreamElement
from repro.data.tuples import Row
from repro.plan import PlanBuilder
from repro.sql.expressions import Expr
from repro.stream.engine import QueryHandle, StreamEngine


@dataclass(frozen=True)
class AlarmEvent:
    """One fired alarm."""

    rule: str
    key: str
    message: str
    event_time: float
    raised_at: float

    @property
    def latency(self) -> float:
        return self.raised_at - self.event_time


@dataclass
class AlarmRule:
    """One registered rule.

    Attributes:
        name: Rule identifier ("overtemp").
        sql: The filter query whose results fire the alarm.
        key_column: Output column identifying the alarmed entity (alarms
            de-duplicate per key until the condition clears).
        message: Formatter from the result row to a human message.
    """

    name: str
    sql: str
    key_column: str
    message: Callable[[Row], str]


class AlarmService:
    """Runs alarm rules as continuous queries and keeps the alarm log."""

    def __init__(self, engine: StreamEngine, builder: PlanBuilder, now_fn: Callable[[], float]):
        self._engine = engine
        self._builder = builder
        self._now = now_fn
        self.events: list[AlarmEvent] = []
        self._handles: dict[str, QueryHandle] = {}
        self._rules: dict[str, AlarmRule] = {}
        self._active_keys: dict[str, set[str]] = {}
        self.on_alarm: Callable[[AlarmEvent], None] | None = None

    # ------------------------------------------------------------------
    def add_rule(self, rule: AlarmRule) -> None:
        """Register and start a rule."""
        if rule.name in self._rules:
            raise ValueError(f"alarm rule {rule.name!r} already registered")
        plan = self._builder.build_sql(rule.sql)
        handle = self._engine.execute(plan)  # type: ignore[arg-type]

        def fire(run: list[StreamElement]) -> None:
            for element in run:
                self._fire(rule, element)

        # The sink's one observer hook: every stored run, whether a
        # push or a push_many emitted it (and over a shared log's view).
        handle.sink.observe(fire)
        self._rules[rule.name] = rule
        self._handles[rule.name] = handle
        self._active_keys[rule.name] = set()

    def clear(self, rule_name: str, key: str) -> None:
        """Mark a condition as cleared so the key may fire again."""
        self._active_keys.get(rule_name, set()).discard(key)

    def clear_all(self, rule_name: str | None = None) -> None:
        if rule_name is None:
            for keys in self._active_keys.values():
                keys.clear()
        else:
            self._active_keys.get(rule_name, set()).clear()

    # ------------------------------------------------------------------
    def _fire(self, rule: AlarmRule, element: StreamElement) -> None:
        key = str(element.row[rule.key_column])
        active = self._active_keys[rule.name]
        if key in active:
            return
        active.add(key)
        event = AlarmEvent(
            rule=rule.name,
            key=key,
            message=rule.message(element.row),
            event_time=element.timestamp,
            raised_at=self._now(),
        )
        self.events.append(event)
        if self.on_alarm is not None:
            self.on_alarm(event)

    # ------------------------------------------------------------------
    def events_for(self, rule_name: str) -> list[AlarmEvent]:
        return [e for e in self.events if e.rule == rule_name]

    def mean_latency(self) -> float:
        """Mean trigger latency across all fired alarms (0 if none)."""
        if not self.events:
            return 0.0
        return sum(e.latency for e in self.events) / len(self.events)
