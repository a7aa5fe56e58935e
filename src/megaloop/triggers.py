"""Trigger conditions: `events; period; initialState`.

The events part lists declared event-type names or interception patterns
(`Before[op]` / `After[op]`); the period is the minimal gap between two
runs of the triggered instance.  Either part may be empty, not both.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .diagnostics import Diagnostic, SourceSpan, error

_PATTERN_RE = re.compile(r"^(Before|After)\[([A-Za-z_][A-Za-z0-9_-]*)\]$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")
_PERIOD_RE = re.compile(r"^([0-9]+(?:\.[0-9]+)?)\s*([a-zA-Z]*)$")


@dataclass(frozen=True)
class InterceptPattern:
    phase: str  # "before" | "after"
    op: str

    def __str__(self) -> str:
        return f"{self.phase.capitalize()}[{self.op}]"


@dataclass(frozen=True)
class TriggerSpec:
    events: tuple = ()                 # str names and InterceptPattern entries
    period: float | None = None        # seconds
    initial_state: str = ""

    @property
    def pure_period(self) -> bool:
        return not self.events and self.period is not None

    def intercept_patterns(self) -> list[InterceptPattern]:
        return [e for e in self.events if isinstance(e, InterceptPattern)]

    def event_names(self) -> list[str]:
        return [e for e in self.events if isinstance(e, str)]

    def to_text(self) -> str:
        events = ", ".join(str(e) for e in self.events)
        period = "" if self.period is None else _format_period(self.period)
        return f"{events}; {period}; {self.initial_state};"


def _format_period(seconds: float) -> str:
    if 0 < seconds < 1 and round(seconds * 1000, 9) == int(seconds * 1000):
        return f"{int(seconds * 1000)}ms"
    return f"{seconds:g}s"


def parse_trigger(text: str, filename: str = "<trigger>",
                  span: SourceSpan | None = None) -> TriggerSpec | Diagnostic:
    """Parse a trigger string; the trailing semicolon is optional."""
    where = span or SourceSpan(filename, 1, 1, 1, max(1, len(text)))
    parts = text.split(";")
    if parts and parts[-1].strip() == "":
        parts = parts[:-1]
    if len(parts) != 3:
        return error("E-TRIG-SYNTAX",
                     f"trigger needs 'events; period; initialState', got {text!r}",
                     span=where)
    events_part, period_part, state_part = (p.strip() for p in parts)

    events: list = []
    if events_part:
        for raw in events_part.split(","):
            raw = raw.strip()
            m = _PATTERN_RE.match(raw)
            if m:
                events.append(InterceptPattern(m.group(1).lower(), m.group(2)))
            elif _IDENT_RE.match(raw):
                events.append(raw)
            else:
                return error("E-TRIG-SYNTAX", f"bad event entry {raw!r}", span=where)

    period: float | None = None
    if period_part:
        m = _PERIOD_RE.match(period_part)
        if not m:
            return error("E-TRIG-SYNTAX", f"bad period {period_part!r}", span=where)
        value, unit = float(m.group(1)), m.group(2)
        if unit == "s":
            period = value
        elif unit == "ms":
            period = value / 1000.0
        else:
            return error("E-TRIG-UNIT",
                         f"unknown period unit {unit!r} (use s or ms)", span=where)

    if not events and period is None:
        return error("E-TRIG-EMPTY",
                     "trigger needs events or a period, both are empty", span=where)
    if not _IDENT_RE.match(state_part):
        return error("E-TRIG-SYNTAX", f"bad initial state {state_part!r}", span=where)
    return TriggerSpec(tuple(events), period, state_part)


def match_event(spec: TriggerSpec, event, sense_edge, event_types) -> bool:
    """True iff the event comes from the sensed module and matches the spec.

    Events match a listed type or any of its ancestors (hierarchy walk).
    Before/After patterns are not events: the engine runs their watchers
    synchronously at the intercepted operation.
    """
    if event.source != sense_edge.sensed:
        return False
    for entry in spec.events:
        if isinstance(entry, str) and event_types.is_subtype(event.type_name, entry):
            return True
    return False


@dataclass
class PendingActivation:
    """A queued request to run an instance; FIFO per target instance."""

    target: str
    initial_state: str
    enqueue_time: float
    cause: str | None = None
    period: float | None = None  # gate of the trigger that enqueued this
