"""Scenario scripts: the deterministic drivers for end-to-end runs.

A script declares the event-type hierarchy, seeds runtime-model bodies,
and lists timestamped commands:

    event RtException
    event OutOfMemoryRtException extends RtException
    seed selfRepair.RepairStrategies { "crash" = "restart" }
    at 1s emit RtException
    at 2.5s inject c3 crash
    at 30s load 0.9

Trailing semicolons are accepted; `emit` defaults to the architecture's
adaptable-software module as the event source.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import dsl


@dataclass
class ScriptCommand:
    time: float
    kind: str  # inject | load | emit
    args: tuple


@dataclass
class Script:
    event_types: list[tuple[str, str | None]] = field(default_factory=list)
    seeds: list[tuple[str, str, dict]] = field(default_factory=list)
    commands: list[ScriptCommand] = field(default_factory=list)

    def declare_events(self, registry) -> None:
        for name, parent in self.event_types:
            registry.declare(name, parent)


def parse_script(text: str, filename: str = "<script>") -> dsl.ParseResult[Script]:
    try:
        parser = dsl._Parser(text, filename)
        script = _parse_script(parser)
    except dsl.LexError as exc:
        return dsl.ParseResult(None, [exc.diagnostic])
    return dsl.ParseResult(script)


def _parse_script(p: dsl._Parser) -> Script:
    script = Script()
    while p.peek().kind != "eof":
        if p.accept("event"):
            name = p.ident("event type").value
            parent = None
            if p.accept("extends"):
                parent = p.ident("parent event type").value
            script.event_types.append((name, parent))
        elif p.accept("seed"):
            instance = p.ident("instance").value
            p.expect(".")
            slot = p.ident("slot").value
            script.seeds.append((instance, slot, dsl.parse_literal(p)))
        elif p.accept("at"):
            when = _duration(p)
            script.commands.append(_command(p, when))
        else:
            raise p.fail(f"unexpected {p.peek().value!r} in scenario script")
        p.accept(";")
    script.commands.sort(key=lambda c: c.time)
    return script


def _duration(p: dsl._Parser) -> float:
    value = float(p.number("time").value)
    unit = p.ident("time unit").value
    if unit == "s":
        return value
    if unit == "ms":
        return value / 1000.0
    raise p.fail(f"unknown time unit {unit!r} (use s or ms)")


def _command(p: dsl._Parser, when: float) -> ScriptCommand:
    kind = p.ident("command").value
    if kind == "inject":
        component = p.ident("component id").value
        failure = p.ident("failure kind").value
        return ScriptCommand(when, "inject", (component, failure))
    if kind == "load":
        return ScriptCommand(when, "load", (float(p.number("load").value),))
    if kind == "emit":
        type_name = p.ident("event type").value
        source = None
        if p.accept("from"):
            source = p.ident("source module").value
        return ScriptCommand(when, "emit", (type_name, source))
    raise p.fail(f"unknown scenario command {kind!r}")
